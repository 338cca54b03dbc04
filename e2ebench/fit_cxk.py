"""fit-cxk: batch CXK-means fits over three simulated peers.

Why: it is the paper's algorithm, and the workload where the similarity
kernel (``assign_all``, ``score_candidates``/``rank_items_batch``)
dominates; the XML front end is a small share of a fit, so this is the
workload on which front-end changes should read flat.

Each run fits distinct DBLP inputs (sub-seeds of the run seed), as many
as ``--seconds`` allows, dealt over two launched programs; a third
program fits the first two again, which must reproduce their partitions
and counts.  Each launch-to-ready time is a set-up sample.  Timings are
rescaled to the reference host speed (``HostSpeed``).  The traced
run fits each of ``TRACED_INPUTS`` inputs once untraced and twice traced,
for the tracing overhead and the determinism check of every count.
"""

from __future__ import annotations

from typing import Dict, List

import inputs
import layers
from common import (
    DETERMINISTIC_COUNTS,
    END_TO_END,
    PER_LAYER,
    HostSpeed,
    Outcome,
    ProgramProcess,
    canonical,
    median,
    percentile,
    result,
    schedule,
)

#: The paper's DBLP structure/content goal: k=16 (Table 1), with the
#: CLI's default of at most 6 iterations.
FIT = {"k": 16, "f": 0.5, "gamma": 0.85, "max_iterations": 6, "backend": "numpy", "peers": 3}
DOCUMENTS = {"full": 160, "tiny": 40}
#: Reduced input on which numpy must equal the python reference partition
#: (the parity contract).
PARITY_DOCUMENTS = 32
#: Seconds one fit of DOCUMENTS["full"] takes on a 2-vCPU host, launches
#: and transfers included; sizes the fixed number of fits from ``--seconds``.
FIT_SECONDS_ESTIMATE = 2.5
#: Programs the distinct inputs are dealt over, and inputs fitted again in
#: one more program to check that a fresh process reproduces them.
PROGRAMS = 2
REPEATS = 2
#: Launches per run, counting the worker programs, for the set-up median.
LAUNCHES = 10
#: Inputs of the traced run, each fitted once untraced and twice traced.
TRACED_INPUTS = 4


def _fit(program: ProgramProcess, data: inputs.XMLInput, seed: int, outcome: Outcome, **extra):
    request = {"op": "fit", "id": data.name, "seed": seed, **FIT, **extra}
    reply, seconds = program.call(request)
    ok = outcome.check("error" not in reply, f"fit {data.name}: {reply.get('error')}")
    return (reply if ok else None), seconds


def run(ctx) -> dict:
    outcome = Outcome()
    distinct = max(2, int(ctx.seconds / FIT_SECONDS_ESTIMATE) - REPEATS)
    count = TRACED_INPUTS if ctx.trace else distinct
    data = [
        inputs.dblp(f"fit-{index}", DOCUMENTS[ctx.size], inputs.sub_seed(ctx.seed, 1, index))
        for index in range(count)
    ]
    seeds = [inputs.sub_seed(ctx.seed, 2, index) for index in range(count)]

    def load(program: ProgramProcess, indices) -> ProgramProcess:
        for index in indices:
            item = data[index]
            reply, _ = program.call({"op": "load", "id": item.name, "texts": item.texts})
            outcome.check("error" not in reply, f"load: {reply.get('error')}")
        return program

    # -- parity contract on a reduced input: numpy == python reference ---- #
    # (this launch also compiles bytecode and fills the page cache, so it
    # is not a set-up sample)
    checker = load(ctx.program(False), [0])
    partitions = {}
    for backend in ("python", "numpy"):
        reply, _ = _fit(
            checker, data[0], seeds[0], outcome, backend=backend, limit=PARITY_DOCUMENTS
        )
        partitions[backend] = canonical(reply["clusters"], reply["trash"]) if reply else None
    outcome.check(
        partitions["python"] is not None and partitions["python"] == partitions["numpy"],
        "numpy partition differs from the python reference on the reduced input",
    )
    checker.close()

    if ctx.trace:
        return _traced(ctx, data, seeds, outcome, load)

    clock = HostSpeed()
    setups: List[float] = []
    seconds: List[float] = []
    rates: List[float] = []
    rss: List[float] = []
    seen: Dict[int, dict] = {}
    f_scores: List[float] = []

    def launch() -> ProgramProcess:
        clock.probe()
        program = ctx.program(False)
        setups.append(program.setup_s)
        return program

    for indices in schedule(distinct, PROGRAMS, REPEATS):
        program = load(launch(), indices)
        for index in indices:
            item = data[index]
            clock.probe()
            reply, elapsed = _fit(program, item, seeds[index], outcome)
            if reply is None:
                continue
            seconds.append(elapsed)
            rates.append(len(item) / elapsed)
            signature = {
                "partition": canonical(reply["clusters"], reply["trash"]),
                "counts": {k: v for k, v in reply["counts"].items() if k in DETERMINISTIC_COUNTS},
            }
            if index not in seen:
                seen[index] = signature
                f_scores.append(inputs.f_measure(item, reply["clusters"], reply["trash"]))
            else:
                outcome.check(
                    signature == seen[index],
                    f"{item.name}: a fresh process fitted a different partition or counts",
                )
        rss.append(program.peak_rss_mb())
        program.close()
    while len(setups) < LAUNCHES:
        launch().close()
    clock.probe()

    metrics = clock.scale({
        "setup_s": median(setups),
        "docs_per_s": median(rates),
        "latency_p50_ms": median(seconds) * 1000.0,
        "latency_p90_ms": percentile(seconds, 0.9) * 1000.0,
        "peak_rss_mb": median(rss),
        "f_measure": sum(f_scores) / max(1, len(f_scores)),
    })
    return result(outcome, metrics, END_TO_END)


def _traced(ctx, data, seeds, outcome, load) -> dict:
    everything = range(len(data))
    plain = load(ctx.program(False), everything)
    traced = [load(ctx.program(True), everything), load(ctx.program(True), everything)]
    reports = []
    counts: Dict[str, float] = {}
    overheads: List[float] = []
    for item, seed in zip(data, seeds):
        _, untraced_seconds = _fit(plain, item, seed, outcome)
        signatures = []
        traced_seconds = []
        for program in traced:
            reply, elapsed = _fit(program, item, seed, outcome)
            report, _ = program.call({"op": "trace"})
            if reply is None:
                continue
            traced_seconds.append(elapsed)
            reports.append(report)
            for name, value in reply["counts"].items():
                counts[name] = counts.get(name, 0) + value
            signature = dict(reply["counts"])
            signature["similarity.assign_pairs"] = report["counters"].get(
                "similarity.assign_pairs", 0
            )
            signatures.append(
                (
                    canonical(reply["clusters"], reply["trash"]),
                    {k: signature.get(k, 0) for k in DETERMINISTIC_COUNTS},
                )
            )
            counts["trash"] = counts.get("trash", 0) + len(reply["trash"])
        outcome.check(
            len(signatures) == 2 and signatures[0] == signatures[1],
            f"{item.name}: traced fits differ (partition or counts)",
        )
        if traced_seconds:
            overheads.append(median(traced_seconds) - untraced_seconds)
    for program in [plain] + traced:
        program.close()
    values = layers.from_report(reports, counts)
    values["trace.overhead_s"] = median(overheads)
    return result(outcome, layers.complete(values), PER_LAYER)
