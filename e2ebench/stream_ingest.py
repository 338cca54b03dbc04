"""stream-ingest: out-of-core streaming into a block corpus store.

Why: it is the store-write side (``BlockCorpusStore.append_block`` beside
``extend_corpus`` delta compiles), its front end runs in batches (each
chunk is parsed and built with ``build_dataset``), and its kernel sees
mid-size blocks.

Each stream is DBLP documents followed by one chunk of short Shakespeare
plays.  The shift fills the retained set and fires a re-refinement,
which is the slow chunk ``latency_p90_ms`` lands on: per stream one
chunk in six is that chunk, so p90 falls inside those chunks.  A run
replays distinct streams (sub-seeds of the run seed), as many as
``--seconds`` allows, dealt over two launched programs; a third program
replays the first two again, which must reproduce their counts.
Timings are rescaled to the reference host speed (``HostSpeed``), probed
before every chunk.
"""

from __future__ import annotations

import shutil
from typing import Dict, List, Optional

import inputs
import layers
from common import (
    DETERMINISTIC_COUNTS,
    END_TO_END,
    PER_LAYER,
    HostSpeed,
    Outcome,
    ProgramProcess,
    directory_bytes,
    median,
    percentile,
    result,
    schedule,
)

#: gamma=0.5 keeps DBLP chunks above the retain threshold, so only the
#: shift to Shakespeare fills the retained set (drift_threshold=1.0).
STREAM = {
    "k": 8, "f": 0.5, "gamma": 0.5, "max_iterations": 6, "backend": "numpy",
    "chunk_size": 32, "retain_threshold": 0.1, "drift_threshold": 1.0,
}
DBLP_DOCUMENTS = {"full": 160, "tiny": 64}
PLAYS = {"full": 32, "tiny": 32}
#: Seconds one stream takes on a 2-vCPU host, launches and transfers
#: included; sizes the fixed number of streams a run replays from
#: ``--seconds``.
STREAM_SECONDS_ESTIMATE = 2.0
#: Programs the distinct streams are dealt over, and streams replayed
#: again in one more program to check that a fresh process reproduces
#: their counts.
PROGRAMS = 2
REPEATS = 2
LAUNCHES = 10
#: Streams of the traced run, each replayed once untraced and twice traced.
TRACED_STREAMS = 3


def make_stream(seed: int, index: int, size: str) -> inputs.XMLInput:
    # the plays come from consecutive corpus seeds; spacing the base seeds
    # by 16 keeps the streams of one run from sharing plays
    return inputs.concatenate(
        f"stream-{index}",
        [
            inputs.dblp("dblp", DBLP_DOCUMENTS[size], inputs.sub_seed(seed, 3, index)),
            inputs.shakespeare_plays("plays", PLAYS[size], inputs.sub_seed(seed, 4, index) * 16),
        ],
    )


class StreamRun:
    """One replay of one stream on one program."""

    def __init__(self, program: ProgramProcess, data: inputs.XMLInput, seed: int,
                 store_dir: str, outcome: Outcome, clock: Optional[HostSpeed]) -> None:
        self.chunk_seconds: List[float] = []
        self.seconds = 0.0
        self.reply = None
        request = {"op": "stream_open", "id": data.name, "seed": seed,
                   "store_dir": store_dir, **STREAM}
        if clock is not None:
            clock.probe()
        opened, elapsed = program.call(request)
        if not outcome.check("error" not in opened, f"{data.name}: {opened.get('error')}"):
            return
        self.seconds += elapsed
        transactions = items = 0
        for index in range(opened["chunks"]):
            if clock is not None:
                clock.probe()
            reply, elapsed = program.call({"op": "chunk", "index": index})
            if not outcome.check("error" not in reply, f"{data.name} chunk {index}: {reply.get('error')}"):
                return
            self.chunk_seconds.append(elapsed)
            self.seconds += elapsed
            transactions += reply["transactions"]
            items += reply["items"]
        closed, elapsed = program.call({"op": "stream_close"})
        store_bytes = directory_bytes(store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
        if not outcome.check("error" not in closed, f"{data.name} close: {closed.get('error')}"):
            return
        self.seconds += elapsed
        ids = [tid for cluster in closed["clusters"] for tid in cluster] + closed["trash"]
        outcome.check(
            len(ids) == transactions and len(set(ids)) == transactions,
            f"{data.name}: {transactions} transactions ingested but {len(ids)} "
            f"placed ({len(set(ids))} distinct) in clusters and trash",
        )
        outcome.check(
            closed["counts"]["streaming.re_refinements"] >= 1,
            f"{data.name}: the source shift fired no re-refinement",
        )
        closed["counts"]["transactions.count"] = transactions
        closed["counts"]["transactions.items"] = items
        closed["counts"]["corpus_store.bytes"] = store_bytes
        self.reply = closed

    def signature(self, extra: Dict[str, float]) -> Dict[str, float]:
        """The counts that must repeat in every replay of this stream.

        Partitions are not compared across processes: each chunk's
        ``build_dataset`` numbers its terms in ``set`` iteration order, so
        term ids of different chunks disagree in a way that depends on
        the process's hash seed, and so do the assignments that compare
        them (see README.md).
        """
        counts = dict(self.reply["counts"], **extra)
        return {name: counts.get(name, 0) for name in DETERMINISTIC_COUNTS}


def run(ctx) -> dict:
    outcome = Outcome()
    distinct = max(1, int(ctx.seconds / STREAM_SECONDS_ESTIMATE) - REPEATS)
    count = TRACED_STREAMS if ctx.trace else distinct
    streams = [make_stream(ctx.seed, index, ctx.size) for index in range(count)]
    seeds = [inputs.sub_seed(ctx.seed, 5, index) for index in range(count)]
    stores = iter(range(10**6))

    def launch(trace: bool, indices) -> ProgramProcess:
        program = ctx.program(trace)
        for index in indices:
            item = streams[index]
            reply, _ = program.call({"op": "load", "id": item.name, "texts": item.texts})
            outcome.check("error" not in reply, f"load: {reply.get('error')}")
        return program

    def replay(program: ProgramProcess, index: int, clock: Optional[HostSpeed] = None) -> StreamRun:
        store = ctx.workspace.join(f"store-{next(stores)}")
        return StreamRun(program, streams[index], seeds[index], store, outcome, clock)

    # warm-up launch: compiles bytecode and fills the page cache, untimed
    launch(False, []).close()

    if ctx.trace:
        return _traced(streams, outcome, launch, replay)

    clock = HostSpeed()
    setups: List[float] = []
    chunk_seconds: List[float] = []
    rates: List[float] = []
    rss: List[float] = []
    seen: Dict[int, dict] = {}
    f_scores: List[float] = []
    for indices in schedule(distinct, PROGRAMS, REPEATS):
        clock.probe()
        program = launch(False, indices)
        setups.append(program.setup_s)
        for index in indices:
            item = streams[index]
            replayed = replay(program, index, clock)
            if replayed.reply is None:
                continue
            chunk_seconds.extend(replayed.chunk_seconds)
            rates.append(len(item) / replayed.seconds)
            f_scores.append(inputs.f_measure(item, replayed.reply["clusters"], replayed.reply["trash"]))
            signature = replayed.signature({})
            if index not in seen:
                seen[index] = signature
            else:
                outcome.check(
                    signature == seen[index],
                    f"{item.name}: a fresh process replayed different counts",
                )
        rss.append(program.peak_rss_mb())
        program.close()
    while len(setups) < LAUNCHES:
        clock.probe()
        program = ctx.program(False)
        setups.append(program.setup_s)
        program.close()
    clock.probe()

    metrics = clock.scale({
        "setup_s": median(setups),
        "docs_per_s": median(rates),
        "latency_p50_ms": median(chunk_seconds) * 1000.0,
        "latency_p90_ms": percentile(chunk_seconds, 0.9) * 1000.0,
        "peak_rss_mb": median(rss),
        "f_measure": sum(f_scores) / max(1, len(f_scores)),
    })
    return result(outcome, metrics, END_TO_END)


def _traced(streams, outcome, launch, replay) -> dict:
    everything = range(len(streams))
    plain = launch(False, everything)
    traced = [launch(True, everything), launch(True, everything)]
    reports = []
    counts: Dict[str, float] = {}
    overheads: List[float] = []
    for index, item in enumerate(streams):
        baseline = replay(plain, index)
        signatures = []
        for program in traced:
            replayed = replay(program, index)
            report, _ = program.call({"op": "trace"})
            if replayed.reply is None:
                continue
            reports.append(report)
            pairs = report["counters"].get("similarity.assign_pairs", 0)
            signatures.append(replayed.signature({"similarity.assign_pairs": pairs}))
            for name, value in replayed.reply["counts"].items():
                if name == "streaming.retained_peak":
                    counts[name] = max(counts.get(name, 0), value)
                else:
                    counts[name] = counts.get(name, 0) + value
            counts["trash"] = counts.get("trash", 0) + len(replayed.reply["trash"])
            overheads.extend(
                traced_s - plain_s
                for traced_s, plain_s in zip(replayed.chunk_seconds, baseline.chunk_seconds)
            )
        outcome.check(
            len(signatures) == 2 and signatures[0] == signatures[1],
            f"{item.name}: traced replay counts differ",
        )
    for program in [plain] + traced:
        program.close()
    values = layers.from_report(reports, counts)
    values["trace.overhead_s"] = median(overheads)
    return result(outcome, layers.complete(values), PER_LAYER)
