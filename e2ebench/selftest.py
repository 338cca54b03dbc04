"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 e2ebench/selftest.py

Checks that every workload, untraced and traced, prints exactly the
metrics ``BENCHMARK.json`` declares with their units and passes its
correctness checks; that a deliberately wrong served verdict is counted
as a failed operation; and that outside a repository checkout the
benchmark exits non-zero without printing a result.  Exits 0 when all
checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: str, workload: str, trace: int, *extra: str):
    argv = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "2", "--trace", str(trace), *extra]
    process = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = process.stdout.strip().splitlines()
    return process.returncode, (json.loads(lines[-1]) if lines else None), process.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, result, stderr = _run(ROOT, workload, trace, "--size", "tiny")
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}\n{stderr[-1500:]}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            units = {name: value["unit"] for name, value in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            print(f"ok   {label}: {result['attempted']} operations", flush=True)

    code, result, _ = _run(ROOT, "serve-classify", 0, "--size", "tiny", "--fault", "wrong-verdict")
    if code != 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append("a wrong served verdict was not counted as a failed operation")
    else:
        print(f"ok   wrong served verdict: {result['failed']} failed operations", flush=True)

    work = os.path.join(ROOT, ".e2ebench-work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = _run(bare, "fit-cxk", 0)
        if code == 0 or result is not None:
            problems.append("outside a checkout the benchmark did not fail cleanly")
        else:
            print(f"ok   outside a checkout: exit {code}, no result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
