"""Benchmark-side plumbing shared by the three workloads."""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import numpy

from tracer import percentile

HERE = os.path.dirname(os.path.abspath(__file__))


def _declared_metrics():
    """Names and units of the metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    )


#: End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
#: name -> unit.
END_TO_END, PER_LAYER = _declared_metrics()

#: Counts that must repeat exactly for one input within and across runs.
DETERMINISTIC_COUNTS = (
    "transactions.count",
    "similarity.assign_pairs",
    "network.messages",
    "corpus_store.blocks",
    "streaming.re_refinements",
    "similarity.compiled",
)


class BenchError(RuntimeError):
    """A failure that leaves no result to report."""


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, passed: bool, reason: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return passed


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Time of one host-speed kernel (below) on the host the benchmark was
#: built on, in a calm phase.  Timings are reported at that speed.
REFERENCE_KERNEL_S = 0.005


def _kernel() -> int:
    """Fixed interpreter and small-array work, independent of the program."""
    table: Dict[str, int] = {}
    for index in range(12000):
        key = f"k{index % 997}"
        table[key] = table.get(key, 0) + index
    words = " ".join(table).split()
    words.sort()
    matrix = numpy.arange(4096, dtype=numpy.float64).reshape(64, 64)
    for _ in range(40):
        matrix = numpy.sqrt(matrix @ matrix.T * 1e-9 + 1.0)
    return len(words)


class HostSpeed:
    """Rescales a run's timings to the reference host speed.

    The shared host this benchmark was built on changes the speed of each
    CPU by a quarter and more, both from one second to the next and over
    minutes.  So a run is pinned to one CPU (``run.py``), and the
    benchmark times a fixed kernel of its own on it between the
    operations it measures, spread over the whole run, and reports each
    timing multiplied by ``REFERENCE_KERNEL_S`` over the mean kernel time
    of the run (rates divided by it).  The kernel does not touch the
    program, so a faster program still reads faster.
    """

    #: Kernel runs per probe.
    RUNS = 2

    def __init__(self) -> None:
        _kernel()
        self.samples: List[float] = []

    def probe(self) -> None:
        for _ in range(self.RUNS):
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference over measured speed, averaged over the run.

        A mean, not a median: the work was slowed by the average
        slowness.  The top and bottom twentieth of the samples are
        dropped, so one long interruption does not dominate it.
        """
        ordered = sorted(self.samples)
        trim = len(ordered) // 20
        kept = ordered[trim : len(ordered) - trim]
        return REFERENCE_KERNEL_S / (sum(kept) / len(kept))

    def scale(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """Rescale the timings in *metrics*; print the unscaled ones."""
        factor = self.factor()
        print(
            "unscaled: " + " ".join(f"{name}={value:.4g}" for name, value in metrics.items())
            + f"; host kernel {REFERENCE_KERNEL_S / factor * 1000:.2f} ms over "
            f"{len(self.samples)} samples (reference {REFERENCE_KERNEL_S * 1000:.2f} ms)",
            file=sys.stderr,
        )
        scaled = dict(metrics)
        for name, unit in END_TO_END.items():
            if unit in ("s", "ms"):
                scaled[name] = metrics[name] * factor
            elif unit == "1/s":
                scaled[name] = metrics[name] / factor
        return scaled


class Workspace:
    """A scratch directory inside the checkout, removed at the end."""

    def __init__(self, root: str) -> None:
        base = os.path.join(root, ".e2ebench-work")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)

    def join(self, *parts: str) -> str:
        return os.path.join(self.path, *parts)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def directory_bytes(path: str) -> int:
    """Total size of the files under *path* (layout-agnostic)."""
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Children:
    """Every process the run starts, so all can be stopped on any exit."""

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []

    def start(self, argv: List[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, **kwargs)
        self.processes.append(process)
        return process

    def stop(self, process: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
        if process.poll() is None:
            process.send_signal(sig)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()

    def stop_all(self) -> None:
        for process in self.processes:
            self.stop(process, signal.SIGKILL)
        self.processes.clear()


class ProgramProcess:
    """One launch of ``program.py``; its set-up time is launch to ready."""

    def __init__(self, children: Children, root: str, log_path: str, trace: bool) -> None:
        argv = [sys.executable, os.path.join(HERE, "program.py")]
        if trace:
            argv.append("--trace")
        self.children = children
        self.log = open(log_path, "ab")
        start = time.perf_counter()
        self.process = children.start(
            argv,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            bufsize=1,
        )
        ready = self._read()
        self.setup_s = time.perf_counter() - start
        if not ready.get("ready"):
            raise BenchError(f"program did not start: {ready}")

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise BenchError(
                f"program exited with code {self.process.poll()}; see {self.log.name}"
            )
        return json.loads(line)

    def call(self, request: dict) -> tuple:
        """Send one request; return ``(reply, seconds)`` timed from outside."""
        payload = json.dumps(request) + "\n"
        start = time.perf_counter()
        self.process.stdin.write(payload)
        self.process.stdin.flush()
        reply = self._read()
        return reply, time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.process.stdin.flush()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.children.stop(self.process)
        self.log.close()


def schedule(distinct: int, programs: int, repeats: int) -> List[List[int]]:
    """Input indices each launched program runs, in launch order.

    The distinct inputs are dealt round-robin over *programs*; one more
    program then runs the first *repeats* inputs again, so every run
    checks that a fresh process reproduces them.
    """
    plan = [list(range(first, distinct, programs)) for first in range(programs)]
    return plan + [list(range(min(repeats, distinct)))]


def canonical(clusters: List[List[str]], trash: List[str]) -> list:
    return [sorted(cluster) for cluster in clusters] + [sorted(trash)]


def result(outcome: Outcome, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    missing = [name for name in units if name not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for reason in outcome.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
