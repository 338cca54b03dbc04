"""Repository benchmark: fit-cxk, serve-classify and stream-ingest.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload fit-cxk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Wall-clock limit of one run (the benchmark must finish well within 180 s).
RUN_LIMIT_SECONDS = 170

WORKLOADS = ("fit-cxk", "serve-classify", "stream-ingest")


class Context:
    """What a workload needs: its arguments, a scratch space, processes."""

    def __init__(self, args, root, workspace, children) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.fault = args.fault
        self.root = root
        self.workspace = workspace
        self.children = children
        self._logs = 0

    def log_path(self) -> str:
        self._logs += 1
        return self.workspace.join(f"child-{self._logs}.log")

    def program(self, trace: bool):
        from common import ProgramProcess

        return ProgramProcess(self.children, self.root, self.log_path(), trace)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the self-test only",
    )
    parser.add_argument(
        "--fault", choices=("none", "wrong-verdict"), default="none",
        help="inject a fault the correctness checks must catch (self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from a repository root holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    # the run and every process it starts share one CPU, so the host-speed
    # probe (common.HostSpeed) times the CPU the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from common import BenchError, Children, Workspace

    def expire(signum, frame):  # noqa: ARG001 - signal handler signature
        raise BenchError(f"run exceeded {RUN_LIMIT_SECONDS} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_LIMIT_SECONDS)
    children = Children()
    workspace = Workspace(root)
    try:
        ctx = Context(args, root, workspace, children)
        if args.workload == "fit-cxk":
            import fit_cxk as workload
        elif args.workload == "serve-classify":
            import serve_classify as workload
        else:
            import stream_ingest as workload
        outcome = workload.run(ctx)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
        workspace.close()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
