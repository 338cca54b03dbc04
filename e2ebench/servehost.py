"""Traced launch of ``cxk serve``: the CLI with the layer shims installed.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python3 e2ebench/servehost.py TRACE.json serve --model DIR --port N

Runs ``repro.cli.main`` with the remaining arguments after wrapping the
layer entry points (``tracer.py``).  On SIGTERM the recorded spans,
counters and the loaded models' stats are written to ``TRACE.json`` and
the process exits at once.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import tracer


def _write(recorder: tracer.Recorder, out_path: str) -> None:
    report = recorder.report()
    report["models"] = [model.stats() for model in recorder.loaded_models]
    with open(out_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    os.replace(out_path + ".tmp", out_path)


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    import repro.cli
    import repro.serving  # noqa: F401 - loaded so its names are wrapped too

    recorder = tracer.Recorder()
    tracer.install(recorder)

    def stop(signum, frame):  # noqa: ARG001 - signal handler signature
        # Raising here would not stop the server: the handler can run
        # while wsgiref finishes writing a response, and wsgiref's request
        # handler catches every exception, KeyboardInterrupt included, and
        # serves on.  So write the report here and leave at once.
        _write(recorder, out_path)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    code = repro.cli.main(cli_args)
    _write(recorder, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
