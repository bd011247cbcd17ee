"""Benchmark-owned launcher: serves multizeta CLI requests in one interpreter.

Reads one job as JSON on stdin:

    {"src": "<dir holding the multizeta package>", "trace": false,
     "requests": [["integral", "I", "3", "--prec", "30", "--json"], ...]}

and passes each argv to ``multizeta.cli.main`` in order, with stdout and
stderr captured and each call timed.  It prints one JSON object on stdout:

    {"results": [{"rc": 0, "out": "...", "err": "", "s": 0.031}, ...],
     "killed": false, "open": [], "rss_mb": 41.2, "trace": null}

With ``"trace": true`` the outside-in tracer is installed first and
``"trace"`` holds its per-function totals, bucketed by each request's
``--prec``.  On SIGTERM (the benchmark's per-request deadline) the request in
progress is abandoned, and the report still comes out, naming in ``"open"``
the layer spans that were open when the deadline hit.

Run as ``python3 bench/session.py < job.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter

from tracer import Tracer  # this script's directory is first on sys.path

KILLED_EXIT = 124


def _prec_of(argv: list[str]) -> int:
    return int(argv[argv.index("--prec") + 1]) if "--prec" in argv else 50


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def serve(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    tracer = Tracer() if job.get("trace") else None
    from multizeta import cli

    if tracer is not None:
        tracer.install()
    results: list[dict] = []
    report = {"results": results, "killed": False, "open": [], "rss_mb": 0.0, "trace": None}

    def finish() -> dict:
        if tracer is not None:
            tracer.flush()
            report["trace"] = tracer.summary()
        report["rss_mb"] = _rss_mb()
        return report

    def on_deadline(signum, frame):
        report["killed"] = True
        report["open"] = tracer.open_layers() if tracer is not None else []
        sys.__stdout__.write(json.dumps(finish()) + "\n")
        sys.__stdout__.flush()
        os._exit(KILLED_EXIT)

    signal.signal(signal.SIGTERM, on_deadline)
    for argv in job["requests"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.bucket = _prec_of(argv)
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, reported, not fatal
            rc = -1
            err.write(traceback.format_exc())
        s = perf_counter() - t
        if tracer is not None:
            tracer.flush()
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": s})
    return finish()


if __name__ == "__main__":
    sys.stdout.write(json.dumps(serve(json.load(sys.stdin))) + "\n")
