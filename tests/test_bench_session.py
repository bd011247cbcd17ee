"""What the benchmark reads from the package: its session launcher serves CLI
requests with the outside-in tracer installed, and the tracer finds the
layer functions, result fields and integrand names it measures.

This test only runs ``bench/session.py`` as a script; it imports nothing
from ``bench/`` and writes no bytecode there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REQUESTS = [
    ["oddsum", "O", "2", "3", "--method", "quadrature", "--prec", "20", "--json"],
    ["tvalue", "3", "2", "--method", "all", "--prec", "20", "--json"],
]


def test_traced_session_sees_every_layer():
    job = {"src": str(ROOT / "src"), "trace": True, "requests": REQUESTS}
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "session.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [r["rc"] for r in report["results"]] == [0, 0], report["results"]
    assert not report["killed"]
    trace = report["trace"]
    assert trace["quad_levels"] and trace["series_digits"]
    spans = {key.rsplit("@", 1)[0] for key in trace["totals"]}
    for name in ("closed.evaluate", "symbolic.build", "symbolic.eval_symbolic",
                 "series.nested_value"):
        assert name in spans, sorted(spans)
    assert any(s.startswith("quadrature.eval:") and "Li_" in s for s in spans), sorted(spans)
