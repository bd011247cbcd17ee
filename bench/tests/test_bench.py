"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q

The verify-all test runs the full traced suite and takes about half a
minute; the rest take a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_trace() -> dict:
    return {
        "totals": {"hp.zeta_single@50": [3, 0.5, 0.5], "quadrature.integrate01@30": [1, 0.1, 0.2],
                   "quadrature.eval:I(3)@30": [9, 0.1, 0.1], "series.mzv_series@50": [1, 2.0, 2.0]},
        "hp_distinct": 1, "series_terms": 3000, "series_digits": [6.0],
        "quad_levels": [6],
    }


def _pass(trace=None, **fields) -> run.Pass:
    p = run.Pass()
    p.wall, p.latencies, p.rss_mb = 1.0, [0.5, 0.5], 20.0
    p.outcomes = [oracle.Outcome(True, [30.0])]
    p.traces = [trace] if trace else []
    for k, v in fields.items():
        setattr(p, k, v)
    return p


def test_every_metric_name_is_well_formed_and_emitted():
    e2e = run.end_to_end([_pass()], [0.2, 0.3])
    layers = run.per_layer(_pass(_fake_trace()), _pass())
    for declared, emitted in ((SPEC["end_to_end"], e2e), (SPEC["per_layer"], layers)):
        names = [d["name"] for d in declared]
        assert sorted(names) == sorted(emitted)
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name


def _served(monkeypatch, edit):
    """Run the real session child, then let `edit` alter its report."""
    real = run._child

    def child(*args, **kwargs):
        report, seconds, killed = real(*args, **kwargs)
        edit(report)
        return report, seconds, killed

    monkeypatch.setattr(run, "_child", child)


def test_perturbed_value_is_counted_in_fail_frac(monkeypatch):
    stream = [("integral I 3", 30), ("integral J 2", 30)]
    monkeypatch.setattr(wl, "quad_stream", lambda seed: stream)
    good = run.quad_pass(ROOT, 1, False)
    assert [o.ok for o in good.outcomes] == [True, True]

    def perturb(report):
        res = report["results"][1]
        payload = json.loads(res["out"])
        v = payload["routes"][1]["value"]
        payload["routes"][1]["value"] = v[:20] + ("1" if v[20] != "1" else "2") + v[21:]
        res["out"] = json.dumps(payload, indent=2)

    _served(monkeypatch, perturb)
    bad = run.quad_pass(ROOT, 1, False)
    assert [o.ok for o in bad.outcomes] == [True, False]
    assert "outside its bound" in bad.outcomes[1].why
    assert run.end_to_end([bad], [0.2])["ok_frac"][0] == 0.5


def test_repeat_that_is_not_byte_identical_is_a_failure(monkeypatch):
    monkeypatch.setattr(wl, "quad_stream", lambda seed: [("integral K 2", 30)] * 2)

    def reformat(report):
        res = report["results"][1]
        res["out"] = json.dumps(json.loads(res["out"]))  # same content, other bytes

    _served(monkeypatch, reformat)
    p = run.quad_pass(ROOT, 1, False)
    assert [o.ok for o in p.outcomes] == [True, False]
    assert p.repeat_share == 0.5


@pytest.mark.parametrize("trace", [False, True])
def test_deadline_miss_is_counted_not_dropped(monkeypatch, trace):
    argv = ["constants", "psi3_quarter", "--method", "closed", "--prec", "1000", "--json"]
    monkeypatch.setattr(wl, "ladder_requests", lambda seed: [(argv, 1000)])
    monkeypatch.setattr(wl, "DEADLINE_S", 1.0)
    p = run.ladder_pass(ROOT, 1, trace)
    assert len(p.outcomes) == 1 and not p.outcomes[0].ok and p.outcomes[0].deadline
    assert p.latencies[0] >= 1.0
    metrics = run.end_to_end([p], [0.2])
    assert metrics["ok_frac"] == (0.0, 1)
    if trace:
        assert p.open_at_deadline[0][-1].startswith("hp.")
        layers = run.per_layer(p, p)
        assert layers["deadline.misses"][0] == 1
        assert layers["deadline.open_in.hp"][0] == 1
        assert layers["hp.self_s.d1000"][0] > 0.5


def test_tracer_leaves_verify_all_verdicts_unchanged():
    p = run.verify_pass(ROOT, 1, True)
    assert p.verify_rows == len(oracle.VERIFY_ROWS)
    assert all(o.ok for o in p.outcomes), [o.why for o in p.outcomes if not o.ok]
    layers = run.per_layer(p, p)
    shares = {name: layers[f"{name}.self_s"][0] for name in run.LAYERS}
    assert max(shares, key=shares.get) == "series"


def test_quad_stream_is_seeded_and_stratified():
    a, b = wl.quad_stream(7), wl.quad_stream(8)
    assert a == wl.quad_stream(7) and a != b
    assert len(a) >= 100
    assert sorted(d for _, d in a) == sorted(d for _, d in b)
    polylog = [s for s, _ in a if s.startswith("oddsum")]
    assert len(polylog) == len([s for s, _ in b if s.startswith("oddsum")])
    assert set(s for s, _ in a) <= set(oracle.load_refs())


@pytest.mark.parametrize(
    "shape", ["integral I 3", "integral J 2", "integral K 2", "tvalue 3 2", "mu 2 1"]
)
def test_reference_table_matches_mpmath(shape):
    with mp.workdps(40):
        assert abs(oracle.reference(shape) - oracle.load_refs()[shape]) < mpf(10) ** -35


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cp = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert cp.returncode != 0
    assert cp.stdout.strip() == ""
