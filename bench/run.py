"""The multizeta benchmark: one command per workload, every output checked.

    python3 bench/run.py --workload {verify-all,closed-ladder,quad-session}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it puts ``src/`` on the path, since the
package need not be installed.  Set-up is timed first (``setup_s``: a fresh
interpreter importing ``multizeta.cli`` and answering ``constants pi --prec
16``, median of nine after one warm-up that writes the bytecode cache).
Then whole passes over the workload's requests run until the next pass would
end after ``--seconds`` (at least one pass).  Every output is checked by
``oracle.py`` outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead, taken from one traced pass that follows one
untraced pass, the difference between the two being the tracing overhead.
The lines above it are a readable report with the sample count of every
metric.  An operation is a request, and each row of a ``verify`` report is
one more; ``failed`` counts wrong outputs, wrong exit codes, routes that
disagree, verdicts that differ from the expected table, deadline misses, and
repeated ``--json`` requests whose output is not byte-identical.  Deadline
misses are failures but not wrong outputs, so they leave ``correct`` true.
``ok_frac`` is 1 - failed/attempted: the fail fraction turned round, since
an end-to-end metric must never read 0.  ``baseline.json`` maps each
per-layer metric to the end-to-end metrics it should move and holds the
figures measured on the parent commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mpmath
from mpmath import mpf

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_ARGV = ["-m", "multizeta.cli", "constants", "pi", "--prec", "16"]
SETUP_RUNS = 9
KILL_GRACE_S = 10.0
CHILD_TIMEOUT_S = 150.0
DIGIT_BUCKETS = (30, 50, 80, 200, 1000)


class Pass:
    """What one pass over a workload's requests produced."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.outcomes: list[oracle.Outcome] = []
        self.rss_mb = 0.0
        self.traces: list[dict] = []
        self.open_at_deadline: list[list[str]] = []
        self.verify_rows = 0
        self.repeat_share = 0.0

    def absorb(self, report: dict) -> None:
        self.rss_mb = max(self.rss_mb, report["rss_mb"])
        if report["trace"] is not None:
            self.traces.append(report["trace"])


def _child(root: Path, requests: list, trace: bool, deadline: float | None = None):
    """Serve requests in a fresh session process; (report, seconds, killed)."""
    job = json.dumps({"src": str(root / "src"), "trace": trace, "requests": requests})
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "session.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=root,
    )
    t = perf_counter()
    killed = False
    try:
        out, err = proc.communicate(job, timeout=deadline or CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        killed = True
        proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    seconds = perf_counter() - t
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"session produced no report (exit {proc.returncode}): {err[-2000:]}")
    return json.loads(lines[-1]), seconds, killed


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def verify_pass(root: Path, seed: int, trace: bool) -> Pass:
    del seed  # the verify suite has no seeded inputs
    p = Pass()
    report, _, _ = _child(root, [wl.VERIFY_ARGV], trace)
    p.absorb(report)
    res = report["results"][0]
    p.wall = res["s"]
    p.latencies.append(res["s"])
    p.outcomes.append(oracle.Outcome(res["rc"] == 0, why=f"verify exit code {res['rc']}"))
    try:
        payload = json.loads(res["out"])
    except json.JSONDecodeError:
        payload = {}
    p.verify_rows = len(payload.get("checks", []))
    p.outcomes += oracle.check_verify(payload)
    return p


def quad_pass(root: Path, seed: int, trace: bool) -> Pass:
    p = Pass()
    refs = oracle.load_refs()
    stream = wl.quad_stream(seed)
    argvs = [wl.quad_argv(shape, digits) for shape, digits in stream]
    report, _, _ = _child(root, argvs, trace)
    p.absorb(report)
    first_out: dict[tuple, str] = {}
    for (shape, digits), argv, res in zip(stream, argvs, report["results"]):
        p.latencies.append(res["s"])
        p.wall += res["s"]
        key = tuple(argv)
        if key in first_out and first_out[key] != res["out"]:
            why = f"{' '.join(argv)}: repeat not byte-identical"
            p.outcomes.append(oracle.Outcome(False, why=why))
            continue
        first_out.setdefault(key, res["out"])
        p.outcomes.append(_check_eval(res, argv, digits, lambda _payload, _digits: refs[shape]))
    p.repeat_share = 1 - len(first_out) / len(stream)
    return p


def ladder_pass(root: Path, seed: int, trace: bool) -> Pass:
    p = Pass()
    for argv, digits in wl.ladder_requests(seed):
        report, seconds, killed = _child(root, [argv], trace, deadline=wl.DEADLINE_S)
        p.absorb(report)
        p.latencies.append(seconds)
        p.wall += seconds
        status = "killed" if killed else "done"
        print(f"{digits:>5} digits {seconds:7.3f} s {status}: {' '.join(argv)}")
        if killed:
            p.open_at_deadline.append(report["open"])
            why = f"{' '.join(argv)}: deadline {wl.DEADLINE_S} s missed"
            p.outcomes.append(oracle.Outcome(False, why=why, deadline=True))
            continue
        res = report["results"][0]
        p.outcomes.append(_check_eval(res, argv, digits, _ladder_ref))
    return p


def _ladder_ref(payload: dict, digits: int) -> mpf:
    if "symbolic" in payload:
        return oracle.eval_terms(payload["symbolic"]["terms"], digits)
    return oracle.psi3_quarter(digits)


def _check_eval(res: dict, argv: list, digits: int, ref_of) -> oracle.Outcome:
    """Check one evaluation; ``ref_of(payload, digits)`` gives the reference value."""
    what = " ".join(argv)
    if res["rc"] != 0:
        return oracle.Outcome(False, why=f"{what}: exit code {res['rc']} {res['err'][-300:]}")
    try:
        payload = json.loads(res["out"])
        outcome = oracle.check_payload(payload, ref_of(payload, digits), digits)
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not the payload schema
        return oracle.Outcome(False, why=f"{what}: malformed output ({exc!r})")
    if not outcome.ok:
        outcome.why = f"{what}: {outcome.why}"
    return outcome


PASSES = {
    "verify-all": verify_pass,
    "closed-ladder": ladder_pass,
    "quad-session": quad_pass,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def measure_setup(root: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for i in range(SETUP_RUNS + 1):
        t = perf_counter()
        cp = subprocess.run(
            [sys.executable, *SETUP_ARGV], env=env, cwd=root, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        seconds = perf_counter() - t
        if cp.returncode != 0 or "3.141592653589793" not in cp.stdout:
            raise RuntimeError(f"set-up request failed (exit {cp.returncode}): {cp.stderr[-2000:]}")
        if i:  # the first start compiles the bytecode cache
            times.append(seconds)
    return times


def _p90(values: list[float]) -> float:
    """The 90th percentile; under ten samples there is none, and the median stands in."""
    if len(values) < 10:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    lat = [x for p in passes for x in p.latencies]
    outcomes = [o for p in passes for o in p.outcomes]
    digits = [d for o in outcomes for d in o.digits]
    failed = sum(not o.ok for o in outcomes)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p.wall for p in passes), len(passes)),
        "req_p50_s": (statistics.median(lat), len(lat)),
        "req_p90_s": (_p90(lat), len(lat)),
        "ok_frac": (1 - failed / len(outcomes), len(outcomes)),
        "checked_digits_mean": (statistics.fmean(digits) if digits else 0.0, len(digits)),
        "peak_rss_mb": (max(p.rss_mb for p in passes), len(passes)),
    }


def per_layer(traced: Pass, untraced: Pass) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) from one traced pass."""
    by_fn: dict[str, list] = {}  # "layer.function" -> [calls, self_s, incl_s]
    by_bucket: dict[tuple[str, int], float] = {}  # (layer, request digits) -> self_s
    hp_distinct = series_terms = 0
    digits: list[float] = []
    levels: list[int] = []
    for tr in traced.traces:  # one per session process
        for key, tot in tr["totals"].items():
            name, bucket = key.rsplit("@", 1)
            acc = by_fn.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += tot[i]
            lb = (name.split(".", 1)[0], int(bucket))
            by_bucket[lb] = by_bucket.get(lb, 0.0) + tot[1]
        hp_distinct += tr["hp_distinct"]
        series_terms += tr["series_terms"]
        digits += tr["series_digits"]
        levels += tr["quad_levels"]

    def fn(name, i):
        return by_fn.get(name, [0, 0.0, 0.0])[i]

    def layer(layer_name, i):
        return sum(t[i] for name, t in by_fn.items() if name.split(".", 1)[0] == layer_name)

    evals = {name: t for name, t in by_fn.items() if name.startswith("quadrature.eval:")}
    n_spans = sum(t[0] for t in by_fn.values())
    hp_calls = layer("hp", 0)
    n_evals = sum(t[0] for t in evals.values())
    n_quad = fn("quadrature.integrate01", 0)
    m: dict[str, tuple[float, int]] = {}
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer(name, 1), int(layer(name, 0)))
    m.update({
        "cli.calls": (layer("cli", 0), 1),
        "verify.rows": (traced.verify_rows, 1),
        "closed.calls": (layer("closed", 0), 1),
        "symbolic.build_s": (fn("symbolic.build", 1), int(fn("symbolic.build", 0))),
        "symbolic.eval_s": (fn("symbolic.eval_symbolic", 1), int(fn("symbolic.eval_symbolic", 0))),
        "series.calls": (layer("series", 0), 1),
        "series.terms": (series_terms, len(digits)),
        "series.terms_per_digit": (
            series_terms / sum(digits) if sum(digits) > 0 else 0.0, len(digits)),
        "series.digits_min": (min(digits) if digits else 0.0, len(digits)),
        "quadrature.calls": (n_quad, 1),
        "quadrature.evals": (n_evals, 1),
        "quadrature.eval_s": (sum(t[2] for t in evals.values()), n_evals),
        "quadrature.polylog_eval_s": (sum(t[2] for name, t in evals.items() if "Li_" in name), 1),
        "quadrature.node_s": (fn("quadrature.integrate01", 1), n_quad),
        "quadrature.levels_mean": (statistics.fmean(levels) if levels else 0.0, len(levels)),
        "hp.calls": (hp_calls, 1),
        "hp.distinct_frac": (hp_distinct / hp_calls if hp_calls else 0.0, hp_calls),
        "hp.zeta_single_s": (fn("hp.zeta_single", 1), int(fn("hp.zeta_single", 0))),
        "hp.beta_fn_s": (fn("hp.beta_fn", 1), int(fn("hp.beta_fn", 0))),
        "hp.psi3_quarter_s": (fn("hp.psi3_quarter", 1), int(fn("hp.psi3_quarter", 0))),
    })
    for d in DIGIT_BUCKETS:
        m[f"hp.self_s.d{d}"] = (by_bucket.get(("hp", d), 0.0), 1)
    opened = [stack[-1].split(".", 1)[0] if stack else "none" for stack in traced.open_at_deadline]
    m["deadline.misses"] = (len(opened), 1)
    for name in LAYERS:
        m[f"deadline.open_in.{name}"] = (opened.count(name), len(opened))
    m["trace.wall_s"] = (traced.wall, 1)
    m["trace.untraced_wall_s"] = (untraced.wall, 1)
    m["trace.overhead_frac"] = (traced.wall / untraced.wall - 1, 1)
    m["trace.spans"] = (n_spans, 1)
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    run_pass = PASSES[workload]
    print("machine:", json.dumps(machine_facts()))
    if trace:
        untraced = run_pass(root, seed, False)
        traced = run_pass(root, seed, True)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced)
    else:
        setup = measure_setup(root)
        passes = []
        t = perf_counter()
        while True:
            start = perf_counter()
            passes.append(run_pass(root, seed, False))
            if perf_counter() - t + (perf_counter() - start) > seconds:
                break
        metrics = end_to_end(passes, setup)
        print("pass seconds:", ", ".join(f"{p.wall:.3f}" for p in passes))

    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    outcomes = [o for p in passes for o in p.outcomes]
    for o in outcomes:
        if not o.ok:
            print("FAILED:", o.why)
    if workload == "quad-session":
        print(f"repeat share: {passes[-1].repeat_share:.3f} of requests repeat an earlier"
              " (request, digits) pair")
    if trace:
        shares = {n: metrics[f"{n}.self_s"][0] for n in LAYERS}
        total = sum(shares.values()) or 1.0
        print("layer self-time shares:",
              ", ".join(f"{n} {v / total:.1%}" for n, v in shares.items()))
    for d in declared:
        value, n = metrics[d["name"]]
        print(f"{d['name']:<28} {value:>14.6g} {d['unit']:<12} n={n}")
    return {
        "correct": all(o.ok or o.deadline for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {
            d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]} for d in declared
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "multizeta" / "cli.py").is_file():
        print(f"no multizeta sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
