"""The stop rule of ``quadrature.integrate01``.

Tanh-sinh roughly doubles its correct digits per level, and integrate01
stops at level k >= 2 once that model puts the error of T_k below the
working precision's unit (see its docstring), one level before two
successive totals agree.  Here the rule is driven by prescribed level sums,
every kernel family is held to its bound against a closed form or against
the rule that computes one more level to see two totals agree, at 20 more
digits, and integrands the kernels do not cover (algebraic endpoints, near
poles, oscillation) are held to theirs.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from multizeta import quadrature
from multizeta.hp import GUARD_DIGITS, HPReal
from multizeta.quadrature import QuadratureNonConvergence, QuadratureResult, integrate01
from multizeta.routes import routes

# ---------------------------------------------------------------------------
# the rule on prescribed totals
# ---------------------------------------------------------------------------

_SCALE = 400  # bits: every prescribed level sum is an integer times 2^-400


def run_totals(monkeypatch, totals, prec=16):
    """integrate01 at prec over level sums making the running totals T_0,
    T_1, ... equal ``totals`` (dyadic Fractions): T_k = T_(k-1)/2 + 2^-k S_k."""
    sums, prev = [], Fraction(0)
    for level, t in enumerate(totals):
        s = (t - prev / 2) * 2 ** (level + _SCALE)
        assert s.denominator == 1
        sums.append((int(s), -_SCALE))
        prev = t
    it = iter(sums)
    monkeypatch.setattr(quadrature, "_level_sum", lambda table, ev: next(it))
    return integrate01(lambda x, xc: 0, prec)


def near_one(*exponents):
    """1 + 2^-a for each a (None: 1 itself)."""
    return [Fraction(1) + (Fraction(1, 2 ** a) if a is not None else 0) for a in exponents]


def test_doubling_gaps_stop_one_level_early(monkeypatch):
    # at 16 digits (wd 26, tolerance 1e-19): gaps 1.2e-7 then 7.1e-15 double
    # the digits, and D1 min(D1/D2, 2) = -28.3 clears -26
    r = run_totals(monkeypatch, near_one(23, 47, None, None))
    assert r.levels_used == 3
    assert r.value.magnitude == 1
    with mp.workdps(16 + GUARD_DIGITS):
        assert r.error_bound.magnitude == mpf(10) ** -25  # the floor |T| 10^(1-wd)
    assert r.rigorous is False


def test_slow_gaps_wait_for_two_totals_to_agree(monkeypatch):
    # at level 3 the gaps are 2.3e-13 and 2.2e-19: their estimate 10^-27.5
    # would clear the unit, but the digits grow 1.48 times, not doubling
    r = run_totals(monkeypatch, near_one(32, 42, 62, None, None))
    assert r.levels_used == 5
    monkeypatch.undo()
    # each gap a factor 2^-10 below the last
    assert run_totals(monkeypatch, near_one(23, 33, 43, 53, 63, 63)).levels_used == 6


def test_a_model_estimate_above_the_unit_does_not_stop(monkeypatch):
    # gaps 3e-5, 9e-10 double, but their estimate 1e-18 is above 1e-26; the
    # next pair (9e-10, 9e-19) estimates 1e-36
    r = run_totals(monkeypatch, near_one(15, 30, 60, None, None))
    assert r.levels_used == 4


def test_a_zero_total_or_a_repeated_one_skips_the_model(monkeypatch):
    # T_2 = 0 and T_2 = T_0 leave no relative gap to take the log of
    tiny = [Fraction(1, 2 ** 23), Fraction(1, 2 ** 47), Fraction(0), Fraction(0)]
    assert run_totals(monkeypatch, tiny).levels_used == 4
    monkeypatch.undo()
    assert run_totals(monkeypatch, near_one(None, 40, None, None)).levels_used == 4


@pytest.mark.parametrize("cap", [0, 1])
def test_the_model_never_stops_from_two_levels(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "LEVEL_CAP", cap)
    with pytest.raises(QuadratureNonConvergence) as exc:
        run_totals(monkeypatch, near_one(23, 47))
    assert exc.value.best.levels_used == cap + 1


@pytest.mark.parametrize("cap", [0, 1])
def test_a_kernel_still_raises_under_a_cap_of_one_or_two_levels(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "LEVEL_CAP", cap)
    with pytest.raises(QuadratureNonConvergence):
        quadrature.I_quad.__wrapped__(3, 16)


def test_the_saving_at_fifty_digits():
    # five levels, 339 nodes; confirming with a sixth took 677
    assert quadrature.I_quad(3, 50).levels_used == 6


# ---------------------------------------------------------------------------
# every kernel family within its bound
# ---------------------------------------------------------------------------


def confirmed(f, prec):
    """integrate01's levels until two successive totals agree to
    10^(-prec-3): the rule that computes one level past the model."""
    wd = prec + GUARD_DIGITS
    with mp.workdps(wd):
        total, prev = mpf(0), None
        for level in range(quadrature.LEVEL_CAP + 1):
            acc, E = quadrature._level_sum(quadrature._cached_nodes(level, wd), f.evaluator)
            total = total / 2 + mp.ldexp(mpf(acc), E - level)
            if prev is not None and abs(total - prev) <= mpf(10) ** (-prec - 3) * max(1, abs(total)):
                bound = 10 * abs(total - prev) + abs(total) * mpf(10) ** (1 - wd)
                return QuadratureResult(HPReal(total, prec), HPReal(bound, prec), False,
                                        levels_used=level + 1)
            prev = total
    raise AssertionError(f"{f.name} did not converge")


def reference(name, args, prec, monkeypatch):
    """The kernel's value at prec: its closed form where a route has one,
    else the kernel integrated by ``confirmed``."""
    closed = {
        "I_quad": ("integral", ("I", *args)),
        "logsine_check": ("integral", ("I", *args)),
        "j_cot": ("integral", ("J", *args)),
        "k_arctanh": ("integral", ("K", *args)),
        "t_kernel_quad": ("tvalue", (3,) + (2,) * args[0]),
    }.get(name)
    if name == "kernel_pair":
        closed = ("oddsum", ("O" if args[2] == -1 else "B", *args[:2]))
    if closed is not None and "closed" in (found := routes(*closed, prec)):
        return found["closed"]().value.magnitude
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate01", confirmed)
        return getattr(quadrature, name).__wrapped__(*args, prec).value.magnitude


FAMILIES = (
    [("I_quad", (n,)) for n in range(1, 9)]
    + [("j_cot", (n,)) for n in range(1, 7)]
    + [("logsine_check", (n,)) for n in range(1, 7)]
    + [("k_arctanh", (n,)) for n in range(1, 6)]
    + [("t_kernel_quad", (n,)) for n in range(1, 5)]
    + [("kernel_pair", (p, q, s)) for p in range(2, 5) for q in range(2, 5) for s in (1, -1)]
)


def family_id(case):
    name, args = case
    return f"{name}{args}".replace(" ", "")


@pytest.mark.parametrize("prec", [16, 30, 50, 100, 200])
@pytest.mark.parametrize("case", FAMILIES, ids=family_id)
def test_a_kernel_lies_within_its_bound(case, prec, monkeypatch):
    name, args = case
    got = getattr(quadrature, name)(*args, prec)
    want = reference(name, args, prec + 20, monkeypatch)
    with mp.workdps(prec + GUARD_DIGITS + 20):
        assert abs(got.value.magnitude - want) <= got.error_bound.magnitude


# ---------------------------------------------------------------------------
# integrands beyond the kernels
# ---------------------------------------------------------------------------

# (name, evaluator(x, xc), exact value thunk), evaluated at the working digits
INTEGRANDS = [
    ("x^-1/2", lambda x, xc: 1 / mp.sqrt(x), lambda: mpf(2)),
    ("log x/sqrt x", lambda x, xc: mp.log(x) / mp.sqrt(x), lambda: mpf(-4)),
    ("(1-x)^-1/2", lambda x, xc: 1 / mp.sqrt(xc), lambda: mpf(2)),
    ("1/(1+100x^2)", lambda x, xc: 1 / (1 + 100 * x * x), lambda: mp.atan(10) / 10),
    ("1/(1+10^4x^2)", lambda x, xc: 1 / (1 + 10 ** 4 * x * x), lambda: mp.atan(100) / 100),
    ("cos 30x", lambda x, xc: mp.cos(30 * x), lambda: mp.sin(30) / 30),
    ("cos 200x", lambda x, xc: mp.cos(200 * x), lambda: mp.sin(200) / 200),
    ("e^-50x", lambda x, xc: mp.exp(-50 * x), lambda: -mp.expm1(-50) / 50),
    ("x^9.5 log x", lambda x, xc: x ** mpf(9.5) * mp.log(x), lambda: -1 / mpf(10.5) ** 2),
    ("1/(x+10^-6)", lambda x, xc: 1 / (x + mpf(10) ** -6), lambda: mp.log(10 ** 6 + 1)),
]


@pytest.mark.parametrize("prec", [30, 50, 100])
@pytest.mark.parametrize("name, ev, exact", INTEGRANDS, ids=[c[0] for c in INTEGRANDS])
def test_an_integrand_lies_within_its_bound(name, ev, exact, prec):
    r = integrate01(ev, prec)
    with mp.workdps(prec + GUARD_DIGITS + 20):
        assert abs(r.value.magnitude - exact()) <= r.error_bound.magnitude
