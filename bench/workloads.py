"""The three workloads and the requests each sends, made from a seed.

Every workload is a closed loop: one client, one request at a time, in a
single process, so no figure depends on how many cores the machine has.

* ``verify-all``: one ``verify --suite all`` request, inputs spelled out so
  a change of default cannot change the workload.  The brute-force series
  layer does most of the work; it has no seeded inputs.
* ``closed-ladder``: closed forms and base constants at 50, 80, 200 and
  1000 digits, one fresh CLI process per request, so no cache carries over.
  Almost all the work is in the hp layer (Euler-Maclaurin and CVZ); series
  and quadrature are never called.  The seed fixes the order.
* ``quad-session``: one interpreter serving a stream of integral and
  quadrature requests at 30 and 50 digits.  Quadrature does the work and
  series none.  Elementary-kernel shapes are drawn with replacement, so
  repeats reach the hp lru caches and the DE node cache; this is the one
  workload where caching can pay.  The draws are stratified (a fixed count
  per integrand family and precision), so the cost of a stream barely
  depends on the seed.
"""

from __future__ import annotations

import random

VERIFY_ARGV = ["verify", "--suite", "all", "--prec", "50", "--cutoff", "1000000", "--json"]

# closed-ladder: the zeta/eta-, beta- and psi'''(1/4)-based forms.
LADDER_SHAPES = (
    ("tvalue", "3", "2", "2", "--method", "symbolic"),
    ("oddsum", "B", "2", "3", "--method", "closed"),
    ("constants", "psi3_quarter", "--method", "closed"),
)
LADDER_DIGITS = (50, 80, 200, 1000)
# A request still running this long after its process started is killed and
# counted as failed.  On the parent commit the slowest 80-digit request takes
# 1.7-2.5 s on a 2-core machine whose speed varies by a factor of up to two,
# and no 200- or 1000-digit request can finish in minutes.
DEADLINE_S = 5.0

QUAD_DIGITS = (30, 50)
# Elementary-kernel families: (shapes, draws at 30 digits, draws at 50 digits).
# Each request costs 0.013-0.09 s on the parent commit; draws are with
# replacement, so about half the stream repeats an earlier request.  Most
# draws are at 50 digits, so req_p50_s falls mid-way through the 50-digit
# requests rather than on the edge between the two precisions.
QUAD_DRAWN = (
    ([f"integral I {n}" for n in range(2, 7)], 3, 12),
    ([f"integral J {n}" for n in range(2, 7)], 3, 12),
    ([f"integral K {n}" for n in range(1, 6)], 3, 12),
    ([f"integral logsine {n}" for n in range(2, 7)], 3, 12),
    (["tvalue 3" + " 2" * n for n in range(1, 4)], 3, 10),
    (["tvalue" + " 2" * n + " 1" for n in range(1, 5)], 3, 10),
    (["mu 2" + " 1" * n for n in range(0, 4)], 3, 10),
)
# Log-polylog kernels, a fixed set in every pass: each O/B shape twice at 30
# digits (~0.35 s each) and four once at 50 (~1.0 s); about two thirds of the
# quadrature time.  req_p90_s falls in the middle of the sixteen 30-digit
# ones, with eleven samples above it, so it depends neither on the seed nor
# on one lucky sample.
QUAD_FIXED = tuple(
    [(f"oddsum {f} {p} {q}", 30) for f in "OB" for p in (2, 3) for q in (2, 3)] * 2
    + [(f"oddsum {f} {p} {q}", 50) for f in "OB" for p, q in ((2, 3), (3, 2))]
)


def quad_shapes() -> list[str]:
    return [shape for shapes, _, _ in QUAD_DRAWN for shape in shapes] + sorted(
        {shape for shape, _ in QUAD_FIXED}
    )


def quad_argv(shape: str, digits: int) -> list[str]:
    method = [] if shape.startswith("integral") else ["--method", "quadrature"]
    return [*shape.split(), *method, "--prec", str(digits), "--json"]


def quad_stream(seed: int) -> list[tuple[str, int]]:
    """The seeded (shape, digits) stream of one quad-session pass."""
    rng = random.Random(seed)
    stream = list(QUAD_FIXED)
    for shapes, n30, n50 in QUAD_DRAWN:
        for digits, n in zip(QUAD_DIGITS, (n30, n50)):
            # every shape as often as n allows, the rest drawn with replacement
            picks = shapes * (n // len(shapes)) + rng.choices(shapes, k=n % len(shapes))
            stream += [(shape, digits) for shape in picks]
    rng.shuffle(stream)
    return stream


def ladder_requests(seed: int) -> list[tuple[list[str], int]]:
    """The seeded order of the closed-ladder (argv, digits) requests."""
    reqs = [
        ([*shape, "--prec", str(d), "--json", "--symbolic"], d)
        for shape in LADDER_SHAPES
        for d in LADDER_DIGITS
    ]
    random.Random(seed).shuffle(reqs)
    return reqs
