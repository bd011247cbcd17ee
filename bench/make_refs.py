"""Write refs.json: mpmath reference values for every quad-session shape.

Run as ``python3 bench/make_refs.py`` (about 80 s on one core).  Each value is
computed at 70 and at 85 digits and kept only if the two agree to the 62
digits stored; the odd sums O(p,q) are also checked against an independent
Hurwitz-zeta series, O(p,q) = t(p) t(q) - 2^-p sum_n zeta(p, n+1/2)/(2n-1)^q.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import REFS_PATH, reference  # noqa: E402
from workloads import quad_shapes  # noqa: E402

STORED_DIGITS = 62


def _odd_sum_by_hurwitz(p: int, q: int) -> mpf:
    def t(s):
        return (1 - mpf(2) ** -s) * mp.zeta(s)

    tail = mp.nsum(lambda n: mp.zeta(p, n + mpf(1) / 2) / (2 * n - 1) ** q, [1, mp.inf])
    return t(p) * t(q) - mpf(2) ** -p * tail


def main() -> None:
    refs = {}
    for shape in quad_shapes():
        values = []
        for dps in (70, 85):
            with mp.workdps(dps):
                values.append(reference(shape))
        with mp.workdps(STORED_DIGITS + 5):
            if abs(values[0] - values[1]) > abs(values[1]) * mpf(10) ** -STORED_DIGITS:
                raise SystemExit(f"{shape}: 70- and 85-digit references disagree")
            if shape.startswith("oddsum O"):
                p, q = (int(w) for w in shape.split()[2:])
                with mp.workdps(70):
                    other = _odd_sum_by_hurwitz(p, q)
                if abs(other - values[1]) > abs(values[1]) * mpf(10) ** -(STORED_DIGITS - 2):
                    raise SystemExit(f"{shape}: kernel and Hurwitz references disagree")
            refs[shape] = mp.nstr(values[1], STORED_DIGITS, strip_zeros=False)
        print(shape, refs[shape], flush=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
