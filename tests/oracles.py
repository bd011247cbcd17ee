"""Brute-force partial sums kept as test oracles for the engine routes."""

from mpmath import mp, mpf

from multizeta.hp import GUARD_DIGITS, LOCK


def _triple_nonstrict_sum(cutoff: int, prec: int):
    """sum_{m>n>=k>=1} 1/(m^3 n k) = sum_m m^-3 sum_{n<m} H_n/n, by scaled
    integers; returns (value, rigorous bound).  The full sum is
    zeta(3,1,1) + zeta(3,2)."""
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + 12)
    h = 0  # H_n scaled
    a = 0  # sum_{n<=current} H_n/n scaled
    acc = 0
    for m in range(2, cutoff + 1):
        n = m - 1
        h += scale // n
        a += h // n
        acc += a // m ** 3
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        # integral majorant: sum_{m>C} (1+ln m)^2/m^3 <= ((1+L)^2 + (1+L) + 1/2)/(2C^2)
        L = mp.log(cutoff)
        tail = ((1 + L) ** 2 + (1 + L) + mpf(1) / 2) / (2 * mpf(cutoff) ** 2)
        slop = mpf(3 * cutoff + 10) / scale
        return val, tail + slop
