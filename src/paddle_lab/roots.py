"""Derivative-free 1-D root finding: bracketed bisection.

Bisection runs the scan solver (mechanics._scan_equilibrium, for drives on
both electrodes and as the reference for the stable branch). It is
preferred there over faster methods: the scan's equation approaches a
double root at pull-in, where Newton-type iterations stall, it has no
closed form, and the cost of bisection is bounded. bisect_root solves one
equation on floats and allocates nothing per step. Tests also use it as
the oracle for capacitance inversion (electrostatics.yp_from_capacitance),
which runs Newton on the concave 1/C, a curve without such a root.
One-electrode equilibria and pull-in need none of it: they have closed
forms (mechanics.StableBranch).
"""
from __future__ import annotations

from typing import Callable

BISECT_MAX_ITER = 200


def bisect_root(func: Callable[[float], float], lo: float, hi: float,
                f_lo: float, f_hi: float) -> float:
    """Root of func on [lo, hi]; f_lo = func(lo) and f_hi = func(hi) must differ in sign.

    The end values are passed in, so a caller that knows them does not
    pay for them again. Runs until f(mid) == 0 or the midpoint stops moving
    (machine precision), or for at most BISECT_MAX_ITER steps.
    """
    if lo > hi:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # interval no longer representable
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)
