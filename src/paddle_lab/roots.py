"""Derivative-free 1-D root finding: bracketed bisection.

Bisection runs the scan solver (mechanics._scan_equilibrium, for drives on
both electrodes and as the reference for the stable branch) and inverts
the capacitance. For the scan it is preferred over faster methods: its
equation approaches a double root at pull-in, where Newton-type
iterations stall, it has no closed form, and the cost of bisection is
bounded. One-electrode equilibria and pull-in need none of it: they have
closed forms (mechanics.StableBranch).

Bisection comes in two forms with the same stopping rules. bisect_root
solves one equation on floats and allocates nothing per step, which the
scan and the inversion of one capacitance rely on. bisect_roots solves many equations that share
one bracket elementwise, with one call of an array function per step for
all of them; capacitance inversion of a whole reading stream uses it. Each
element of bisect_roots stops on the rule that would stop bisect_root on
that element alone and then keeps its value while the others go on.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

BISECT_MAX_ITER = 200


def bisect_root(func: Callable[[float], float], lo: float, hi: float,
                f_lo: float, f_hi: float, ftol: float = 0.0) -> float:
    """Root of func on [lo, hi]; f_lo = func(lo) and f_hi = func(hi) must differ in sign.

    The end values are passed in, as for bisect_roots, so a caller that
    knows them does not pay for them again. Runs until |f(mid)| <= ftol or
    the midpoint stops moving (machine precision), or for at most
    BISECT_MAX_ITER steps.
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
        if f_mid == 0.0 or abs(f_mid) <= ftol:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def bisect_roots(func: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 f_lo: np.ndarray, f_hi: np.ndarray, ftol=0.0) -> np.ndarray:
    """Elementwise bisect_root: the root of every element on the bracket [lo, hi].

    Element k of func(x) is f_k(x[k]); f_lo and f_hi hold f_k(lo) and
    f_k(hi), passed in so a caller that knows them does not pay for them
    again. ftol is a float or an array of per-element tolerances. Element k
    stops at the midpoint where |f_k| <= ftol[k] (which f_k == 0 meets) or
    where the midpoint is no longer strictly inside its bracket, at an end
    where f_k is 0, or after BISECT_MAX_ITER steps. Each step makes one call of
    func on an array of the shape of f_lo, stopped elements included.
    Raises ValueError when some f_k does not change sign on the bracket.
    """
    if lo > hi:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    f_lo, f_hi = np.asarray(f_lo, dtype=float), np.asarray(f_hi, dtype=float)
    at_lo = f_lo == 0.0
    at_hi = (f_hi == 0.0) & ~at_lo
    active = ~(at_lo | at_hi)
    lo_positive = f_lo > 0.0
    if np.any(active & (lo_positive == (f_hi > 0.0))):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}] for some element")
    a, b = np.where(at_hi, hi, lo), np.where(at_lo, lo, hi)
    for _ in range(BISECT_MAX_ITER):
        if not active.any():
            break
        mid = 0.5 * (a + b)
        active &= (a < mid) & (mid < b)  # interval no longer representable
        f_mid = func(mid)
        active &= ~(np.abs(f_mid) <= ftol)
        up = active & ((f_mid > 0.0) == lo_positive)
        a = np.where(up, mid, a)
        b = np.where(active & ~up, mid, b)
    return 0.5 * (a + b)
