"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of identical CPU work drifts by up to 1.8x
over seconds to minutes, as other tenants come and go; a 1 s window of
`pull_in_voltage` calls measured between 2.7 and 5.0 ms on the reference
machine. The ratio of a task's time to the time of a fixed reference
kernel run next to it varies far less (1.5 to 3.5% per 1.5 s window
against 20 to 26%), because both slow down together.

The benchmark therefore reports times in reference milliseconds:
measured time * REF_MS / measured kernel time, i.e. the time the task
would take on the reference machine when the kernel takes REF_MS there.
The kernel mixes the kinds of work the package does (see `kernel`). It
calls nothing from paddle_lab, so a change to the package cannot move it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from time import perf_counter

import numpy as np

# Kernel time on the reference machine (Linux, nproc 2, Python 3.11,
# numpy 2.4) when no other tenant slows it down, ms.
REF_MS = 0.6


class _Side(str, Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class _Plate:
    length: float = 3e-3
    width: float = 5e-3
    gap: float = 1e-4

    @property
    def ratio(self) -> float:
        return 1.0 + self.width / self.length


@dataclass(frozen=True)
class _Sample:
    t: float
    value: float


_PLATE = _Plate()
_GRID = np.linspace(-4e-5, 4e-5, 2048)


def _gap_line(y, plate, side):
    y_b = y / plate.ratio
    delta = 2.0 * y_b * plate.width / plate.length
    if _Side(side) is _Side.UP:
        return plate.gap - y_b, -delta
    return plate.gap + y_b, delta


def _inv_gap(y, plate, side):
    g0, delta = _gap_line(y, plate, side)
    u = delta / g0
    return math.log1p(u) / delta if abs(u) > 1e-6 else 1.0 / g0


def _bisect(func, lo, hi):
    f_lo = func(lo)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo


def kernel() -> float:
    """Fixed work in the package's styles: bisection through small function
    calls on frozen dataclasses, numpy expressions on a 2048-point grid,
    building sample objects, and full-precision float formatting."""
    acc = 0.0
    for k in range(4):
        side = _Side.UP if k % 2 else _Side.DOWN
        target = _inv_gap(1e-5 * (k - 2), _PLATE, side)
        acc += _bisect(lambda y: _inv_gap(y, _PLATE, side) - target, -4e-5, 4e-5)
        g0, delta = _gap_line(_GRID, _PLATE, side)
        acc += float(np.sum(np.log1p(delta / g0) / np.where(delta == 0.0, 1.0, delta)))
    samples = [_Sample(t=float(i), value=float(v)) for i, v in enumerate(_GRID[:200])]
    text = ",".join(f"{s.value:.17e}" for s in samples[:100])
    return acc + len(text)


def kernel_ms() -> float:
    """Time of one kernel run, ms."""
    t0 = perf_counter()
    kernel()
    return 1e3 * (perf_counter() - t0)
