"""Independent oracles that the package's solvers and closed forms are checked against.

The scan-and-bisect equilibrium solver shares no arithmetic with the
closed-form stable branch (mechanics.StableBranch) beyond the total force
(mechanics._force_closure), and the composite-trapezoid quadrature forms
share none with the capacitance and force kernels beyond the gap line.
They keep their arithmetic: a change to the package's numerics shows
against them, not in them.
"""
from __future__ import annotations

import numpy as np

from paddle_lab.electrostatics import GAP_SIGN, Electrode, gap_line
from paddle_lab.errors import InvalidParameter, NoStableEquilibrium
from paddle_lab.mechanics import _force_closure, _scan_bounds, drive_voltages
from paddle_lab.model import ValidatedModel
from paddle_lab.roots import bisect_root

# The fixed scan resolution used to bracket force zeros.
SCAN_POINTS = 2048


def _scan_equilibrium(model: ValidatedModel, V_top: float, V_bottom: float) -> float:
    """Stable pose y_p of the force balance, found by a fixed scan plus bisection.

    The open touch interval is scanned on a 2048-point grid (relative
    margin 1e-6 at each end). A zero where the grid force falls from > 0
    to <= 0 is restoring, so the lowest such falling crossing is bisected
    to machine precision and returned. It also solves drives on both
    electrodes at once, which the package refuses, and is the reference
    that StableBranch is checked against. Raises NoStableEquilibrium when
    every zero is unstable or none exists.
    """
    grid = np.linspace(*_scan_bounds(model), SCAN_POINTS)
    force = _force_closure(model, V_top, V_bottom)
    f = force(grid)
    sign = f > 0.0
    falling = np.nonzero(sign[:-1] & ~sign[1:])[0]
    if falling.size:
        i = falling[0]
        return bisect_root(force, float(grid[i]), float(grid[i + 1]),
                           float(f[i]), float(f[i + 1]))
    raise NoStableEquilibrium(
        f"no restoring force balance for V_top={V_top!r}, V_bottom={V_bottom!r} "
        f"({np.count_nonzero(sign[:-1] != sign[1:])} unstable zero(s) found)")


def has_stable_equilibrium(model: ValidatedModel, electrode: Electrode, V: float) -> bool:
    """Whether the scan solver finds a stable equilibrium at V on `electrode`.

    Deliberately independent of StableBranch: it is the oracle that
    pull-in results are checked against. V is checked by _Drive.
    """
    try:
        _scan_equilibrium(model, *drive_voltages(electrode, V))
        return True
    except NoStableEquilibrium:
        return False


def _quadrature_grid(y_p: float, model: ValidatedModel, electrode: Electrode,
                     panels: int) -> tuple[np.ndarray, float]:
    if not isinstance(panels, (int, np.integer)) or panels < 2:
        raise InvalidParameter("panels", f"must be an integer >= 2, got {panels!r}")
    g0, delta = gap_line(y_p, model, electrode)
    x = np.linspace(0.0, model.geom.l_p, panels + 1)
    gap = g0 + (delta / model.geom.l_p) * x
    return gap, model.geom.l_p / panels


def paddle_capacitance_quadrature(y_p: float, model: ValidatedModel,
                                  electrode: Electrode, panels: int) -> float:
    """Composite-trapezoid oracle for the capacitance integral."""
    gap, dx = _quadrature_grid(y_p, model, electrode, panels)
    return model.constants.eps0 * model.geom.w_p * np.trapezoid(1.0 / gap, dx=dx)


def electrostatic_force_per_v2_quadrature(y_p: float, model: ValidatedModel,
                                          electrode: Electrode, panels: int) -> float:
    """Composite-trapezoid oracle for the signed pressure integral."""
    gap, dx = _quadrature_grid(y_p, model, electrode, panels)
    return -GAP_SIGN[electrode] * 0.5 * model.constants.eps0 * model.geom.w_p * np.trapezoid(
        1.0 / gap**2, dx=dx)
