"""Capacitance and electrostatic force of the tilted paddle.

The paddle is a rigid plate over two parallel electrodes. Against either
electrode the local gap runs linearly along the plate (gap_line), so both
the capacitance integral and the electrostatic pressure integral have
closed forms in terms of the gap at the paddle root (g0) and at the far
edge (g1):

    C        = eps0 * w_p * l_p * ln(g1/g0) / (g1 - g0)
    |F| / V^2 = eps0 * w_p * l_p / (2 * g0 * g1)

The log form degenerates to 0/0 for a flat plate; below a small tilt the
integral factor is evaluated by series instead (see capacitance_value). The
composite-trapezoid quadrature versions of both integrals are kept as
independent oracles for testing.

All functions are pure. capacitance_value and force_per_v2_value take a
float, kept on math.log1p and allocation-free for the root-finding loops,
or a numpy array, evaluated elementwise in one pass; capacitance_slope is
the exact dC/dy_p of the same closed form.

yp_from_capacitance inverts C(y_p) by safeguarded Newton, a float running
through the same loop as a one-element array. C(y_p) is smooth and monotone
on the inversion bracket, so unlike the force balance at pull-in it has no
double root to stall Newton. On an array, OutOfRange names the first value
outside the attainable range and carries its flat index as `row`.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import InvalidParameter, OutOfRange, TouchViolation
from .model import PhysicalConstants, ValidatedModel
from .roots import BISECT_MAX_ITER

# Below this relative gap change across the plate, ln(1+u)/u switches to its
# 4-term series; truncation error ~ u^4/5 < 1e-25 at the threshold.
SERIES_U_THRESHOLD = 1e-6

# Below this |u|, capacitance_slope's N(u) switches to its 6-term series. The
# closed form loses about 3e-16/|u| to cancellation, the series about u^6:
# against 50-digit arithmetic both stay below 1e-13 relative at the switch.
SLOPE_SERIES_U_THRESHOLD = 3e-3

# Relative shrink of each touch limit bounding the capacitance inversion
# bracket. C diverges logarithmically at the limits, so values measured
# closer than this to an electrode are treated as out of range.
INVERSION_MARGIN = 0.05


class Electrode(str, Enum):
    TOP = "top"
    BOTTOM = "bottom"


# s of each electrode's gap line (gap_coefficients)
GAP_SIGN = {Electrode.TOP: -1.0, Electrode.BOTTOM: 1.0}


def parallel_plate_capacitance(area: float, gap: float,
                               eps0: float = PhysicalConstants().eps0) -> float:
    """Ideal flat-plate capacitance eps0*A/d."""
    if gap <= 0.0:
        raise InvalidParameter("gap", f"must be > 0, got {gap!r}")
    if area <= 0.0:
        raise InvalidParameter("area", f"must be > 0, got {area!r}")
    return eps0 * area / gap


def gap_coefficients(model: ValidatedModel,
                     electrode: Electrode) -> tuple[float, float, float, float]:
    """(rest, s, center_ratio, tilt) of the gap line to `electrode`.

    With the beam tip at y_b = y_p/center_ratio the gap runs from
    g0 = rest + s*y_b at the paddle root to g0 + tilt*s*y_b at the far edge.
    (rest, s) is (d_c, -1) for the top electrode and (d_e, +1) for the
    bottom one, whose force on the paddle has sign -s.
    """
    g = model.geom
    s = GAP_SIGN[electrode]
    return (g.d_c if s < 0.0 else g.d_e), s, g.center_ratio, 2.0 * g.l_p / g.l_b


def gap_line(y_p, model: ValidatedModel, electrode: Electrode):
    """(g0, delta): gap at the paddle root and signed change to the far edge.

    y_p is a float or an array. Raises TouchViolation unless every pose
    lies strictly inside the touch interval (y_p_min, y_p_max) with a
    positive far-edge gap g0 + delta, which rounding can close first within
    an ulp or two of a limit.
    """
    rest, s, center_ratio, tilt = gap_coefficients(model, electrode)
    scalar = isinstance(y_p, float)
    if not scalar:
        y_p = np.asarray(y_p, dtype=float)
    y_s = s * (y_p / center_ratio)
    g0, delta = rest + y_s, tilt * y_s
    inside = (model.y_p_min < y_p) & (y_p < model.y_p_max) & (g0 + delta > 0.0)
    if not (inside if scalar else inside.all()):
        raise TouchViolation(f"paddle at or past the {Electrode(electrode).value} electrode: "
                             f"y_p must lie in ({model.y_p_min!r}, {model.y_p_max!r})")
    return g0, delta


def capacitance_value(y_p, model: ValidatedModel, electrode: Electrode):
    """Closed-form paddle capacitance, F, at a float or array of deflections."""
    g0, delta = gap_line(y_p, model, electrode)
    g = model.geom
    c = model.constants.eps0 * g.w_p * g.l_p
    u = delta / g0
    if isinstance(u, float) and abs(u) >= SERIES_U_THRESHOLD:
        return c * (math.log1p(u) / delta)
    series = (1.0 - u * (0.5 - u * (1.0 / 3.0 - 0.25 * u))) / g0
    if isinstance(u, float):
        return c * series
    small = np.abs(u) < SERIES_U_THRESHOLD
    return c * np.where(small, series, np.log1p(u) / np.where(small, 1.0, delta))


def capacitance_slope(y_p, model: ValidatedModel, electrode: Electrode):
    """Exact dC/dy_p, F/m, of capacitance_value at a float or array of deflections.

    On gap_line's terms, with u = delta/g0 and c = eps0*w_p*l_p,
        dC/dy_p = -s * c * (1/(1+u) + tilt*N(u)) / (center_ratio * g0^2),
        N(u) = (ln(1+u)/u - 1/(1+u)) / u, 0/0 at the flat pose where N = 1/2,
    so N is evaluated by series below SLOPE_SERIES_U_THRESHOLD. A float is
    evaluated as a one-element array and gets the bits of the array element.
    """
    scalar = isinstance(y_p, float)
    g0, delta = gap_line(np.array([y_p]) if scalar else y_p, model, electrode)
    _, s, center_ratio, tilt = gap_coefficients(model, electrode)
    g = model.geom
    u = delta / g0
    small = np.abs(u) < SLOPE_SERIES_U_THRESHOLD
    w = np.where(small, 1.0, u)
    n = np.where(small,
                 0.5 - u * (2.0 / 3.0 - u * (0.75 - u * (0.8 - u * (5.0 / 6.0 - u * (6.0 / 7.0))))),
                 (np.log1p(w) / w - 1.0 / (1.0 + w)) / w)
    c = model.constants.eps0 * g.w_p * g.l_p
    slope = -s * (c * (1.0 / (1.0 + u) + tilt * n)) / (center_ratio * (g0 * g0))
    return float(slope[0]) if scalar else slope


# The same kernel under the name perfbench/tracing.py times array calls by.
capacitance_curve = capacitance_value


def force_per_v2_value(y_p, model: ValidatedModel, electrode: Electrode):
    """Signed electrostatic force per squared volt, N/V^2.

    Positive means pull toward the top electrode. Closed form of the
    distributed pressure (eps0*w_p/2) * integral dx/gap^2, at a float or
    array of deflections.
    """
    g0, delta = gap_line(y_p, model, electrode)
    g = model.geom
    return -GAP_SIGN[electrode] * 0.5 * model.constants.eps0 * g.w_p * g.l_p / (
        g0 * (g0 + delta))


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


def inversion_bracket(model: ValidatedModel) -> tuple[float, float]:
    """Deflection interval on which capacitance inversion is performed."""
    return model.y_p_min * (1.0 - INVERSION_MARGIN), model.y_p_max * (1.0 - INVERSION_MARGIN)


def capacitance_range(model: ValidatedModel, electrode: Electrode) -> tuple[float, float]:
    """(c_min, c_max): the capacitance span of inversion_bracket, ends excluded."""
    c_lo, c_hi = (capacitance_value(y, model, electrode) for y in inversion_bracket(model))
    return min(c_lo, c_hi), max(c_lo, c_hi)


def invertible(C, model: ValidatedModel, electrode: Electrode):
    """Which readings yp_from_capacitance accepts: c_min < C < c_max (NaN never)."""
    c_min, c_max = capacitance_range(model, electrode)
    return (c_min < C) & (C < c_max)


def yp_from_capacitance(C, model: ValidatedModel, electrode: Electrode):
    """Deflection whose paddle capacitance equals C, by safeguarded Newton.

    C is a float or an array; an array is inverted elementwise into an array
    of its shape, a float as a one-element array into a float. Every value
    must be invertible, inside the range spanned by inversion_bracket:
    otherwise OutOfRange is raised, which covers NaN, inf, 0 and negative
    values. For an array, the error names the first such element and
    carries its flat index as `row`.

    Each element starts from the mean-gap guess c/C clipped to the bracket
    and keeps its own bracket around the root. It takes the Newton step on
    1/C, close to linear in the mean gap, where that stays strictly inside
    its bracket and bisects where it does not (rtsafe, Numerical Recipes
    9.4), until |C(y) - C| <= 1e-12*C or for BISECT_MAX_ITER steps.
    """
    C = np.asarray(C, dtype=float)
    bad = np.flatnonzero(~invertible(C, model, electrode))
    if bad.size:
        row = int(bad[0])
        c = float(C.flat[row])
        if c <= 0.0:
            reason = f"capacitance must be > 0, got {c!r}"
        else:
            c_min, c_max = capacitance_range(model, electrode)
            reason = (f"C={c!r} outside attainable range ({c_min!r}, {c_max!r}) "
                      f"for {Electrode(electrode).value}")
        raise OutOfRange(reason, row=row if C.ndim else None)
    lo, hi = inversion_bracket(model)
    rest, s, center_ratio, tilt = gap_coefficients(model, electrode)
    g = model.geom
    target = C.reshape(-1)
    mean_gap = model.constants.eps0 * g.w_p * g.l_p / target
    y = np.clip(s * center_ratio * (mean_gap - rest) / (1.0 + 0.5 * tilt), lo, hi)
    a, b = np.full(y.shape, lo), np.full(y.shape, hi)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(BISECT_MAX_ITER):
        c_y = capacitance_value(y, model, electrode)
        active &= np.abs(c_y - target) > 1e-12 * target
        if not active.any():
            break
        above = (c_y < target) == (s < 0.0)  # the root lies above y
        a, b = np.where(above, y, a), np.where(above, b, y)
        newton = y + c_y * (target - c_y) / (target * capacitance_slope(y, model, electrode))
        step = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
        y = np.where(active, step, y)
    return y.reshape(C.shape) if C.ndim else float(y[0])
