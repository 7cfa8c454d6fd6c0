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
or a numpy array, evaluated elementwise in one pass.

yp_from_capacitance inverts C(y_p) on the same terms: a float by scalar
bisection, an array (a whole reading stream) by one elementwise bisection
that calls the array kernel once per step. An array takes about 1.5 ms
whether it holds one value or a few hundred, a float about 40 us, so arrays
only win from about 20 to 30 values on and floats keep their own path. On
an array, OutOfRange names the first value outside the attainable range and
carries its flat index as `row`.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import InvalidParameter, OutOfRange, TouchViolation
from .model import PhysicalConstants, ValidatedModel
from .roots import bisect_root, bisect_roots

# Below this relative gap change across the plate, ln(1+u)/u switches to its
# 4-term series; truncation error ~ u^4/5 < 1e-25 at the threshold.
SERIES_U_THRESHOLD = 1e-6

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


def inversion_bracket(model: ValidatedModel,
                      margin: float = INVERSION_MARGIN) -> tuple[float, float]:
    """Deflection interval on which capacitance inversion is performed."""
    return model.y_p_min * (1.0 - margin), model.y_p_max * (1.0 - margin)


def yp_from_capacitance(C, model: ValidatedModel, electrode: Electrode,
                        margin: float = INVERSION_MARGIN):
    """Deflection whose paddle capacitance equals C, by bracketed bisection.

    C is a float or an array; an array is inverted elementwise into an array
    of its shape. The bracket is the touch window shrunk by `margin`
    (inversion_bracket), and every value must lie strictly inside the
    capacitance range it spans: otherwise OutOfRange is raised, which
    covers NaN, inf, 0 and negative values. For an array, the error names
    the first such element and carries its flat index as `row`. Converges
    to |dC/C| <= 1e-12.

    A float is solved by bisect_root on the float kernel; an array by one
    bisect_roots over all its elements, one array kernel call per step (see
    the module docstring for why both paths stay).
    """
    lo, hi = inversion_bracket(model, margin)
    c_lo = capacitance_value(lo, model, electrode)
    c_hi = capacitance_value(hi, model, electrode)
    c_min, c_max = min(c_lo, c_hi), max(c_lo, c_hi)

    def out_of_range(c: float) -> str:
        if c <= 0.0:
            return f"capacitance must be > 0, got {c!r}"
        return (f"C={c!r} outside attainable range ({c_min!r}, {c_max!r}) "
                f"for {Electrode(electrode).value}")

    if isinstance(C, float):
        if not (c_min < C < c_max):
            raise OutOfRange(out_of_range(C))
        return bisect_root(lambda y: capacitance_value(y, model, electrode) - C,
                           lo, hi, c_lo - C, c_hi - C, ftol=1e-12 * C)
    C = np.asarray(C, dtype=float)
    bad = np.flatnonzero(~((c_min < C) & (C < c_max)))
    if bad.size:
        row = int(bad[0])
        raise OutOfRange(out_of_range(float(C.flat[row])), row=row)
    return bisect_roots(lambda y: capacitance_value(y, model, electrode) - C,
                        lo, hi, c_lo - C, c_hi - C, ftol=1e-12 * C)
