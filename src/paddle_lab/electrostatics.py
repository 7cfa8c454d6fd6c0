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
composite-trapezoid quadrature forms of both integrals, the independent
oracles these closed forms are tested against, live with the tests
(tests/oracles.py), not in the package.

All functions are pure. capacitance_value and force_per_v2_value take a
float, kept allocation-free for the root-finding loops, or a numpy array,
evaluated elementwise in one pass; capacitance_slope is the exact dC/dy_p
of the same closed form. The array math of C and dC/dy_p lives in two
helpers on gap_line's terms (g0, delta, u = delta/g0 and ln(1+u)), so a
caller that needs both computes the gap line and the log once. Each takes
the closed form everywhere and its flat-pose series only on the elements
of a mask the caller hands it, which also keeps the closed form's divisor
off zero there, or None when no element needs the series (_series_mask);
the other elements get the same bits either way. capacitance_value and
capacitance_slope mask |u| below each one's own series threshold. The
slope helper leaves out the sign -s of the gap line, which its callers
apply. A lone float takes capacitance_value and capacitance_slope through
gap_line's float path and np.log1p on the scalar, the same operations as
on an array element, and gets the bits of the same pose inside an array.

Each formula lives in one helper: gap_line is the gap-line arithmetic
(_gap_terms) plus the touch check, and capacitance_value,
capacitance_slope and force_per_v2_value are gap_line plus their formula
on its terms (_capacitance_on_line, _slope_terms,
_force_per_v2_on_line). A caller whose poses are already inside the touch
interval, such as a sweep or a fit trial on the stable branch, takes the
helpers directly and gets the same bits without the check; a fit trial
forms u and ln(1+u) once for both C and its slope. On an array the
helpers, and mechanics' film, beam and drive terms, read the model's
constants as read-only 0-d float64 arrays (_array_constants), formed on
the model's first array and held with it. NumPy 2 takes a Python float
operand as a weak scalar (NEP 50), about 200 ns more per ufunc call than a
0-d float64 array of the same bits, which gives the same result; a lone
float reads the model's floats.

yp_from_capacitance inverts C(y_p) by Newton on 1/C, a float running
through the same loop as a one-element array. c/C is the logarithmic mean
L of the two edge gaps, concave and increasing in both, and both gaps are
affine in y_p, so 1/C is concave and monotone on the inversion bracket.
From the start, where Carlson's bound (2*G + A)/3 >= L equals c/C and so
1/C is at or below its target, the Newton steps approach the root without
passing it, and clipping them to the bracket is the only safeguard. The
bracket sits inside the touch interval, so each step takes one gap-line
pass without the touch check (_gap_terms), one log1p call and one series
mask, C's, for both C and its slope. The start is within O(u^4) of the
root, so a reading whose root has |u| below about 7.3e-3, more than twice
SLOPE_SERIES_U_THRESHOLD, meets the tolerance there and takes no step: the
loop never steps on a slope that needs its own series
(test_flat_readings_take_no_newton_step). The model holds
each electrode's attainable range (capacitance_range) once it is first
formed. On an array, OutOfRange names the first value outside that range
and carries its flat index as `row`.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidParameter, OutOfRange, TouchViolation
from .model import ValidatedModel

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

INVERSION_MAX_ITER = 200  # Newton step cap of yp_from_capacitance


def _frozen(*values: float) -> tuple:
    """values as read-only 0-d float64 arrays, 0-d views of one array.

    An array operation on one gives the bits of the same operation on its
    float, at less cost per call: NumPy 2 takes a Python float operand as a
    weak scalar (NEP 50), which costs it about 200 ns more per ufunc call.
    One array and its views cost less to form than an array per value.
    """
    held = np.array(values, dtype=float)
    held.flags.writeable = False
    return tuple(held[i, ...] for i in range(held.size))


# the series thresholds as 0-d arrays, which an array's _series_mask compares against
_SERIES_U, _SLOPE_SERIES_U = _frozen(SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD)


class Electrode(str, Enum):
    TOP = "top"
    BOTTOM = "bottom"

    @classmethod
    def _missing_(cls, value):
        # Enum calls this only for a value that names no member
        raise InvalidParameter("electrode", f"must be 'top' or 'bottom', got {value!r}")


# s of each electrode's gap line (gap_coefficients)
GAP_SIGN = {Electrode.TOP: -1.0, Electrode.BOTTOM: 1.0}


def parallel_plate_capacitance(area: float, gap: float, eps0: float) -> float:
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
    bottom one, whose force on the paddle has sign -s. Any other name
    raises Electrode's InvalidParameter("electrode").
    """
    g = model.geom
    try:
        s = GAP_SIGN[electrode]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        Electrode(electrode)  # raises InvalidParameter: no electrode has this name
    return (g.d_c if s < 0.0 else g.d_e), s, model.center_ratio, model.tilt


class _ArrayConstants:
    """A model's constants as its array kernels read them, each a read-only 0-d
    float64 array of the model's float (_frozen), formed by _array_constants.

    The attributes the model also has carry its names, so a kernel reads
    either set alike; minus_compliance is -compliance. lines maps each
    electrode to (rest, s, center_ratio, s*tilt, -s*half_eps0_area) of its
    gap line (gap_coefficients), the products formed as the float kernels
    form them and s kept a float for the kernels' branch on its sign.
    """

    __slots__ = ("center_ratio", "eps0_area", "half_eps0_area", "EFVFa", "eps_F0", "a",
                 "minus_compliance", "lines")

    def __init__(self, model: ValidatedModel):
        half = model.half_eps0_area
        top = gap_coefficients(model, Electrode.TOP)
        bottom = gap_coefficients(model, Electrode.BOTTOM)
        (self.center_ratio, self.eps0_area, self.half_eps0_area, self.EFVFa, self.eps_F0, self.a,
         self.minus_compliance, *lines) = _frozen(
            model.center_ratio, model.eps0_area, half, model.EFVFa, model.eps_F0, model.a,
            -model.compliance, top[0], top[1] * top[3], -top[1] * half,
            bottom[0], bottom[1] * bottom[3], -bottom[1] * half)
        self.lines = {Electrode.TOP: (lines[0], top[1], self.center_ratio, lines[1], lines[2]),
                      Electrode.BOTTOM: (lines[3], bottom[1], self.center_ratio, lines[4],
                                         lines[5])}


def _array_constants(model: ValidatedModel) -> _ArrayConstants:
    """The model's _ArrayConstants, formed on first use and held by the model
    (ValidatedModel._arrays). Kernels on a float read the model's floats."""
    held = model._arrays
    if held is None:
        held = _ArrayConstants(model)
        object.__setattr__(model, "_arrays", held)
    return held


def _line_arrays(model: ValidatedModel, electrode: Electrode) -> tuple:
    """The model's _ArrayConstants.lines entry of electrode (any other name
    raises Electrode's InvalidParameter("electrode"))."""
    try:
        return _array_constants(model).lines[electrode]  # a str Electrode's value finds its member
    except (KeyError, TypeError):  # TypeError: an unhashable name
        Electrode(electrode)  # raises InvalidParameter: no electrode has this name


def _gap_terms(y_p, model: ValidatedModel, electrode: Electrode):
    """gap_line's (g0, delta) at a float or array y_p, without its touch check.

    For poses already known to lie inside the touch interval, such as the
    equilibria of a stable branch. g0 = rest - y_b or rest + y_b and delta =
    (s*tilt)*y_b, y_b = y_p/center_ratio: s = +-1 commutes with rounding, so
    these are the bits of rest + s*y_b and tilt*(s*y_b), signed zeros too.
    An array reads the constants as 0-d arrays (_line_arrays), a float as floats.
    """
    if isinstance(y_p, np.ndarray):
        rest, s, center_ratio, s_tilt, _ = _line_arrays(model, electrode)
    else:
        rest, s, center_ratio, tilt = gap_coefficients(model, electrode)
        s_tilt = s * tilt
    y_b = y_p / center_ratio
    return (rest - y_b if s < 0.0 else rest + y_b), s_tilt * y_b


def gap_line(y_p, model: ValidatedModel, electrode: Electrode):
    """(g0, delta): gap at the paddle root and signed change to the far edge.

    y_p is a float or an array. Raises TouchViolation unless every pose
    lies strictly inside the touch interval (y_p_min, y_p_max) with a
    positive far-edge gap g0 + delta, which rounding can close first within
    an ulp or two of a limit.
    """
    scalar = isinstance(y_p, float)
    if not scalar:
        y_p = np.asarray(y_p, dtype=float)
    g0, delta = _gap_terms(y_p, model, electrode)
    inside = (model.y_p_min < y_p) & (y_p < model.y_p_max) & (g0 + delta > 0.0)
    if not (inside if scalar else np.count_nonzero(inside) == inside.size):
        raise TouchViolation(f"paddle at or past the {Electrode(electrode).value} electrode: "
                             f"y_p must lie in ({model.y_p_min!r}, {model.y_p_max!r})")
    return g0, delta


def _flat_capacitance(u, g0):
    """ln(1+u)/(u*g0) by its 4-term series, for |u| below SERIES_U_THRESHOLD."""
    return (1.0 - u * (0.5 - u * (1.0 / 3.0 - 0.25 * u))) / g0


def _series_mask(u, threshold):
    """The elements whose |u| is below a series threshold, or None when there is
    none; the package's callers pass the threshold as a 0-d array (_SERIES_U)."""
    small = np.abs(u) < threshold
    return small if np.count_nonzero(small) else None


def _capacitance_terms(c, g0, delta, u, log1p_u, small):
    """capacitance_value's array path on gap_line's terms, u = delta/g0 and
    log1p_u = ln(1+u), with c = eps0*w_p*l_p and small the elements below
    SERIES_U_THRESHOLD (_series_mask), None when there is none.

    The closed form is taken everywhere and the flat-pose series replaces it
    only on the small elements, where the closed form divides by 1.
    """
    value = log1p_u / (delta if small is None else np.where(small, 1.0, delta))
    if small is not None:
        value[small] = _flat_capacitance(u[small], g0[small])
    return c * value


def _slope_series(u):
    """N(u) of capacitance_slope by its 6-term series, for |u| below SLOPE_SERIES_U_THRESHOLD."""
    return 0.5 - u * (2.0 / 3.0 - u * (0.75 - u * (0.8 - u * (5.0 / 6.0 - u * (6.0 / 7.0)))))


def _slope_from_n(c, center_ratio, tilt, g0, r, n):
    """-s*dC/dy_p from gap_line's g0, r = 1/(1+u) and N(u) (see capacitance_slope)."""
    return c * (r + tilt * n) / (center_ratio * (g0 * g0))


def _slope_terms(c, center_ratio, tilt, g0, u, log1p_u, small):
    """-s*dC/dy_p, capacitance_slope's array math without its sign s = +-1,
    on gap_line's terms (see there), with log1p_u = ln(1+u), (center_ratio,
    tilt) from gap_coefficients and small the elements that take the
    series (_series_mask), None when there is none: those below
    SLOPE_SERIES_U_THRESHOLD for capacitance_slope's bits, below
    SERIES_U_THRESHOLD in yp_from_capacitance's loop (see there).

    N(u) is taken in closed form everywhere, sharing r = 1/(1+u) with the
    slope, and by series only on the small elements. The closed form divides
    by w = 1 on those elements, so that u = 0 never divides, and by w = u
    elsewhere. The caller applies -s, which commutes with rounding.
    """
    r = 1.0 / (1.0 + u)
    w = u if small is None else np.where(small, 1.0, u)
    n = (log1p_u / w - r) / w
    if small is not None:
        n[small] = _slope_series(u[small])
    return _slope_from_n(c, center_ratio, tilt, g0, r, n)


def capacitance_value(y_p, model: ValidatedModel, electrode: Electrode):
    """Closed-form paddle capacitance, F, at a float or array of deflections.

    A float takes gap_line's float path and np.log1p on the scalar, so it
    gets the bits of the same pose inside an array.
    """
    return _capacitance_on_line(*gap_line(y_p, model, electrode), model)


def _capacitance_on_line(g0, delta, model: ValidatedModel):
    """capacitance_value on gap_line's terms, floats or arrays (an array's c a 0-d array)."""
    u = delta / g0
    if isinstance(u, float):
        c = model.eps0_area
        if abs(u) >= SERIES_U_THRESHOLD:
            return c * (float(np.log1p(u)) / delta)
        return c * _flat_capacitance(u, g0)
    return _capacitance_terms(_array_constants(model).eps0_area, g0, delta, u, np.log1p(u),
                              _series_mask(u, _SERIES_U))


def capacitance_slope(y_p, model: ValidatedModel, electrode: Electrode):
    """Exact dC/dy_p, F/m, of capacitance_value at a float or array of deflections.

    On gap_line's terms, with u = delta/g0 and c = eps0*w_p*l_p,
        dC/dy_p = -s * c * (1/(1+u) + tilt*N(u)) / (center_ratio * g0^2),
        N(u) = (ln(1+u)/u - 1/(1+u)) / u, 0/0 at the flat pose where N = 1/2,
    so N is evaluated by series below SLOPE_SERIES_U_THRESHOLD. A float
    takes gap_line's float path and np.log1p on the scalar: the same
    operations as on an array element, so it gets the bits of the array
    element.
    """
    g0, delta = gap_line(y_p, model, electrode)
    _, s, center_ratio, tilt = gap_coefficients(model, electrode)
    c = model.eps0_area
    u = delta / g0
    if isinstance(u, float):
        r = 1.0 / (1.0 + u)
        n = _slope_series(u) if abs(u) < SLOPE_SERIES_U_THRESHOLD else (float(np.log1p(u)) / u - r) / u
        return -s * _slope_from_n(c, center_ratio, tilt, g0, r, n)
    return -s * _slope_terms(c, center_ratio, tilt, g0, u, np.log1p(u),
                             _series_mask(u, _SLOPE_SERIES_U))


# The same kernel under the name perfbench/tracing.py times array calls by. Kept
# only for that: the benchmark v2 item of ROADMAP.md moves the tracer and the
# tests onto capacitance_value and deletes it.
capacitance_curve = capacitance_value


def force_per_v2_value(y_p, model: ValidatedModel, electrode: Electrode):
    """Signed electrostatic force per squared volt, N/V^2.

    Positive means pull toward the top electrode. Closed form of the
    distributed pressure (eps0*w_p/2) * integral dx/gap^2, at a float or
    array of deflections.
    """
    return _force_per_v2_on_line(*gap_line(y_p, model, electrode), model, electrode)


def _force_per_v2_on_line(g0, delta, model: ValidatedModel, electrode: Electrode):
    """force_per_v2_value on gap_line's terms, floats or arrays (-s*half as a 0-d array)."""
    scale = (_line_arrays(model, electrode)[4] if isinstance(g0, np.ndarray)
             else -GAP_SIGN[electrode] * model.half_eps0_area)
    return scale / (g0 * (g0 + delta))


def inversion_bracket(model: ValidatedModel) -> tuple[float, float]:
    """Deflection interval on which capacitance inversion is performed."""
    return model.y_p_min * (1.0 - INVERSION_MARGIN), model.y_p_max * (1.0 - INVERSION_MARGIN)


def capacitance_range(model: ValidatedModel, electrode: Electrode) -> tuple[float, float]:
    """(c_min, c_max): the capacitance span of inversion_bracket, ends excluded.

    Formed from two float capacitance_value calls on the first call for an
    electrode, then held by the model (ValidatedModel._ranges), so invertible
    and yp_from_capacitance read it without evaluating C.
    """
    try:
        held = model._ranges.get(electrode)  # a str Electrode's value finds its member
    except TypeError:  # an unhashable name
        Electrode(electrode)  # raises InvalidParameter
    if held is None:
        c_lo, c_hi = (capacitance_value(y, model, electrode) for y in inversion_bracket(model))
        held = model._ranges[Electrode(electrode)] = (min(c_lo, c_hi), max(c_lo, c_hi))
    return held


def invertible(C, model: ValidatedModel, electrode: Electrode):
    """Which readings yp_from_capacitance accepts: c_min < C < c_max (NaN never)."""
    c_min, c_max = capacitance_range(model, electrode)
    return (c_min < C) & (C < c_max)


def _log_mean_start(S, rest, tilt):
    """x = s*y_p/center_ratio whose edge gaps have (2*G + A)/3 = S.

    c/C is the logarithmic mean L of the edge gaps g0 = rest + x and
    g1 = rest + (1+tilt)*x, and Carlson's upper bound (2*G + A)/3, with G
    and A their geometric and arithmetic means, is within O(u^4) of L
    (B. C. Carlson, The logarithmic mean, Amer. Math. Monthly 79, 1972).
    Squared, 2*G = 3*S - A is the quadratic qa*x^2 + qb*x + qc = 0 with
        qa = (4*(1+tilt) - (1+tilt/2)^2)/3,  qb = (2+tilt)*(rest+S) > 0,
        qc = (rest-S)*(rest+3*S),
    whose root near x = 0 is taken in the form that does not cancel and
    stays finite where qa changes sign, at tilt = 6 + 4*sqrt(3).
    """
    qa = (4.0 * (1.0 + tilt) - (1.0 + 0.5 * tilt) ** 2) / 3.0
    qb = (2.0 + tilt) * (rest + S)
    qc = (rest - S) * (rest + 3.0 * S)
    return -2.0 * qc / (qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)))


def yp_from_capacitance(C, model: ValidatedModel, electrode: Electrode):
    """Deflection whose paddle capacitance equals C, by Newton on 1/C.

    C is a float or an array; an array is inverted elementwise into an array
    of its shape, a float as a one-element array into a float. Every value
    must be invertible, inside the range spanned by inversion_bracket:
    otherwise OutOfRange is raised, which covers NaN, inf, 0 and negative
    values. For an array, the error names the first such element and
    carries its flat index as `row`.

    Each element starts from the log-mean-gap guess clipped to the bracket:
    the pose whose edge gaps have c/C as Carlson's bound on their
    logarithmic mean (_log_mean_start), off in C by 4.7e-6 relative in the
    median over the bracket of the default geometry. It then takes Newton
    steps on 1/C, close to linear in the mean gap, clipped to the bracket
    (the module docstring says why nothing more is needed), until
    |C(y) - C| <= 1e-12*C or for INVERSION_MAX_ITER steps.

    A step evaluates the gap line, without the touch check since every
    iterate lies in the bracket, ln(1+u) and C's series mask (|u| below
    SERIES_U_THRESHOLD) once, and hands them to the capacitance and slope
    helpers, the slope only after the convergence test has left some
    element active. The slope takes C's mask too. The start is within
    O(u^4) of the root, and no reading whose root has |u| below 7.3e-3 has
    been seen to take a step (tilts 0.1 to 1e3, both electrodes, exact and
    noisy readings), so every element that steps has |u| above
    SLOPE_SERIES_U_THRESHOLD, where the slope's closed form is
    capacitance_slope's. The helpers give the bits of capacitance_value at
    the same poses, and of capacitance_slope without its sign s = +-1 on
    every element that steps. The step on that slope is subtracted for
    s = +1 and added for s = -1, which is exact, since sign flips commute
    with rounding; np.where keeps converged elements only while some element
    has converged.
    """
    C = np.asarray(C, dtype=float)
    ok = invertible(C, model, electrode)
    if np.count_nonzero(ok) != ok.size:
        row = int(np.flatnonzero(~ok)[0])
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
    c = model.eps0_area
    target = C.reshape(-1)
    tol = 1e-12 * target
    # np.minimum(np.maximum(...)) gives np.clip's bits at half its call cost
    y = np.minimum(np.maximum(s * center_ratio * _log_mean_start(c / target, rest, tilt), lo), hi)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(INVERSION_MAX_ITER):
        g0, delta = _gap_terms(y, model, electrode)
        u = delta / g0
        log1p_u = np.log1p(u)
        small = _series_mask(u, _SERIES_U)
        c_y = _capacitance_terms(c, g0, delta, u, log1p_u, small)
        residual = target - c_y  # |target - c_y| has the bits of |c_y - target|
        active &= np.abs(residual) > tol
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        # y + c_y*residual/(target*slope), with slope = -s times _slope_terms
        step = c_y * residual / (target * _slope_terms(c, center_ratio, tilt, g0, u, log1p_u, small))
        newton = np.minimum(np.maximum(y - step if s > 0.0 else y + step, lo), hi)
        y = newton if n_active == y.size else np.where(active, newton, y)
    return y.reshape(C.shape) if C.ndim else float(y[0])
