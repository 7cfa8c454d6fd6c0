import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from paddle_lab import (Electrode, InvalidParameter, OutOfRange, TouchViolation,
                        build_model, capacitance_curve, capacitance_value,
                        force_per_v2_value, paddle_capacitance_quadrature,
                        parallel_plate_capacitance, yp_from_capacitance)
from paddle_lab import electrostatics
from paddle_lab.electrostatics import (SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD,
                                       capacitance_slope,
                                       electrostatic_force_per_v2_quadrature,
                                       gap_line, inversion_bracket)
from paddle_lab.roots import bisect_root

FLAT_C = 2.2125e-12          # eps0 * (5 mm)^2 / 100 um
FLAT_F_BOTTOM = -1.10625e-8  # -eps0 * (5 mm)^2 / (2 * (100 um)^2)
C_TOP_TILTED = 3.070663626931e-12  # 1e6-panel trapezoid at y_p = 80/3 um, frozen


def test_parallel_plate_value():
    assert parallel_plate_capacitance(25e-6, 100e-6) == pytest.approx(FLAT_C, rel=1e-12)


def test_parallel_plate_validation():
    with pytest.raises(InvalidParameter):
        parallel_plate_capacitance(25e-6, 0.0)
    with pytest.raises(InvalidParameter):
        parallel_plate_capacitance(-1e-6, 1e-4)


def test_flat_capacitance_both_electrodes(default_model):
    for el in (Electrode.TOP, Electrode.BOTTOM):
        assert capacitance_value(0.0, default_model, el) == pytest.approx(FLAT_C, rel=1e-12)


def test_gap_line_geometry(default_model):
    g = default_model.geom
    y_p = 2e-5
    y_b = y_p / g.center_ratio
    g0_t, d_t = gap_line(y_p, default_model, Electrode.TOP)
    g0_b, d_b = gap_line(y_p, default_model, Electrode.BOTTOM)
    assert g0_t == pytest.approx(g.d_c - y_b, rel=1e-14)
    assert g0_b == pytest.approx(g.d_e + y_b, rel=1e-14)
    assert d_t == pytest.approx(-2.0 * y_b * g.l_p / g.l_b, rel=1e-14)
    assert d_b == -d_t


def test_gap_line_far_edge(default_model):
    # the root gap moves with the beam tip y_b, the far edge with y_edge
    g = default_model.geom
    y_p = 3e-5
    y_b = y_p / g.center_ratio
    y_edge = y_b * g.edge_ratio
    g0_t, d_t = gap_line(y_p, default_model, Electrode.TOP)
    g0_b, d_b = gap_line(y_p, default_model, Electrode.BOTTOM)
    assert g0_t == pytest.approx(g.d_c - y_b, rel=1e-14)
    assert g0_t + d_t == pytest.approx(g.d_c - y_edge, rel=1e-14)
    assert g0_b + d_b == pytest.approx(g.d_e + y_edge, rel=1e-14)
    # the tilt slope 2*y_b/l_b carries the gap across the paddle length
    assert d_b == pytest.approx(2.0 * y_b / g.l_b * g.l_p, rel=1e-14)


@given(st.floats(min_value=-0.99, max_value=0.99))
def test_edge_always_beyond_center(frac):
    # the gap at the far edge moves at least as far as the gap under the
    # paddle center, at x = l_p/2
    m = build_model()
    g0, delta = gap_line(frac * m.y_p_max, m, Electrode.BOTTOM)
    d_e = m.geom.d_e
    assert abs(g0 + delta - d_e) >= abs(g0 + 0.5 * delta - d_e)


def test_capacitance_against_quadrature_oracle(default_model):
    y_grid = np.linspace(-55e-6, 55e-6, 21)
    for el in (Electrode.TOP, Electrode.BOTTOM):
        for y in y_grid:
            closed = capacitance_value(float(y), default_model, el)
            quad = paddle_capacitance_quadrature(float(y), default_model, el, 20000)
            assert closed == pytest.approx(quad, rel=1e-8)


def test_quadrature_frozen_value_and_convergence(default_model):
    y = 80e-6 / 3.0
    quad = paddle_capacitance_quadrature(y, default_model, Electrode.TOP, 10**6)
    assert quad == pytest.approx(C_TOP_TILTED, rel=1e-9)
    assert capacitance_value(y, default_model, Electrode.TOP) == pytest.approx(quad, rel=1e-9)
    # composite trapezoid halves the step -> error drops 4x
    ref = capacitance_value(40e-6, default_model, Electrode.TOP)
    errs = [abs(paddle_capacitance_quadrature(40e-6, default_model, Electrode.TOP, n) - ref) / ref
            for n in (100, 200, 400)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.02)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.02)


def test_force_against_quadrature_oracle(default_model):
    for el in (Electrode.TOP, Electrode.BOTTOM):
        for y in (-5e-5, -1e-5, 0.0, 3e-5, 5.5e-5):
            closed = float(force_per_v2_value(y, default_model, el))
            quad = electrostatic_force_per_v2_quadrature(y, default_model, el, 10**5)
            assert closed == pytest.approx(quad, rel=1e-8)


def test_flat_force_value(default_model):
    assert float(force_per_v2_value(0.0, default_model, Electrode.BOTTOM)) == \
        pytest.approx(FLAT_F_BOTTOM, rel=1e-12)
    assert float(force_per_v2_value(0.0, default_model, Electrode.TOP)) == \
        pytest.approx(-FLAT_F_BOTTOM, rel=1e-12)


def test_force_signs_everywhere(default_model):
    y = np.linspace(0.95 * default_model.y_p_min, 0.95 * default_model.y_p_max, 101)
    assert np.all(force_per_v2_value(y, default_model, Electrode.TOP) > 0.0)
    assert np.all(force_per_v2_value(y, default_model, Electrode.BOTTOM) < 0.0)


def test_mirror_symmetry(default_model):
    # d_e = d_c by default, so flipping y swaps the electrodes
    for y in (1e-5, 3e-5, 5e-5):
        assert capacitance_value(y, default_model, Electrode.TOP) == pytest.approx(
            capacitance_value(-y, default_model, Electrode.BOTTOM), rel=1e-14)
        assert float(force_per_v2_value(y, default_model, Electrode.TOP)) == pytest.approx(
            -float(force_per_v2_value(-y, default_model, Electrode.BOTTOM)), rel=1e-14)


def test_capacitance_monotone_toward_electrode(default_model):
    y = np.linspace(0.95 * default_model.y_p_min, 0.95 * default_model.y_p_max, 201)
    c_top = capacitance_curve(y, default_model, Electrode.TOP)
    c_bot = capacitance_curve(y, default_model, Electrode.BOTTOM)
    assert np.all(np.diff(c_top) > 0.0)
    assert np.all(np.diff(c_bot) < 0.0)


def test_curve_matches_scalar_path(default_model):
    # array path (np.log1p/series) must agree with the scalar fast path
    y = np.concatenate([np.linspace(-5e-5, 5e-5, 41), [1e-11, -1e-11, 0.0]])
    curve = capacitance_curve(y, default_model, Electrode.TOP)
    scalars = np.array([capacitance_value(float(v), default_model, Electrode.TOP) for v in y])
    assert np.allclose(curve, scalars, rtol=1e-14, atol=0.0)


def test_series_fallback_continuity(default_model):
    # u crosses the series threshold near y_p = 8e-11 with defaults
    g = default_model.geom
    u_per_yp = (2.0 * g.l_p / g.l_b) / g.center_ratio / g.d_c
    y_star = SERIES_U_THRESHOLD / u_per_yp
    c_below = capacitance_value(y_star * 0.99, default_model, Electrode.TOP)
    c_above = capacitance_value(y_star * 1.01, default_model, Electrode.TOP)
    # the two poses differ physically by ~2e-8 relative; the branch switch
    # must not add anything on top of that
    assert c_below == pytest.approx(c_above, rel=1e-7)
    assert c_below == pytest.approx(FLAT_C, rel=1e-6)


@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       d_e=st.floats(min_value=41e-6, max_value=300e-6),
       l_b=st.floats(min_value=1e-3, max_value=8e-3),
       electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
@example(d_c=100e-6, d_e=100e-6, l_b=3e-3, electrode=Electrode.TOP, fracs=[0.0, 0.5, 1.0])
@example(d_c=41e-6, d_e=300e-6, l_b=8e-3, electrode=Electrode.BOTTOM, fracs=[1.0, 0.0])
def test_capacitance_slope(d_c, d_e, l_b, electrode, fracs):
    m = build_model(d_c=d_c, d_e=d_e, l_b=l_b)
    g = m.geom
    top = electrode is Electrode.TOP
    gap, tilt = (g.d_c if top else g.d_e), 2.0 * g.l_p / g.l_b
    # flat pose, where the closed form is 0/0: exactly the parallel-plate slope
    flat = m.constants.eps0 * g.w_p * g.l_p * (1 + tilt / 2) / (g.center_ratio * (gap * gap))
    assert capacitance_slope(0.0, m, electrode) == (flat if top else -flat)

    # poses across the inversion bracket against a Richardson-extrapolated
    # central difference, with steps well inside the smallest gap
    lo, hi = inversion_bracket(m)
    y = np.append(np.minimum(lo + np.array(fracs) * (hi - lo), hi), 0.0)
    slope = capacitance_slope(y, m, electrode)
    g0, delta = gap_line(y, m, electrode)
    h = 1e-3 * np.minimum(g0, g0 + delta)

    def central(step):
        return (capacitance_value(y + step, m, electrode)
                - capacitance_value(y - step, m, electrode)) / (2.0 * step)

    assert np.allclose(slope, (4.0 * central(h / 2) - central(h)) / 3.0, rtol=1e-7, atol=0.0)
    assert [capacitance_slope(float(v), m, electrode) for v in y] == slope.tolist()

    # the series switch, |u| = SLOPE_SERIES_U_THRESHOLD on either side of the
    # flat pose: poses 2e-13 apart agree within the 1e-12 bound of each branch
    s = -1.0 if top else 1.0
    for u in (SLOPE_SERIES_U_THRESHOLD, -SLOPE_SERIES_U_THRESHOLD):
        y_star = s * g.center_ratio * u * gap / (tilt - u)
        pair = y_star * np.array([1.0 - 1e-13, 1.0 + 1e-13])
        g0, delta = gap_line(pair, m, electrode)
        assert np.sum(np.abs(delta / g0) < SLOPE_SERIES_U_THRESHOLD) == 1
        below, above = capacitance_slope(pair, m, electrode)
        assert below == pytest.approx(above, rel=1e-12)


@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       l_b=st.floats(min_value=1e-3, max_value=8e-3),
       l_p=st.floats(min_value=1e-3, max_value=8e-3),
       electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]))
@example(d_c=100e-6, l_b=3e-3, l_p=5e-3, electrode=Electrode.TOP)
@example(d_c=80e-6, l_b=4.1e-3, l_p=5e-3, electrode=Electrode.TOP)
def test_touch_limits_exclusive(d_c, l_b, l_p, electrode):
    # exactly at the limit the far edge touches: rejected for every geometry,
    # as a float and inside an array; one ulp inside, rounding may close the
    # computed gap, which is rejected too, but a value returned is never wrong
    m = build_model(d_c=d_c, l_b=l_b, l_p=l_p)
    limit = m.y_p_max if electrode is Electrode.TOP else m.y_p_min
    f_sign = 1.0 if electrode is Electrode.TOP else -1.0
    for kernel, sign in ((capacitance_value, 1.0), (force_per_v2_value, f_sign)):
        for y in (limit, 1.0001 * limit):
            with pytest.raises(TouchViolation):
                kernel(y, m, electrode)
            with pytest.raises(TouchViolation):
                kernel(np.array([0.0, y]), m, electrode)
        inside = kernel(np.array([0.999 * limit, -0.999 * limit]), m, electrode)
        assert np.all(np.isfinite(inside) & (inside * sign > 0.0))
        try:
            edge = kernel(math.nextafter(limit, 0.0), m, electrode)
        except TouchViolation:
            continue
        assert math.isfinite(edge) and edge * sign > 0.0


def test_touch_violation(default_model):
    past = default_model.y_p_max * 1.01
    with pytest.raises(TouchViolation):
        capacitance_value(past, default_model, Electrode.TOP)
    with pytest.raises(TouchViolation):
        force_per_v2_value(-past, default_model, Electrode.BOTTOM)
    with pytest.raises(TouchViolation):
        capacitance_curve(np.array([0.0, past]), default_model, Electrode.TOP)


def test_string_electrode(default_model):
    assert capacitance_value(1e-5, default_model, "top") == \
        capacitance_value(1e-5, default_model, Electrode.TOP)
    f = force_per_v2_value(1e-5, default_model, "bottom")
    assert f == force_per_v2_value(1e-5, default_model, Electrode.BOTTOM)
    assert f < 0.0


def test_quadrature_panel_validation(default_model):
    with pytest.raises(InvalidParameter):
        paddle_capacitance_quadrature(0.0, default_model, Electrode.TOP, 1)
    with pytest.raises(InvalidParameter):
        paddle_capacitance_quadrature(0.0, default_model, Electrode.TOP, 2.5)


@given(st.floats(min_value=-5.5e-5, max_value=5.5e-5),
       st.sampled_from([Electrode.TOP, Electrode.BOTTOM]))
def test_inversion_round_trip(y_p, electrode):
    model = build_model()
    C = capacitance_value(y_p, model, electrode)
    assert yp_from_capacitance(C, model, electrode) == pytest.approx(y_p, abs=1e-12)


def test_inversion_bracket_range(default_model):
    lo, hi = inversion_bracket(default_model)
    c_lo = capacitance_value(lo, default_model, Electrode.TOP)
    c_hi = capacitance_value(hi, default_model, Electrode.TOP)
    assert c_lo == pytest.approx(1.421804e-12, rel=1e-5)
    assert c_hi == pytest.approx(8.320709e-12, rel=1e-5)


def test_inversion_out_of_range(default_model):
    for el in (Electrode.TOP, Electrode.BOTTOM):
        with pytest.raises(OutOfRange):
            yp_from_capacitance(10e-12, default_model, el)
        with pytest.raises(OutOfRange):
            yp_from_capacitance(1e-12, default_model, el)  # below c_min
        with pytest.raises(OutOfRange):
            yp_from_capacitance(0.0, default_model, el)
        with pytest.raises(OutOfRange):
            yp_from_capacitance(-1e-12, default_model, el)
        # in an array: the first bad element is named, with the float path's message
        readings = capacitance_value(np.linspace(-2e-5, 2e-5, 7), default_model, el)
        for k, bad in enumerate((math.nan, math.inf, 0.0, -1e-12, 10e-12, 1e-12)):
            C = readings.copy()
            C[k], C[-1] = bad, 10e-12
            with pytest.raises(OutOfRange) as exc:
                yp_from_capacitance(C, default_model, el)
            assert exc.value.row == k
            with pytest.raises(OutOfRange) as scalar:
                yp_from_capacitance(bad, default_model, el)
            assert str(exc.value) == str(scalar.value)
        empty = yp_from_capacitance(np.array([]), default_model, el)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_extreme_round_trip(default_model):
    for y in (55e-6, -55e-6):
        C = capacitance_value(y, default_model, Electrode.TOP)
        assert yp_from_capacitance(C, default_model, Electrode.TOP) == \
            pytest.approx(y, abs=1e-12)
    C = capacitance_value(np.array([55e-6, -55e-6]), default_model, Electrode.TOP)
    assert yp_from_capacitance(C, default_model, Electrode.TOP) == \
        pytest.approx([55e-6, -55e-6], abs=1e-12)


@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       d_e=st.floats(min_value=41e-6, max_value=300e-6),
       l_b=st.floats(min_value=1e-3, max_value=8e-3),
       electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
@example(d_c=100e-6, d_e=100e-6, l_b=3e-3, electrode=Electrode.TOP, fracs=[0.0, 0.5, 1.0])
@example(d_c=41e-6, d_e=300e-6, l_b=8e-3, electrode=Electrode.BOTTOM, fracs=[1.0, 0.0])
# one ulp above c_min, the third Newton step overshoots the bracket end and
# the loop bisects from there
@example(d_c=52.53e-6, d_e=293.37e-6, l_b=1.07e-3, electrode=Electrode.TOP, fracs=[0.0])
def test_array_inversion_matches_float_path(d_c, d_e, l_b, electrode, fracs):
    # poses from end to end of the margin-shrunk bracket; a reading that
    # rounds onto a bracket end is moved one ulp inside the attainable range
    m = build_model(d_c=d_c, d_e=d_e, l_b=l_b)
    lo, hi = inversion_bracket(m)
    c_lo, c_hi = (capacitance_value(y, m, electrode) for y in (lo, hi))
    c_ends = sorted((c_lo, c_hi))
    y_pose = np.minimum(lo + np.array(fracs) * (hi - lo), hi)
    C = np.clip(capacitance_value(y_pose, m, electrode),
                math.nextafter(c_ends[0], math.inf), math.nextafter(c_ends[1], 0.0))
    y = yp_from_capacitance(C, m, electrode)
    assert y.shape == C.shape
    assert np.all(np.abs(capacitance_value(y, m, electrode) - C) <= 1e-12 * C)
    y_float = np.array([yp_from_capacitance(float(c), m, electrode) for c in C])
    assert np.array_equal(y, y_float)
    column = yp_from_capacitance(C.reshape(-1, 1), m, electrode)
    assert column.shape == (C.size, 1) and np.array_equal(column[:, 0], y)
    # bisection to the same tolerance as the oracle: both roots lie within
    # 1e-12*C/|dC/dy| of the true one
    for c, y_c in zip(C.tolist(), y.tolist()):
        oracle = bisect_root(lambda v: capacitance_value(v, m, electrode) - c,
                             lo, hi, c_lo - c, c_hi - c, ftol=1e-12 * c)
        assert y_c == pytest.approx(oracle, rel=0.0,
                                    abs=2e-12 * c / abs(capacitance_slope(y_c, m, electrode)))


def test_inversion_bisects_where_newton_leaves_bracket(default_model, monkeypatch):
    # a slope 1000 times too shallow sends the first Newton step out of the
    # bracket; the loop bisects instead and still meets its tolerance
    iterates = []

    def shallow(y, model, electrode):
        iterates.append(float(y[0]))
        return 1e-3 * capacitance_slope(y, model, electrode)

    monkeypatch.setattr(electrostatics, "capacitance_slope", shallow)
    C = capacitance_value(2e-5, default_model, Electrode.TOP)
    y = yp_from_capacitance(C, default_model, Electrode.TOP)
    assert abs(capacitance_value(y, default_model, Electrode.TOP) - C) <= 1e-12 * C
    lo, hi = inversion_bracket(default_model)
    y0, y1 = iterates[:2]
    assert y1 in (0.5 * (lo + y0), 0.5 * (y0 + hi))  # the midpoint of the bracket
