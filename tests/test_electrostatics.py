import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paddle_lab import (Electrode, InvalidParameter, MeasurementStream, NoiseModel,
                        OutOfRange, TouchViolation, build_model, capacitance_curve,
                        capacitance_value, deflection_series, force_per_v2_value, load_cv_csv,
                        measure_capacitance, model_from_dict, model_to_dict,
                        parallel_plate_capacitance, pull_in_voltage, simulate_cv,
                        solve_equilibrium, sweep_voltage, yp_from_capacitance)
from paddle_lab import electrostatics
from paddle_lab.electrostatics import (SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD,
                                       capacitance_range, capacitance_slope,
                                       gap_line, inversion_bracket, invertible)
from paddle_lab.mechanics import drive_voltages
from paddle_lab.roots import bisect_root

from oracles import electrostatic_force_per_v2_quadrature, paddle_capacitance_quadrature

FLAT_C = 2.2125e-12          # eps0 * (5 mm)^2 / 100 um
FLAT_F_BOTTOM = -1.10625e-8  # -eps0 * (5 mm)^2 / (2 * (100 um)^2)
C_TOP_TILTED = 3.070663626931e-12  # 1e6-panel trapezoid at y_p = 80/3 um, frozen


def test_parallel_plate_value():
    assert parallel_plate_capacitance(25e-6, 100e-6, 8.85e-12) == pytest.approx(FLAT_C, rel=1e-12)


def test_parallel_plate_validation():
    with pytest.raises(InvalidParameter):
        parallel_plate_capacitance(25e-6, 0.0, 8.85e-12)
    with pytest.raises(InvalidParameter):
        parallel_plate_capacitance(-1e-6, 1e-4, 8.85e-12)


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


@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       d_e=st.floats(min_value=41e-6, max_value=300e-6),
       l_b=st.floats(min_value=1e-3, max_value=8e-3),
       electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
       rel_u=st.lists(st.floats(min_value=0.0, max_value=4.0), max_size=6))
@example(d_c=100e-6, d_e=100e-6, l_b=3e-3, electrode=Electrode.TOP,
         fracs=np.linspace(0.0, 1.0, 41).tolist(), rel_u=[0.0, 0.99, 1.0, 1.01])
@example(d_c=41e-6, d_e=300e-6, l_b=8e-3, electrode=Electrode.BOTTOM,
         fracs=[0.0, 1.0], rel_u=[0.5, 1.0, 2.0])
def test_curve_matches_scalar_path(d_c, d_e, l_b, electrode, fracs, rel_u):
    # a lone float (np.log1p on the scalar, or the series) has the bits of the
    # same pose inside an array: poses across the inversion bracket, plus poses
    # with |u| at rel_u times SERIES_U_THRESHOLD on both sides of the flat pose
    m = build_model(d_c=d_c, d_e=d_e, l_b=l_b)
    rest, _, center_ratio, tilt = electrostatics.gap_coefficients(m, electrode)
    lo, hi = inversion_bracket(m)
    u = SERIES_U_THRESHOLD * np.array(rel_u)
    y_u = center_ratio * u * rest / (tilt - u)  # |delta/g0| = u
    y = np.concatenate([np.minimum(lo + np.array(fracs) * (hi - lo), hi), y_u, -y_u])
    curve = capacitance_curve(y, m, electrode)
    scalars = [capacitance_value(v, m, electrode) for v in y.tolist()]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == curve.tobytes()


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


UNKNOWN_ELECTRODE_CALLS = {
    "capacitance_value": lambda m, e, path: capacitance_value(1e-5, m, e),
    "force_per_v2_value": lambda m, e, path: force_per_v2_value(1e-5, m, e),
    "capacitance_slope": lambda m, e, path: capacitance_slope(1e-5, m, e),
    "yp_from_capacitance": lambda m, e, path: yp_from_capacitance(FLAT_C, m, e),
    "deflection_series": lambda m, e, path: deflection_series(
        MeasurementStream(np.array([0.0]), np.array([FLAT_C])), m, e),
    "pull_in_voltage": lambda m, e, path: pull_in_voltage(m, e),
    "sweep_voltage": lambda m, e, path: sweep_voltage(m, e, [0.0, 50.0]),
    "simulate_cv": lambda m, e, path: simulate_cv(m, e, [0.0, 50.0, 100.0]),
    "load_cv_csv": lambda m, e, path: load_cv_csv(path, e),
}


@pytest.mark.parametrize("call", UNKNOWN_ELECTRODE_CALLS.values(), ids=UNKNOWN_ELECTRODE_CALLS)
def test_unknown_electrode_name_is_invalid(default_model, tmp_path, call):
    # a name that is neither electrode's, hashable or not, is refused as the parameter
    # it is, by every function that takes an electrode
    path = tmp_path / "cv.csv"
    path.write_text("V_volt,C_F\n0,2.2e-12\n10,2.2e-12\n20,2.2e-12\n")
    for name, shown in [("left", "'left'"), (["top"], r"\['top'\]")]:
        with pytest.raises(InvalidParameter, match=r"^electrode: must be 'top' or 'bottom', "
                                                    rf"got {shown}$") as info:
            call(default_model, name, path)
        assert info.value.name == "electrode"


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


# l_p/l_b from 0.01 to 30 puts the edge-gap ratio tilt = 2*l_p/l_b on both
# sides of 6 + 4*sqrt(3) ~ 12.93, where the start's quadratic changes sign
INVERSION_CASES = dict(
    d_c=st.floats(min_value=41e-6, max_value=300e-6),
    d_e=st.floats(min_value=41e-6, max_value=300e-6),
    l_b=st.floats(min_value=1e-3, max_value=8e-3),
    lp_per_lb=st.floats(min_value=0.01, max_value=30.0),
    electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))


def _inversion_case(d_c, d_e, l_b, lp_per_lb, electrode, fracs):
    """(model, readings): poses from end to end of the margin-shrunk bracket;
    a reading that rounds onto a bracket end is moved one ulp inside the
    attainable range."""
    m = build_model(d_c=d_c, d_e=d_e, l_b=l_b, l_p=lp_per_lb * l_b)
    lo, hi = inversion_bracket(m)
    c_ends = sorted(capacitance_value(y, m, electrode) for y in (lo, hi))
    y_pose = np.minimum(lo + np.array(fracs) * (hi - lo), hi)
    return m, np.clip(capacitance_value(y_pose, m, electrode),
                      math.nextafter(c_ends[0], math.inf), math.nextafter(c_ends[1], 0.0))


@given(**INVERSION_CASES)
@example(d_c=100e-6, d_e=100e-6, l_b=3e-3, lp_per_lb=5.0 / 3.0, electrode=Electrode.TOP,
         fracs=[0.0, 0.5, 1.0])
@example(d_c=41e-6, d_e=300e-6, l_b=8e-3, lp_per_lb=0.625, electrode=Electrode.BOTTOM,
         fracs=[1.0, 0.0])
@example(d_c=52.53e-6, d_e=293.37e-6, l_b=1.07e-3, lp_per_lb=5.0 / 1.07,
         electrode=Electrode.TOP, fracs=[0.0])
# one ulp above c_min, rounding carries the second Newton step an ulp past
# the bracket end, and the step is clipped back to that end
@example(d_c=194.94e-6, d_e=228.1e-6, l_b=2.03e-3, lp_per_lb=5.0 / 2.03,
         electrode=Electrode.TOP, fracs=[0.0])
@example(d_c=100e-6, d_e=100e-6, l_b=1e-3, lp_per_lb=6.4, electrode=Electrode.TOP,
         fracs=[0.0, 0.3, 0.7, 1.0])
@example(d_c=100e-6, d_e=100e-6, l_b=1e-3, lp_per_lb=6.5, electrode=Electrode.BOTTOM,
         fracs=[0.0, 0.3, 0.7, 1.0])
@example(d_c=41e-6, d_e=300e-6, l_b=1e-3, lp_per_lb=30.0, electrode=Electrode.TOP,
         fracs=[0.0, 0.5, 1.0])
def test_array_inversion_matches_float_path(d_c, d_e, l_b, lp_per_lb, electrode, fracs):
    m, C = _inversion_case(d_c, d_e, l_b, lp_per_lb, electrode, fracs)
    lo, hi = inversion_bracket(m)
    c_lo, c_hi = (capacitance_value(y, m, electrode) for y in (lo, hi))
    y = yp_from_capacitance(C, m, electrode)
    assert y.shape == C.shape
    assert np.all(np.abs(capacitance_value(y, m, electrode) - C) <= 1e-12 * C)
    y_float = np.array([yp_from_capacitance(float(c), m, electrode) for c in C])
    assert np.array_equal(y, y_float)
    column = yp_from_capacitance(C.reshape(-1, 1), m, electrode)
    assert column.shape == (C.size, 1) and np.array_equal(column[:, 0], y)
    # the oracle bisects to machine precision, so the Newton root lies
    # within 2e-12*C/|dC/dy| of it
    for c, y_c in zip(C.tolist(), y.tolist()):
        oracle = bisect_root(lambda v: capacitance_value(v, m, electrode) - c,
                             lo, hi, c_lo - c, c_hi - c)
        assert y_c == pytest.approx(oracle, rel=0.0,
                                    abs=2e-12 * c / abs(capacitance_slope(y_c, m, electrode)))


@pytest.mark.parametrize("tilt", [0.02, 10.0 / 3.0, 12.0, 6.0 + 4.0 * math.sqrt(3.0), 14.0, 60.0])
def test_log_mean_start_is_close_at_every_tilt(tilt):
    # the start's quadratic changes sign at tilt = 6 + 4*sqrt(3), where its
    # leading coefficient rounds to exactly 0 for l_b = 3 mm: on both sides
    # and there, the unclipped start is within 1e-4 of C over half of the
    # bracket and 3e-3 over 80% of it (the mean-gap start was 1e-2 off)
    m = build_model(l_b=3e-3, l_p=0.5 * tilt * 3e-3)
    lo, hi = inversion_bracket(m)
    c = m.constants.eps0 * m.geom.w_p * m.geom.l_p
    for electrode in (Electrode.TOP, Electrode.BOTTOM):
        rest, s, center_ratio, tilt_m = electrostatics.gap_coefficients(m, electrode)
        for frac, bound in ((0.5, 1e-4), (0.8, 3e-3)):
            C = capacitance_value(np.linspace(frac * lo, frac * hi, 201), m, electrode)
            start = s * center_ratio * electrostatics._log_mean_start(c / C, rest, tilt_m)
            assert np.all(np.abs(capacitance_value(start, m, electrode) / C - 1.0) <= bound)


@settings(max_examples=80, deadline=None)
@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       d_e=st.floats(min_value=41e-6, max_value=300e-6),
       log10_tilt=st.floats(min_value=-1.0, max_value=3.0),
       l_p=st.floats(min_value=1e-4, max_value=2e-2),
       electrode=st.sampled_from([Electrode.TOP, Electrode.BOTTOM]),
       rel_u=st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=1, max_size=12),
       sigma_C=st.sampled_from([1e-18, 1e-16, 1e-15]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(d_c=100e-6, d_e=100e-6, log10_tilt=-1.0, l_p=1e-4, electrode=Electrode.TOP,
         rel_u=[-0.99, 0.99], sigma_C=1e-18, seed=0)
@example(d_c=41e-6, d_e=300e-6, log10_tilt=3.0, l_p=2e-2, electrode=Electrode.BOTTOM,
         rel_u=[-0.99, 0.99], sigma_C=1e-15, seed=0)
def test_flat_readings_take_no_newton_step(d_c, d_e, log10_tilt, l_p, electrode, rel_u,
                                           sigma_C, seed):
    # the log-mean start is within O(u^4) of the root (Carlson's bound), so a
    # reading whose root has |u| below SLOPE_SERIES_U_THRESHOLD meets the
    # 1e-12*C tolerance there and comes back as the clipped start, bit for
    # bit: the Newton loop never steps on a slope that needs its own series,
    # and C's series mask serves both helpers
    m = build_model(d_c=d_c, d_e=d_e, l_p=l_p, l_b=2.0 * l_p / 10.0 ** log10_tilt)
    rest, s, center_ratio, tilt = electrostatics.gap_coefficients(m, electrode)
    lo, hi = inversion_bracket(m)
    u = np.concatenate([rel_u, [0.0, -0.0, 5e-324, -5e-324]]) * SLOPE_SERIES_U_THRESHOLD
    # the poses whose delta/g0 is u
    exact = capacitance_value(s * center_ratio * u * rest / (tilt - u), m, electrode)
    noisy = exact + np.random.default_rng(seed).normal(0.0, sigma_C, exact.size)
    C = np.concatenate([exact, noisy[invertible(noisy, m, electrode)]])
    y = yp_from_capacitance(C, m, electrode)
    g0, delta = electrostatics._gap_terms(y, m, electrode)
    flat = np.abs(delta / g0) < SLOPE_SERIES_U_THRESHOLD
    assert np.all(flat[:exact.size])
    start = np.minimum(np.maximum(
        s * center_ratio * electrostatics._log_mean_start(m.eps0_area / C, rest, tilt), lo), hi)
    assert np.array_equal(y[flat].view(np.uint64), start[flat].view(np.uint64))


@given(**INVERSION_CASES)
@example(d_c=194.94e-6, d_e=228.1e-6, l_b=2.03e-3, lp_per_lb=5.0 / 2.03,
         electrode=Electrode.TOP, fracs=[0.0, 1.0])
def test_newton_iterates_approach_root_from_one_side(d_c, d_e, l_b, lp_per_lb, electrode,
                                                     fracs):
    # 1/C is concave and monotone on the bracket: after the start, every
    # iterate has 1/C at or below its target (C at or above it, up to the
    # 1e-12*C tolerance) and the iterates move monotonically to the root
    m, C = _inversion_case(d_c, d_e, l_b, lp_per_lb, electrode, fracs)
    iterates, terms = [], electrostatics._gap_terms

    def recorded(y, model, electrode):  # the Newton loop evaluates arrays
        if not isinstance(y, float):
            iterates.append(y.copy())
        return terms(y, model, electrode)

    with mock.patch.object(electrostatics, "_gap_terms", recorded):
        y = yp_from_capacitance(C, m, electrode)
    assert np.array_equal(iterates[-1], y)
    if len(iterates) == 1:  # the start met the tolerance
        return
    after_start = np.array(iterates[1:])
    assert np.all(capacitance_value(after_start, m, electrode) - C >= -1e-12 * C)
    assert np.all(np.diff(after_start, axis=0) * np.sign(y - after_start[0]) >= 0.0)


def test_inversion_at_range_end_takes_three_evaluations(monkeypatch):
    # C one ulp above c_min: the second Newton step lands a few ulp past the
    # bracket end, where C already meets the 1e-12*C tolerance; clipped back
    # to that end, the reading stops at the third evaluation of C (bisecting
    # towards the end took 11)
    m = build_model(d_c=175.64e-6, d_e=151.52e-6, l_b=1.28e-3)
    C = math.nextafter(electrostatics.capacitance_range(m, Electrode.BOTTOM)[0], math.inf)
    calls, value_terms = [], electrostatics._capacitance_terms

    def counted(*args):
        calls.append(args)
        return value_terms(*args)

    monkeypatch.setattr(electrostatics, "_capacitance_terms", counted)
    y = yp_from_capacitance(C, m, Electrode.BOTTOM)
    assert len(calls) <= 3
    assert y == inversion_bracket(m)[1]
    assert abs(capacitance_value(y, m, Electrode.BOTTOM) - C) <= 1e-12 * C


def test_newton_step_makes_one_gap_line_call(monkeypatch):
    # each Newton step shares one gap-line pass and one log between C and
    # dC/dy, and takes the gap line without the touch check, since every
    # iterate lies inside the bracket; only capacitance_range's two bracket
    # ends take the float path, on the first inversion on a fresh model, which
    # then holds the range
    model = build_model()
    calls = []
    line = electrostatics._gap_terms
    value_terms, slope_terms = electrostatics._capacitance_terms, electrostatics._slope_terms

    def counted(name, f):
        def wrapper(*args):
            calls.append("float" if name == "line" and isinstance(args[0], float) else name)
            return f(*args)
        return wrapper

    C = measure_capacitance(capacitance_value(2e-5, model, Electrode.TOP),
                            NoiseModel(sigma_C=1e-16, seed=3), 200).C_meas
    monkeypatch.setattr(electrostatics, "_gap_terms", counted("line", line))
    monkeypatch.setattr(electrostatics, "_capacitance_terms", counted("value", value_terms))
    monkeypatch.setattr(electrostatics, "_slope_terms", counted("slope", slope_terms))
    for cold in (True, False):
        calls.clear()
        y = yp_from_capacitance(C, model, Electrode.TOP)
        steps = calls[2:] if cold else calls
        assert calls[:2] == ["float", "float"] if cold else "float" not in calls
        evaluations = steps.count("line")
        assert evaluations >= 2
        assert steps == ["line", "value"] + ["slope", "line", "value"] * (evaluations - 1)
        assert np.all(np.abs(capacitance_value(y, model, Electrode.TOP) - C) <= 1e-12 * C)


def test_model_holds_one_range_per_electrode(monkeypatch):
    # capacitance_range, invertible and yp_from_capacitance on one model form
    # each electrode's range once, from two float capacitance_value calls,
    # whether the electrode is named by member or by value; ==, hash and repr
    # leave the held ranges out
    model, fresh = build_model(sigma0=50e6), build_model(sigma0=50e6)
    cold = {e: sorted(capacitance_value(y, fresh, e) for y in inversion_bracket(fresh))
            for e in Electrode}
    messages = {}
    for e in Electrode:
        with pytest.raises(OutOfRange) as exc:
            yp_from_capacitance(2.0 * cold[e][1], build_model(sigma0=50e6), e)
        messages[e] = str(exc.value)
    calls, value = [], electrostatics.capacitance_value

    def counted(y, m, electrode):
        calls.append((m, Electrode(electrode)))
        return value(y, m, electrode)

    monkeypatch.setattr(electrostatics, "capacitance_value", counted)
    for electrode in (Electrode.TOP, Electrode.BOTTOM, "top", "bottom"):
        e = Electrode(electrode)
        assert list(capacitance_range(model, electrode)) == cold[e]
        C = np.linspace(*cold[e], 7)[1:-1]
        assert np.all(invertible(C, model, electrode))
        yp_from_capacitance(C, model, electrode)
        yp_from_capacitance(float(C[2]), model, electrode)
        with pytest.raises(OutOfRange) as exc:  # the held range gives the cold message
            yp_from_capacitance(2.0 * cold[e][1], model, electrode)
        assert str(exc.value) == messages[e]
    assert all(m is model for m, _ in calls)
    assert [e for _, e in calls] == [Electrode.TOP] * 2 + [Electrode.BOTTOM] * 2
    assert set(model._ranges) == set(Electrode)
    assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
    # an equal model, from build_model or from the flat dict, forms its own
    for other in (fresh, model_from_dict(model_to_dict(model))):
        assert other == model and other._ranges == {}
        assert list(capacitance_range(other, Electrode.TOP)) == cold[Electrode.TOP]
        assert [(m is other, e) for m, e in calls[-2:]] == [(True, Electrode.TOP)] * 2
    assert len(calls) == 8


def test_model_forms_its_inversion_constants_once(monkeypatch):
    # a model forms each electrode's inversion constants (_inversion) on its first
    # inversion, whether of an array, a lone float or a stream, or on an array's invertible,
    # named by member or by value; pull-in, solves, sweeps and a simulated C-V set form none,
    # and ==, hash and repr leave the held constants out
    model = build_model(sigma0=50e6)
    formed, make = [], electrostatics._Inversion
    monkeypatch.setattr(electrostatics, "_Inversion",
                        lambda *values: formed.append(values[-1]) or make(*values))
    for electrode in Electrode:
        V = np.linspace(0.0, 0.9 * pull_in_voltage(model, electrode).V_pull_in, 5)
        sweep_voltage(model, electrode, V)
        simulate_cv(model, electrode, V)
        solve_equilibrium(model, *drive_voltages(electrode, V[2]))
        assert type(invertible(2.2e-12, model, electrode)) is bool  # a float reads floats
    assert formed == [] and model._inversions == {}
    assert model._arrays is not None  # the sweeps formed the model's array constants
    for electrode in (Electrode.TOP, Electrode.BOTTOM, "top", "bottom"):
        e = Electrode(electrode)
        C = np.linspace(*capacitance_range(model, e), 7)[1:-1]
        assert np.all(invertible(C, model, electrode))
        yp_from_capacitance(C, model, electrode)
        yp_from_capacitance(float(C[2]), model, electrode)
        stream = measure_capacitance(float(C[3]), NoiseModel(sigma_C=0.0), 4)
        deflection_series(stream, model, electrode)
    assert formed == [-1.0, 1.0]  # each electrode's gap-line sign, top then bottom
    assert set(model._inversions) == set(Electrode)
    fresh = build_model(sigma0=50e6)
    assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
    # an equal model, from build_model or from the flat dict, forms its own
    for other in (fresh, model_from_dict(model_to_dict(model))):
        assert other == model and other._inversions == {}
        invertible(np.array([1e-12]), other, Electrode.BOTTOM)
        assert other._inversions[Electrode.BOTTOM] is not model._inversions[Electrode.BOTTOM]
    assert formed == [-1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_series_subset_matches_lone_poses(default_model, electrode):
    # poses on both sides of the flat pose with |u| on both sides of each
    # series threshold, among closed-form poses across the inversion bracket:
    # every element of an array call (the masked path) has the bits of the
    # same pose evaluated as a one-element array, which takes the closed form
    # without a mask wherever |u| is above both thresholds
    rest, _, center_ratio, tilt = electrostatics.gap_coefficients(default_model, electrode)
    u = np.concatenate([np.outer([SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD],
                                 [0.5, 0.99, 1.01, 2.0]).ravel(), [0.0, 1e-9, 0.05, 0.3]])
    y = np.random.default_rng(5).permutation(np.concatenate(
        [np.concatenate([u, -u]) * center_ratio * rest / tilt,
         np.linspace(*inversion_bracket(default_model), 100)]))
    g0, delta = gap_line(y, default_model, electrode)
    abs_u = np.abs(delta / g0)
    for threshold in (SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD):
        assert np.any(abs_u < threshold) and np.any(abs_u >= threshold)
    for kernel in (capacitance_value, capacitance_slope):
        whole = kernel(y, default_model, electrode)
        lone = np.concatenate([kernel(y[i:i + 1], default_model, electrode)
                               for i in range(y.size)])
        assert whole.tobytes() == lone.tobytes()
    # a lone float takes capacitance_slope's float path, with the same bits
    lone = [capacitance_slope(v, default_model, electrode) for v in y.tolist()]
    assert all(type(v) is float for v in lone)
    assert np.array(lone).tobytes() == capacitance_slope(y, default_model, electrode).tobytes()


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_inversion_never_writes_its_input(default_model, electrode):
    # the inversion writes nothing into C: a writable input keeps its bits,
    # and a stream's read-only C_meas column is accepted as it is
    m = default_model
    C = measure_capacitance(capacitance_value(2e-5, m, electrode),
                            NoiseModel(sigma_C=1e-16, seed=3), 200).C_meas
    assert not C.flags.writeable
    y = yp_from_capacitance(C, m, electrode)
    for writable in (C.copy(), C.reshape(-1, 1).copy()):
        before = writable.tobytes()
        again = yp_from_capacitance(writable, m, electrode)
        assert writable.tobytes() == before
        assert again.shape == writable.shape and again.tobytes() == y.tobytes()


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
@pytest.mark.parametrize("sigma_C", [1e-17, 1e-16, 3e-16])
def test_readout_stream_takes_three_evaluations(default_model, monkeypatch, electrode, sigma_C):
    # from the log-mean start, a 200-reading stream at each readout noise
    # level, at poses over 80% of the travel, meets the 1e-12*C tolerance
    # within three array evaluations of C (the mean-gap start took up to five)
    calls, evaluations = [0], []
    value_terms = electrostatics._capacitance_terms

    def counted(*args):
        calls[0] += 1
        return value_terms(*args)

    monkeypatch.setattr(electrostatics, "_capacitance_terms", counted)
    m = default_model
    for seed, y_p in enumerate(np.linspace(0.8 * m.y_p_min, 0.8 * m.y_p_max, 9).tolist()):
        C = measure_capacitance(capacitance_value(y_p, m, electrode),
                                NoiseModel(sigma_C=sigma_C, seed=seed), 200).C_meas
        calls[0] = 0
        y = yp_from_capacitance(C, m, electrode)
        evaluations.append(calls[0])
        assert np.all(np.abs(capacitance_value(y, m, electrode) - C) <= 1e-12 * C)
    assert 1 <= max(evaluations) <= 3
