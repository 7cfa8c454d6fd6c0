import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from paddle_lab import (Electrode, InvalidParameter, NoStableEquilibrium,
                        TouchViolation, build_model, compliance, model_from_dict, model_to_dict,
                        film_force, film_stiffness, force_per_v2_value,
                        pull_in_voltage, simulate_cv, solve_equilibrium, strain_coupling,
                        stress_profile, sweep_voltage, total_force,
                        total_force_curve, zero_voltage_equilibrium)
from paddle_lab import capacitance_value, electrostatics, mechanics
from paddle_lab.electrostatics import gap_coefficients
from paddle_lab.mechanics import (SCAN_MARGIN, StableBranch, _Drive, _scan_equilibrium,
                                  drive_voltages, has_stable_equilibrium)
from paddle_lab.roots import bisect_root

COMPLIANCE = 6.0 * 3e-3 * 8e-3 / (180e9 * 0.3 * (40e-6) ** 3)  # 4.1667e-2 m/N


def test_bending_stress_hand_value():
    # either plan at x = l_b: 6 * 1 mN * 3 mm / (5 mm * (40 um)^2) = 2.25 MPa
    geom = build_model(l_b=3e-3, b_root=5e-3, t_b=40e-6).geom
    for plan in ("triangular", "rectangular"):
        prof = stress_profile(1e-3, geom, plan, 11)
        assert prof.x[-1] == 3e-3
        assert prof.sigma[-1] == pytest.approx(2.25e6, rel=1e-12)


def test_bending_stress_scalings():
    base = stress_profile(1e-3, build_model(t_b=40e-6).geom, "rectangular", 11).sigma
    thick = stress_profile(1e-3, build_model(t_b=80e-6).geom, "rectangular", 11).sigma
    np.testing.assert_allclose(thick, base / 4.0, rtol=1e-12)  # 1/t^2
    double = stress_profile(2e-3, build_model(t_b=40e-6).geom, "rectangular", 11).sigma
    np.testing.assert_allclose(double, 2.0 * base, rtol=1e-12)


def test_stress_profile_triangular_uniform(default_model):
    prof = stress_profile(2e-3, default_model.geom, "triangular", 101)
    assert prof.uniformity == pytest.approx(1.0, abs=1e-12)
    assert np.ptp(prof.sigma) == 0.0


def test_stress_profile_rectangular_ramp(default_model):
    prof = stress_profile(2e-3, default_model.geom, "rectangular", 101)
    # the span [l_b/10, l_b] is a linear ramp with a 10:1 spread
    l_b = default_model.geom.l_b
    assert prof.x[0] == l_b / 10.0 and prof.x[-1] == l_b
    assert prof.uniformity == pytest.approx(10.0, rel=1e-12)
    assert prof.sigma[0] == pytest.approx(prof.sigma[-1] / 10.0, rel=1e-12)


def test_stress_profile_zero_load(default_model):
    prof = stress_profile(0.0, default_model.geom, "rectangular", 11)
    assert prof.uniformity == 1.0
    assert np.all(prof.sigma == 0.0)


def test_stress_profile_validation(default_model):
    with pytest.raises(InvalidParameter):
        stress_profile(1e-3, default_model.geom, "trapezoid", 11)
    with pytest.raises(InvalidParameter):
        stress_profile(1e-3, default_model.geom, "triangular", 1)


@settings(max_examples=100)
@given(P=st.floats(min_value=-10.0, max_value=10.0),
       l_b=st.floats(min_value=1e-3, max_value=1e-2),
       b_root=st.floats(min_value=1e-3, max_value=1e-2),
       t_b=st.floats(min_value=1e-5, max_value=9e-5))
def test_triangular_uniformity_property(P, l_b, b_root, t_b):
    geom = build_model(l_b=l_b, b_root=b_root, t_b=t_b).geom
    prof = stress_profile(P, geom, "triangular", 37)
    assert prof.uniformity == pytest.approx(1.0, abs=1e-12)


def test_compliance_value(default_model):
    assert compliance(default_model) == pytest.approx(COMPLIANCE, rel=1e-12)
    assert 1.0 / compliance(default_model) == pytest.approx(24.0, rel=1e-12)


def test_compliance_thickness_scaling(default_model):
    doubled = build_model(t_b=80e-6)
    assert compliance(doubled) == pytest.approx(compliance(default_model) / 8.0, rel=1e-12)


def test_strain_coupling_value(default_model):
    # t_b / (l_b * (l_b + l_p)) = 40 um / (3 mm * 8 mm)
    assert strain_coupling(default_model) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_film_force_hand_value(with_sigma0):
    m = with_sigma0(100e6)
    # E_F*V_F*a*eps_F0 with eps_F0 = sigma0/E_F: 1e8 * 1.5e-12 * (5/3)
    assert float(film_force(0.0, m)) == pytest.approx(2.5e-4, rel=1e-12)
    assert float(film_force(0.0, with_sigma0(0.0))) == 0.0


def test_film_stiffness_matches_finite_difference(with_sigma0):
    m = with_sigma0(100e6)
    k = film_stiffness(m)
    assert k == pytest.approx(70e9 * 1.5e-12 * (5.0 / 3.0) ** 2, rel=1e-12)
    h = 1e-9
    fd = -(float(film_force(h, m)) - float(film_force(-h, m))) / (2.0 * h)
    assert fd == pytest.approx(k, rel=1e-6)


def test_total_force_zero_state(with_sigma0):
    b = total_force(0.0, 0.0, 0.0, with_sigma0(0.0))
    assert b.F_film == 0.0 and b.F_beam == 0.0
    assert b.F_elec_top == 0.0 and b.F_elec_bottom == 0.0
    assert b.F_total == 0.0


def test_total_force_sum_identity(with_sigma0):
    m = with_sigma0(150e6)
    b = total_force(1.5e-5, 30.0, 20.0, m)
    assert b.F_total == b.F_film + b.F_beam + b.F_elec_top + b.F_elec_bottom


def test_total_force_voltage_additivity(with_sigma0):
    m = with_sigma0(100e6)
    y, V = 1e-5, 40.0
    with_v = total_force(y, 0.0, V, m)
    without = total_force(y, 0.0, 0.0, m)
    expected = float(force_per_v2_value(y, m, Electrode.BOTTOM)) * V * V
    assert with_v.F_total - without.F_total == pytest.approx(expected, rel=1e-12)
    assert with_v.F_elec_bottom == pytest.approx(expected, rel=1e-12)


def test_total_force_touch_violation(default_model):
    with pytest.raises(TouchViolation):
        total_force(default_model.y_p_max * 1.01, 0.0, 0.0, default_model)


def test_total_force_curve_matches_scalar(with_sigma0):
    m = with_sigma0(100e6)
    y = np.linspace(-5e-5, 5e-5, 17)
    curve = total_force_curve(y, 10.0, 25.0, m)
    scalars = [total_force(float(v), 10.0, 25.0, m).F_total for v in y]
    assert np.allclose(curve, scalars, rtol=1e-12, atol=0.0)


def test_equilibrium_trivial_origin(with_sigma0):
    sol = solve_equilibrium(with_sigma0(0.0))
    assert sol.y_p == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("sigma0", [50e6, 100e6, 200e6, 300e6, -50e6, -100e6,
                                    -200e6, -300e6])
def test_equilibrium_matches_closed_form(with_sigma0, sigma0):
    m = with_sigma0(sigma0)
    sol = solve_equilibrium(m)
    expected = zero_voltage_equilibrium(m)
    assert sol.y_p == pytest.approx(expected, rel=1e-10)
    assert m.y_p_min < sol.y_p < m.y_p_max


def test_equilibrium_linear_in_stress(with_sigma0):
    y1 = solve_equilibrium(with_sigma0(100e6)).y_p
    y2 = solve_equilibrium(with_sigma0(200e6)).y_p
    y3 = solve_equilibrium(with_sigma0(300e6)).y_p
    assert y2 / y1 == pytest.approx(2.0, rel=1e-10)
    assert y3 / y1 == pytest.approx(3.0, rel=1e-10)
    assert y1 == pytest.approx(1.029159519726e-5, rel=1e-9)


def test_equilibrium_residual_and_stability(with_sigma0):
    m = with_sigma0(200e6)
    sol = solve_equilibrium(m, 0.0, 50.0)
    scale = max(abs(float(film_force(0.0, m))), m.y_p_max / compliance(m))
    assert abs(sol.residual) <= 1e-15 * scale
    h = 1e-9
    slope = (total_force(sol.y_p + h, 0.0, 50.0, m).F_total
             - total_force(sol.y_p - h, 0.0, 50.0, m).F_total) / (2.0 * h)
    assert slope < 0.0


def test_equilibrium_both_electrodes_driven(with_sigma0):
    m = with_sigma0(100e6)
    sol = solve_equilibrium(m, 60.0, 80.0)
    scale = max(abs(float(film_force(0.0, m))), m.y_p_max / compliance(m))
    assert abs(sol.residual) <= 1e-15 * scale
    h = 1e-9
    slope = (total_force(sol.y_p + h, 60.0, 80.0, m).F_total
             - total_force(sol.y_p - h, 60.0, 80.0, m).F_total) / (2.0 * h)
    assert slope < 0.0
    # the lowest restoring zero on a grid five times finer than the scan's
    y = np.linspace(m.y_p_min * (1.0 - 1e-6), m.y_p_max * (1.0 - 1e-6), 20001)
    positive = total_force_curve(y, 60.0, 80.0, m) > 0.0
    i = np.nonzero(positive[:-1] & ~positive[1:])[0][0]
    assert abs(sol.y_p - 0.5 * (y[i] + y[i + 1])) <= y[1] - y[0]
    # the scan path's columns are the checked kernels' at sol.y_p, bit for bit
    expected = dict(vars(total_force(sol.y_p, 60.0, 80.0, m)),
                    C_top=capacitance_value(sol.y_p, m, Electrode.TOP))
    for name, value in expected.items():
        assert _bits(getattr(sol, name)) == _bits(value), name


def test_equilibrium_both_electrodes_no_restoring_zero(with_sigma0):
    # equal gaps and drives well past pull-in: the one zero, at y_p = 0, is unstable
    with pytest.raises(NoStableEquilibrium, match=r"\(1 unstable zero\(s\) found\)"):
        solve_equilibrium(with_sigma0(0.0), 300.0, 300.0)


def test_equilibrium_rejects_negative_voltage(default_model):
    with pytest.raises(InvalidParameter):
        solve_equilibrium(default_model, -1.0, 0.0)


def _refused_drive(reported):
    """The drive's InvalidParameter message, ending in the voltage it reports."""
    return (r"^V: drive voltages must be finite and >= 0, with a finite square "
            rf"\(force is even in V\), got {re.escape(repr(reported))}$")


# (V, the value the drive reports); an array's failing extreme is reported, the minimum first
REFUSED_DRIVES = [(math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
                  (1.4e154, 1.4e154), ([-1.0, math.inf], -1.0), ([0.0, 1.4e154], 1.4e154),
                  ([1.0, math.nan, 2.0], math.nan)]


@pytest.mark.parametrize("V, reported", REFUSED_DRIVES,
                         ids=[str(V).replace(" ", "") for V, _ in REFUSED_DRIVES])
def test_non_finite_drive_is_invalid_input(default_model, V, reported):
    # an invalid drive is InvalidParameter, not a missing equilibrium; 1.4e154
    # is finite, but its square overflows
    message = _refused_drive(reported)
    if np.ndim(V) == 0:
        for drive in ((V, 0.0), (0.0, V), (V, V)):
            with pytest.raises(InvalidParameter, match=message):
                solve_equilibrium(default_model, *drive)
        V = [10.0, V, 20.0]
    for electrode in Electrode:
        with pytest.raises(InvalidParameter, match=message):
            sweep_voltage(default_model, electrode, V)
        with pytest.raises(InvalidParameter, match=message):
            _Drive(default_model, electrode, np.array(V))
    assert sweep_voltage(default_model, Electrode.TOP, [10.0, 20.0]).y_p.shape == (2,)


@pytest.mark.parametrize("electrode", list(Electrode))
def test_drive_keeps_a_signed_zero(default_model, electrode):
    # -0.0 is a drive voltage >= 0: accepted, kept in V, squared into v2 and
    # unforced; a sweep and the force curve give the bits they give at +0.0
    V = np.array([-0.0, 5.0])
    drive = _Drive(default_model, electrode, V)
    assert np.signbit(drive.V).tolist() == [True, False]
    assert drive.v2.tobytes() == (V * V).tobytes() and drive.unforced.tolist() == [True, False]
    signed, plain = (sweep_voltage(default_model, electrode, v) for v in (V, [0.0, 5.0]))
    assert np.signbit(signed.V).tolist() == [True, False]
    for name in SWEEP_COLUMNS[1:]:
        assert getattr(signed, name).tobytes() == getattr(plain, name).tobytes(), name
    y = np.array([-1e-6, 0.0, 1e-6])
    assert (total_force_curve(y, *drive_voltages(electrode, -0.0), default_model).tobytes()
            == total_force_curve(y, 0.0, 0.0, default_model).tobytes())


@pytest.mark.parametrize("sigma0", [-200e6, 0.0, 100e6, 250e6])
def test_equilibrium_residual_is_total_force_curve_bitwise(with_sigma0, sigma0):
    # one electrode driven, or neither, takes the residual from the branch's
    # force under the solve's own drive; it keeps the bits of the two-drive
    # total force, which the both-driven scan path takes itself
    m = with_sigma0(sigma0)
    v_top, v_bottom = (pull_in_voltage(m, e).V_pull_in for e in (Electrode.TOP, Electrode.BOTTOM))
    drives = [(0.0, 0.0), (0.5 * v_top, 0.0), (0.999 * v_top, 0.0), (0.0, 0.5 * v_bottom),
              (0.0, 0.999 * v_bottom), (0.3 * v_top, 0.3 * v_bottom)]
    for drive in drives:
        sol = solve_equilibrium(m, *drive)
        assert _bits(sol.residual) == _bits(total_force_curve(sol.y_p, *drive, m)), drive


def test_force_curve_refuses_what_the_drive_refuses(default_model):
    # total_force_curve and the scan oracle check V in the drive, instead of
    # squaring a negative or non-finite voltage; an array drive is refused
    # before it is broadcast against y
    for V, reported in [(-1.0, -1.0)] + REFUSED_DRIVES:
        message = _refused_drive(reported)
        for y in (np.array([-1e-6, 0.0, 1e-6]), 0.0):
            for drive in ((V, 0.0), (0.0, V)):
                with pytest.raises(InvalidParameter, match=message):
                    total_force_curve(y, *drive, default_model)
        if np.ndim(V) == 0:
            with pytest.raises(InvalidParameter, match=message):
                has_stable_equilibrium(default_model, Electrode.BOTTOM, V)


def test_equilibrium_beyond_pull_in(with_sigma0):
    with pytest.raises(NoStableEquilibrium):
        solve_equilibrium(with_sigma0(0.0), 0.0, 500.0)


def test_pull_in_frozen_values(with_sigma0):
    # dense-scan oracle values, bisection keeps within half a 0.01 V step
    cases = [(0.0, 173.2354), (100e6, 204.5303), (200e6, 236.4785)]
    for sigma0, expected in cases:
        pi = pull_in_voltage(with_sigma0(sigma0), Electrode.BOTTOM)
        assert pi.V_pull_in == pytest.approx(expected, abs=0.01)
        assert pi.electrode is Electrode.BOTTOM


def test_pull_in_brackets_transition(with_sigma0):
    m = with_sigma0(100e6)
    pi = pull_in_voltage(m, Electrode.BOTTOM)
    assert has_stable_equilibrium(m, Electrode.BOTTOM, pi.V_pull_in - 0.02)
    assert not has_stable_equilibrium(m, Electrode.BOTTOM, pi.V_pull_in * 1.001)
    sol = solve_equilibrium(m, 0.0, pi.V_pull_in - 0.02)
    assert sol.y_p == pytest.approx(pi.y_p_last_stable, abs=1e-6)


def test_pull_in_monotone_in_gap(with_sigma0):
    values = []
    for d_e in (100e-6, 150e-6, 200e-6):
        m = build_model(sigma0=100e6, d_e=d_e)
        values.append(pull_in_voltage(m, Electrode.BOTTOM).V_pull_in)
    assert values[0] < values[1] < values[2]


def test_pull_in_shifts_with_prestress(with_sigma0):
    v0 = pull_in_voltage(with_sigma0(0.0), Electrode.BOTTOM).V_pull_in
    v1 = pull_in_voltage(with_sigma0(100e6), Electrode.BOTTOM).V_pull_in
    assert abs(v1 - v0) > 1.0


def test_pull_in_dense_scan_agreement(with_sigma0):
    m = with_sigma0(100e6)
    v_pi = pull_in_voltage(m, Electrode.BOTTOM).V_pull_in
    lattice = np.arange(v_pi - 0.3, v_pi + 0.31, 0.01)
    unstable = [v for v in lattice if not has_stable_equilibrium(m, Electrode.BOTTOM, float(v))]
    assert unstable, "scan window must straddle the transition"
    assert abs(v_pi - unstable[0]) <= 0.01


def test_sweep_single_voltage(with_sigma0):
    m = with_sigma0(100e6)
    result = sweep_voltage(m, Electrode.BOTTOM, [0.0])
    assert result.y_p.shape == (1,)
    assert result.truncated_at is None
    assert result.y_p[0] == solve_equilibrium(m).y_p


def test_sweep_monotone_toward_electrode(with_sigma0):
    m = with_sigma0(100e6)
    result = sweep_voltage(m, Electrode.BOTTOM, np.linspace(0.0, 150.0, 16))
    assert result.y_p.shape == (16,)
    assert np.all(np.diff(result.y_p) < 0.0)
    assert np.all(np.diff(result.C_top) < 0.0)  # receding from the top plate


def test_sweep_truncation(with_sigma0):
    m = with_sigma0(100e6)
    result = sweep_voltage(m, Electrode.BOTTOM, [0.0, 100.0, 300.0, 400.0])
    assert result.V.tolist() == [0.0, 100.0]
    assert result.truncated_at == 300.0


def test_sweep_validation(default_model):
    with pytest.raises(InvalidParameter):
        sweep_voltage(default_model, Electrode.BOTTOM, [])
    with pytest.raises(InvalidParameter):
        sweep_voltage(default_model, Electrode.BOTTOM, [-5.0, 10.0])
    with pytest.raises(InvalidParameter, match=r"^V_list: must be a 1-D list of voltages"):
        sweep_voltage(default_model, Electrode.BOTTOM, [[1.0, 2.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_non_finite_voltages(default_model, bad):
    # the drive's check, wherever the bad voltage sorts
    message = (r"^V: drive voltages must be finite and >= 0, with a finite square "
               rf"\(force is even in V\), got {bad!r}$")
    for V_list in ([bad, 10.0], np.array([10.0, 0.0, bad])):
        with pytest.raises(InvalidParameter, match=message) as info:
            sweep_voltage(default_model, Electrode.TOP, V_list)
        assert info.value.name == "V"


def test_sweep_orders_voltages(with_sigma0):
    m = with_sigma0(100e6)
    result = sweep_voltage(m, Electrode.BOTTOM, [50.0, 0.0, 100.0])
    assert result.V.tolist() == [0.0, 50.0, 100.0]


def _bits(x) -> int:
    """The IEEE-754 bits of a float, so that -0.0 and +0.0 differ."""
    return int(np.float64(x).view(np.uint64))


SWEEP_COLUMNS = ("V", "y_p", "C_top", "F_film", "F_beam", "F_elec_top", "F_elec_bottom",
                 "F_total")


@pytest.mark.parametrize("voltages,electrode", [
    (np.linspace(0.0, 200.0, 7), Electrode.BOTTOM),
    ([150.0, 0.0, 0.0, 50.0], Electrode.TOP),
    ([400.0, 10.0, 500.0], Electrode.TOP),  # truncated after one row
    ([400.0, 500.0], Electrode.TOP),        # truncated at its first voltage
])
def test_sweep_records_view_equals_columns(with_sigma0, voltages, electrode):
    result = sweep_voltage(with_sigma0(100e6), electrode, voltages)
    columns = [getattr(result, name) for name in SWEEP_COLUMNS]
    n = result.V.size
    for column in columns:
        assert column.dtype == np.float64 and column.shape == (n,)
    assert len(result.records) == n
    for i, r in enumerate(result.records):
        row = (r.V, r.y_p, r.C_top, r.breakdown.F_film, r.breakdown.F_beam,
               r.breakdown.F_elec_top, r.breakdown.F_elec_bottom, r.breakdown.F_total)
        assert all(type(x) is float for x in row)
        assert np.array(row).tobytes() == np.array([c[i] for c in columns]).tobytes()
    assert result.records is result.records  # built once
    if n == 0:
        assert result.records == []
        assert result.truncated_at == 400.0


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(min_value=-300e6, max_value=300e6),
       d_e=st.floats(min_value=100e-6, max_value=200e-6),
       electrode=st.sampled_from(list(Electrode)),
       fraction=st.floats(min_value=0.0, max_value=0.999))
# 229.76 V on top puts y_p at -8.2e-10 m, where the two solvers differ by
# 1.5e-20 m, 1.8e-11 relative: rounding of the force sum, not of y_p
@example(sigma0=-233.6e6, d_e=120e-6, electrode=Electrode.TOP, fraction=0.9288575)
def test_branch_agrees_with_scan_oracle(with_sigma0, sigma0, d_e, electrode, fraction):
    m = with_sigma0(sigma0, d_e=d_e)
    pi = pull_in_voltage(m, electrode)
    v_pi = pi.V_pull_in
    assert has_stable_equilibrium(m, electrode, v_pi * (1.0 - 2e-5))
    assert not has_stable_equilibrium(m, electrode, v_pi * (1.0 + 2e-5))
    drive = drive_voltages(electrode, fraction * v_pi)
    # abs covers y_p near 0, where both answers carry the rounding of the
    # force sum (about ulp(prestress)/stiffness), not of y_p
    scale = abs(pi.y_p_last_stable - zero_voltage_equilibrium(m))
    assert solve_equilibrium(m, *drive).y_p == pytest.approx(
        _scan_equilibrium(m, *drive), rel=1e-12, abs=1e-14 * scale)


@pytest.mark.parametrize("sigma0, side", [(8e8, "top"), (-8e8, "bottom")])
def test_pinned_at_rest_is_named(with_sigma0, sigma0, side):
    m = with_sigma0(sigma0)
    V = np.linspace(0.0, 300.0, 7)
    calls = [lambda: solve_equilibrium(m),
             lambda: pull_in_voltage(m, Electrode.TOP),
             lambda: pull_in_voltage(m, Electrode.BOTTOM),
             lambda: sweep_voltage(m, Electrode.TOP, V),
             lambda: sweep_voltage(m, Electrode.BOTTOM, V),
             lambda: simulate_cv(m, Electrode.BOTTOM, V)]
    for call in calls:
        with pytest.raises(NoStableEquilibrium,
                           match=f"pins the paddle against the {side} electrode"):
            call()
    # the other electrode pulls the paddle free at 350 and 400 V: those keep their rows
    free = Electrode.BOTTOM if side == "top" else Electrode.TOP
    assert sweep_voltage(m, free, [350.0, 400.0]).V.tolist() == [350.0, 400.0]


@pytest.mark.parametrize("sigma0", [8e8, -8e8, 5e8])
def test_branch_agrees_with_scan_when_stress_pins(with_sigma0, sigma0):
    # at 8e8 Pa the rest deflection lies past the top touch limit; the
    # bottom drive frees the paddle between about 335 and 442 V
    m = with_sigma0(sigma0)
    stable = 0
    for electrode in Electrode:
        for V in np.linspace(0.0, 600.0, 61):
            drive = drive_voltages(electrode, float(V))
            try:
                expected = _scan_equilibrium(m, *drive)
            except NoStableEquilibrium:
                expected = None
            try:
                got = solve_equilibrium(m, *drive).y_p
            except NoStableEquilibrium:
                got = None
            if expected is None:
                assert got is None, (electrode, V)
            else:
                assert got == pytest.approx(expected, rel=1e-12), (electrode, V)
                stable += 1
    assert stable > 0


def test_pull_in_is_maximum_of_balancing_voltage(with_sigma0):
    m = with_sigma0(100e6)
    pi = pull_in_voltage(m, Electrode.BOTTOM)
    # the balancing drive V^2 = -F_mech/f_e, on a grid along the branch
    y = np.linspace(0.999 * m.y_p_min, zero_voltage_equilibrium(m), 20001)
    v2 = -total_force_curve(y, 0.0, 0.0, m) / force_per_v2_value(y, m, Electrode.BOTTOM)
    assert pi.V_pull_in**2 >= v2.max() * (1.0 - 1e-14)
    assert pi.V_pull_in**2 == pytest.approx(v2.max(), rel=1e-8)
    assert pi.y_p_last_stable == pytest.approx(y[np.argmax(v2)], abs=2.0 * (y[1] - y[0]))


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(min_value=-300e6, max_value=300e6),
       d_e=st.floats(min_value=100e-6, max_value=200e-6),
       electrode=st.sampled_from(list(Electrode)))
def test_pull_in_is_exact_maximum(with_sigma0, sigma0, d_e, electrode):
    # dV^2/dy_p of V^2 ~ F_mech(y_p)*g0(y_p)*g1(y_p), in exact arithmetic on
    # the model's float coefficients, changes sign within 1e-12 of y_PI
    m = with_sigma0(sigma0, d_e=d_e)
    y_pi = pull_in_voltage(m, electrode).y_p_last_stable
    gap, s, cr, tilt = (Fraction(v) for v in gap_coefficients(m, electrode))
    prestress = Fraction(float(film_force(0.0, m)))
    k_lin = Fraction(film_stiffness(m)) + Fraction(1.0 / compliance(m))
    b0 = s / cr
    b1 = (1 + tilt) * b0

    def dv2(y: float) -> Fraction:
        y = Fraction(y)
        g0, g1 = gap + b0 * y, gap + b1 * y
        return -k_lin * g0 * g1 + (prestress - k_lin * y) * (b0 * g1 + b1 * g0)

    assert (dv2(y_pi * (1.0 - 1e-12)) > 0) != (dv2(y_pi * (1.0 + 1e-12)) > 0)


def test_equilibrium_at_pull_in_voltage_refused(with_sigma0):
    m = with_sigma0(100e6)
    pi = pull_in_voltage(m, Electrode.BOTTOM)
    with pytest.raises(NoStableEquilibrium, match="pull-in voltage is 204.5299 V"):
        solve_equilibrium(m, 0.0, pi.V_pull_in)
    sol = solve_equilibrium(m, 0.0, pi.V_pull_in * (1.0 - 1e-12))
    assert sol.y_p == pytest.approx(pi.y_p_last_stable, rel=1e-4)


def test_drive_voltages():
    assert drive_voltages(Electrode.TOP, 5.0) == (5.0, 0.0)
    assert drive_voltages(Electrode.BOTTOM, 5.0) == (0.0, 5.0)
    assert drive_voltages("top", 5.0) == (5.0, 0.0)


@pytest.mark.parametrize("sigma0", [0.0, 1e6, -75e6, 150e6, -300e6, 300e6])
@pytest.mark.parametrize("electrode", list(Electrode))
def test_zero_voltage_returns_rest(with_sigma0, sigma0, electrode):
    m = with_sigma0(sigma0)
    rest = zero_voltage_equilibrium(m)
    assert solve_equilibrium(m, *drive_voltages(electrode, 0.0)).y_p == rest
    result = sweep_voltage(m, electrode, [0.0, 10.0, 0.0])
    assert result.V.tolist() == [0.0, 0.0, 10.0] and result.truncated_at is None
    assert result.y_p[:2].tolist() == [rest, rest]


@pytest.mark.parametrize("sigma0", [8e8, -8e8])
@pytest.mark.parametrize("electrode", list(Electrode))
def test_zero_voltage_pinned_is_named(with_sigma0, sigma0, electrode):
    # film stress pins the paddle against the top electrode (+) or the bottom
    # one (-); a drive on either electrode is refused as pinned, and a V > 0
    # is named, also on the electrode the paddle is pinned against
    m = with_sigma0(sigma0)
    side = "top" if sigma0 > 0.0 else "bottom"
    pinned = rf"^film stress pins the paddle against the {side} electrode: rest y_p = \S+ m "
    at_rest = pinned + r"lies past the touch limit \S+ m$"
    with pytest.raises(NoStableEquilibrium, match=at_rest):
        pull_in_voltage(m, electrode)
    for V in ([0.0], np.zeros(2)):
        with pytest.raises(NoStableEquilibrium, match=at_rest):
            sweep_voltage(m, electrode, V)
    with pytest.raises(NoStableEquilibrium, match=at_rest):
        solve_equilibrium(m, *drive_voltages(electrode, 0.0))
    free = rf"; 10.0 V on the {electrode.value} electrode does not pull it free$"
    with pytest.raises(NoStableEquilibrium, match=pinned + ".*" + free):
        solve_equilibrium(m, *drive_voltages(electrode, 10.0))
    with pytest.raises(NoStableEquilibrium, match=pinned + ".*" + free):
        sweep_voltage(m, electrode, [20.0, 10.0])


@pytest.mark.parametrize("electrode", list(Electrode))
def test_rest_on_the_driven_end_is_pinned(default_model, electrode):
    # the measure-zero edge: rest lies exactly on the driven electrode's end of
    # the scan interval. The branch is pinned, every V is refused as pinned,
    # and pull_in() returns a finite pair whose V_PI^2 no caller takes the root of
    end = StableBranch(default_model, electrode).end
    branch = StableBranch(default_model, electrode, (2.0 * end, 2.0))
    assert branch.rest == branch.start == branch.end and branch.pinned
    y_pi, v2_pi = branch.pull_in()
    assert y_pi == end and math.isfinite(v2_pi)
    for V in (0.0, 10.0, np.array([0.0, 10.0])):
        y, error = branch._roots(_Drive(default_model, electrode, V))
        assert np.all(np.isnan(y))
        assert isinstance(error, NoStableEquilibrium)
        assert f"pins the paddle against the {electrode.value} electrode" in str(error)


@pytest.mark.parametrize("electrode", list(Electrode))
def test_near_pull_in_stays_on_stable_side(with_sigma0, electrode):
    # near V_PI the cubic's two upper roots merge: the answer is a y_p in
    # [far, y_PI], or a refusal when V is within rounding of V_PI
    for sigma0 in np.linspace(-300e6, 300e6, 13):
        m = with_sigma0(float(sigma0))
        pi = pull_in_voltage(m, electrode)
        lo, hi = sorted((StableBranch(m, electrode).far, pi.y_p_last_stable))
        result = sweep_voltage(m, electrode, pi.V_pull_in * (1.0 - np.array([1e-4, 1e-8, 1e-12])))
        assert result.truncated_at is None
        assert np.all((lo <= result.y_p) & (result.y_p <= hi))
        try:
            y = solve_equilibrium(m, *drive_voltages(electrode, math.nextafter(
                pi.V_pull_in, 0.0))).y_p
        except NoStableEquilibrium as exc:
            assert "pull-in voltage is" in str(exc)
        else:
            assert lo <= y <= hi


# the default gap pair and the other one of tests/test_signed_forms.py's MODELS
GAP_PAIRS = [(100e-6, 100e-6), (120e-6, 210e-6)]


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(min_value=-400e6, max_value=400e6),
       gaps=st.sampled_from(GAP_PAIRS), electrode=st.sampled_from(list(Electrode)))
# the 21st voltage of the sweep, 147.02344299586107 V, is V_PI as printed, where
# dF/dy_p is rounding noise: a Newton step on it puts the pose at -1.842e-05 m, back
# toward rest (-8.79e-06 m) from the 20th row's -2.564e-05 m, with y_PI at -3.368e-05 m
@example(sigma0=-85425417.0425953, gaps=GAP_PAIRS[0], electrode=Electrode.BOTTOM)
def test_poses_move_toward_pull_in_up_to_it(with_sigma0, sigma0, gaps, electrode):
    m = with_sigma0(sigma0, d_c=gaps[0], d_e=gaps[1])
    assume(not StableBranch(m, electrode).pinned)
    pi = pull_in_voltage(m, electrode)
    v_pi, y_pi = pi.V_pull_in, pi.y_p_last_stable
    scale = abs(y_pi - zero_voltage_equilibrium(m))
    # a sweep to past pull-in, and three voltages within rounding of V_PI
    for V in (np.linspace(0.0, 1.05 * v_pi, 22),
              [0.99 * v_pi, v_pi * (1.0 - 1e-15), math.nextafter(v_pi, 0.0)]):
        result = sweep_voltage(m, electrode, V)
        y = result.y_p.tolist()
        for v, before, y_p in zip(result.V[1:].tolist(), y, y[1:]):
            assert min(before, y_pi) <= y_p <= max(before, y_pi), v
        for v, y_p in zip(result.V.tolist(), y):
            try:
                expected = _scan_equilibrium(m, *drive_voltages(electrode, v))
            except NoStableEquilibrium:  # the scan resolves no pose within rounding of V_PI
                continue
            assert y_p == pytest.approx(expected, rel=1e-12, abs=1e-14 * scale), v


def test_refused_where_force_keeps_its_sign_at_pull_in(with_sigma0):
    # V^2 rounds below V_PI^2, yet the computed force at y_PI still pulls
    # toward the electrode, as at the rest-side end: no sign change, no root
    m = with_sigma0(-86619379.35592344, d_c=0.000188528190878437,
                    d_e=0.00014981508604812926, l_b=0.005074927257528863)
    V = 198.19144870442844
    assert V * V < StableBranch(m, Electrode.BOTTOM).pull_in()[1]
    with pytest.raises(NoStableEquilibrium, match="pull-in voltage is"):
        solve_equilibrium(m, 0.0, V)
    result = sweep_voltage(m, Electrode.BOTTOM, [0.0, V])
    assert result.V.tolist() == [0.0] and result.truncated_at == V


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(min_value=-300e6, max_value=300e6),
       scales=st.tuples(*[st.floats(min_value=0.5, max_value=2.0)] * 3),
       electrode=st.sampled_from(list(Electrode)),
       fractions=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=6))
# rest within one scan cell of a scan bound: at half V_PI the stable root and y_PI
# share the grid's end cell, and the scan sees no sign change
@example(sigma0=298191355.0, scales=(0.5, 2.0, 1.0), electrode=Electrode.TOP, fractions=[0.5])
@example(sigma0=-298191355.0, scales=(2.0, 0.5, 1.0), electrode=Electrode.BOTTOM,
         fractions=[0.5])
def test_branch_array_agrees_with_scan(with_sigma0, default_model, sigma0, scales,
                                       electrode, fractions):
    g = default_model.geom
    m = with_sigma0(sigma0, d_c=g.d_c * scales[0], d_e=g.d_e * scales[1], l_b=g.l_b * scales[2])
    assume(not StableBranch(m, electrode).pinned)
    pi = pull_in_voltage(m, electrode)
    V = np.sort(pi.V_pull_in * np.array(fractions))
    y = sweep_voltage(m, electrode, V).y_p
    assert y.size == V.size
    floats = [solve_equilibrium(m, *drive_voltages(electrode, v)).y_p for v in V.tolist()]
    assert floats == y.tolist()  # same bits as floats
    # abs covers y_p near 0, where both answers carry the rounding of the
    # force sum (about ulp(prestress)/stiffness), not of y_p
    scale = abs(pi.y_p_last_stable - zero_voltage_equilibrium(m))
    for v, y_p in zip(V.tolist(), y):
        assert y_p == pytest.approx(_scan_or_cell_root(m, electrode, v, pi.y_p_last_stable),
                                    rel=1e-12, abs=1e-14 * scale)


def _scan_or_cell_root(m, electrode, V, y_pi):
    """The scan's stable pose at V below V_PI; where the scan finds no restoring
    zero, the root bisected in the scan cell that holds y_PI, between y_PI and
    the cell's rest-side end, after checking that the force changes sign there.

    The scan misses a branch whose stable root and unstable root share one grid
    cell, which happens when rest lies within a cell of a scan bound.
    """
    drive = drive_voltages(electrode, V)
    try:
        return _scan_equilibrium(m, *drive)
    except NoStableEquilibrium:
        pass
    grid = np.linspace(*mechanics._scan_bounds(m), mechanics.SCAN_POINTS)
    j = int(np.searchsorted(grid, y_pi, side="right")) - 1
    lo, hi = (grid[j], y_pi) if electrode is Electrode.TOP else (y_pi, grid[j + 1])
    force = mechanics._force_closure(m, *drive)
    f_lo, f_hi = force(float(lo)), force(float(hi))
    assert f_lo > 0.0 >= f_hi  # a restoring zero the grid did not resolve
    return bisect_root(force, float(lo), float(hi), f_lo, f_hi)


@settings(max_examples=30, deadline=None)
@given(sigma0=st.floats(min_value=-300e6, max_value=300e6),
       electrode=st.sampled_from(list(Electrode)))
def test_sweep_records_match_scalar_kernels(with_sigma0, sigma0, electrode):
    m = with_sigma0(sigma0)
    v_pi = pull_in_voltage(m, electrode).V_pull_in
    result = sweep_voltage(m, electrode, np.linspace(0.0, 0.99 * v_pi, 9))
    assert result.y_p.shape == (9,)

    def close(a, b):
        return abs(a - b) <= 4.0 * math.ulp(b)

    for i, (v, y_p) in enumerate(zip(result.V.tolist(), result.y_p.tolist())):
        expected = total_force(y_p, *drive_voltages(electrode, v), m)
        assert all(close(getattr(result, f)[i], getattr(expected, f))
                   for f in ("F_film", "F_beam", "F_elec_top", "F_elec_bottom", "F_total"))
        assert close(result.C_top[i], capacitance_value(y_p, m, Electrode.TOP))


@settings(max_examples=40, deadline=None)
@given(sigma0=st.floats(min_value=-300e6, max_value=300e6),
       electrode=st.sampled_from(list(Electrode)))
@example(sigma0=0.0, electrode=Electrode.TOP)
@example(sigma0=0.0, electrode=Electrode.BOTTOM)
# the 21st voltage lies within rounding of V_PI, where the cubic's two upper roots merge
@example(sigma0=-85425417.0425953, electrode=Electrode.BOTTOM)
def test_sweep_columns_match_total_force_bitwise(with_sigma0, sigma0, electrode):
    # the sweep's one unchecked gap-line pass gives the bits of the checked
    # kernels on the same arrays, signed zeros included: the grounded
    # electrode's column is f*0*0, -0.0 for bottom and +0.0 for top. The
    # voltages run from V = 0 to past pull-in, so the sweep is truncated
    m = with_sigma0(sigma0)
    v_pi = pull_in_voltage(m, electrode).V_pull_in
    result = sweep_voltage(m, electrode, np.linspace(0.0, 1.05 * v_pi, 22))
    assert result.V[0] == 0.0 and result.truncated_at is not None
    assert 0 < result.V.size < 22
    expected = vars(total_force(result.y_p, *drive_voltages(electrode, result.V), m))
    expected.update(V=result.V, y_p=result.y_p,
                    C_top=capacitance_value(result.y_p, m, Electrode.TOP))
    for name in SWEEP_COLUMNS:
        column = getattr(result, name)
        assert column.shape == result.V.shape, name
        assert np.array_equal(column.view(np.uint64), expected[name].view(np.uint64)), name
    grounded = result.F_elec_bottom if electrode is Electrode.TOP else result.F_elec_top
    assert np.all(grounded == 0.0)
    assert np.all(np.signbit(grounded) == (electrode is Electrode.TOP))
    # a single-electrode solve_equilibrium takes the same columns on floats: every
    # row's bits in the seven fields the two results share
    for i, v in enumerate(result.V.tolist()):
        sol = solve_equilibrium(m, *drive_voltages(electrode, v))
        for name in SWEEP_COLUMNS[1:]:
            assert _bits(getattr(sol, name)) == _bits(getattr(result, name)[i]), (v, name)


@pytest.mark.parametrize("electrode", list(Electrode))
def test_force_slope_of_a_float_has_the_array_elements_bits(with_sigma0, electrode):
    # a float pose gets the slope bits of the same pose in an array (the fit's
    # Jacobian divides by the slope). From rest to y_PI at V_PI the slope falls
    # to rounding noise, where a last-bit difference in a term shows; the poses
    # are NumPy scalars, as iterating the array gives them
    for sigma0 in np.linspace(-300e6, 300e6, 301).tolist():
        m = with_sigma0(sigma0)
        branch = StableBranch(m, electrode)
        V = math.sqrt(branch.v2_pi)
        y = np.linspace(branch.rest, branch.y_pi, 5)
        slopes = branch._force_slope(_Drive(m, electrode, np.full(y.size, V)), y)
        lone = _Drive(m, electrode, V)
        assert [_bits(branch._force_slope(lone, p)) for p in y] == [
            _bits(v) for v in slopes.tolist()], sigma0


def _gap_line_calls(monkeypatch, model, electrode, V):
    """The gap-line passes of sweep_voltage(model, electrode, V), in order:
    (electrode, "float" or "array") per _gap_terms call, "checked" per gap_line."""
    calls = []
    terms, line = mechanics._gap_terms, electrostatics.gap_line

    def counted_terms(y_p, model, e):
        calls.append((Electrode(e), "float" if isinstance(y_p, float) else "array"))
        return terms(y_p, model, e)

    def counted_line(*args):
        calls.append("checked")
        return line(*args)

    with monkeypatch.context() as patch:
        patch.setattr(mechanics, "_gap_terms", counted_terms)
        patch.setattr(electrostatics, "gap_line", counted_line)
        sweep_voltage(model, electrode, V)
    return calls


@pytest.mark.parametrize("electrode", list(Electrode))
def test_sweep_makes_one_gap_line_pass_per_electrode_read(monkeypatch, electrode):
    # on a warm branch (the model's, built by an earlier call on it) the driven
    # electrode's gap terms give its force and, when top is driven, C_top too;
    # a bottom sweep takes the top gap terms once more for C_top. The branch's
    # poses lie inside the touch interval, so the checked gap_line never runs
    model = build_model()
    V = np.linspace(0.0, 0.99 * pull_in_voltage(model, electrode).V_pull_in, 9)
    assert _gap_line_calls(monkeypatch, model, electrode, V) == [(electrode, "array")] + (
        [(Electrode.TOP, "array")] if electrode is Electrode.BOTTOM else [])


@pytest.mark.parametrize("electrode", list(Electrode))
def test_cold_sweep_takes_one_float_pass_first(monkeypatch, electrode):
    # on a fresh model the sweep first builds the branch, whose constructor
    # takes the driven gap terms once, on its one float pose y_PI
    V = np.linspace(0.0, 0.99 * pull_in_voltage(build_model(), electrode).V_pull_in, 9)
    assert _gap_line_calls(monkeypatch, build_model(), electrode, V) == [
        (electrode, "float"), (electrode, "array")] + (
        [(Electrode.TOP, "array")] if electrode is Electrode.BOTTOM else [])


def _count_branches(monkeypatch):
    """A list that gets one entry per StableBranch built from now on."""
    built, init = [], StableBranch.__init__

    def counted(self, *args, **kwargs):
        built.append(Electrode(args[1]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(StableBranch, "__init__", counted)
    return built


def test_model_holds_one_branch_per_electrode(monkeypatch):
    # pull-in, sweeps and single-electrode solves on one model build its branch on
    # each electrode once, whether the electrode is named by member or by value
    model = build_model(sigma0=50e6)
    built = _count_branches(monkeypatch)
    for electrode in (Electrode.TOP, Electrode.BOTTOM, "top", "bottom"):
        pi = pull_in_voltage(model, electrode)
        assert pull_in_voltage(model, electrode) is pi  # one frozen result
        sweep_voltage(model, electrode, np.linspace(0.0, 0.9 * pi.V_pull_in, 5))
        solve_equilibrium(model, *drive_voltages(Electrode(electrode), 0.5 * pi.V_pull_in))
        solve_equilibrium(model, *drive_voltages(Electrode(electrode), 0.0))
        with pytest.raises(NoStableEquilibrium):
            solve_equilibrium(model, *drive_voltages(Electrode(electrode), pi.V_pull_in))
    assert built == [Electrode.TOP, Electrode.BOTTOM]
    assert set(model._branches) == set(Electrode)
    # an equal model, from build_model or from the flat dict, builds its own
    for other in (build_model(sigma0=50e6), model_from_dict(model_to_dict(model))):
        assert other == model and other._branches == {}
        pull_in_voltage(other, Electrode.TOP)
        assert other._branches[Electrode.TOP] is not model._branches[Electrode.TOP]
    # a drive on both electrodes runs the scan, which builds no branch
    solve_equilibrium(model, 10.0, 10.0)
    assert built == [Electrode.TOP, Electrode.BOTTOM, Electrode.TOP, Electrode.TOP]


@pytest.mark.parametrize("sigma0", [0.0, -220e6, 180e6])
@pytest.mark.parametrize("electrode", list(Electrode))
def test_warm_branch_gives_the_cold_branchs_bits(sigma0, electrode):
    # a held branch keeps pull-in and the cubic's constants: on a warm branch a
    # sweep (past pull-in, so truncated) and single solves give the bits of the
    # same calls on a fresh model, whose branch forms them on the spot
    V = np.linspace(0.0, 1.02 * pull_in_voltage(build_model(sigma0=sigma0),
                                                electrode).V_pull_in, 17)
    warm = build_model(sigma0=sigma0)
    sweep_voltage(warm, electrode, V)
    cold_sweep, warm_sweep = (sweep_voltage(m, electrode, V)
                              for m in (build_model(sigma0=sigma0), warm))
    for name in SWEEP_COLUMNS:
        assert np.array_equal(getattr(cold_sweep, name).view(np.uint64),
                              getattr(warm_sweep, name).view(np.uint64)), name
    assert cold_sweep.truncated_at == warm_sweep.truncated_at is not None
    for v in V[:8].tolist():
        cold, hot = (solve_equilibrium(m, *drive_voltages(electrode, v))
                     for m in (build_model(sigma0=sigma0), warm))
        assert [_bits(x) for x in vars(cold).values()] == [_bits(x) for x in vars(hot).values()]


@pytest.mark.parametrize("electrode", list(Electrode))
def test_pinned_model_refuses_the_same_way_every_time(with_sigma0, electrode):
    model = with_sigma0(8e8)
    for _ in range(2):
        with pytest.raises(NoStableEquilibrium) as first:
            pull_in_voltage(model, electrode)
        with pytest.raises(NoStableEquilibrium) as again:
            pull_in_voltage(model, electrode)
        assert str(first.value) == str(again.value)
        assert "lies past the touch limit" in str(first.value)
        with pytest.raises(NoStableEquilibrium, match="does not pull it free") as swept:
            sweep_voltage(model, electrode, [10.0])
        with pytest.raises(NoStableEquilibrium) as solved:
            solve_equilibrium(model, *drive_voltages(electrode, 10.0))
        assert str(swept.value) == str(solved.value)


def test_sweep_leaves_equality_hash_and_repr_alone():
    # the held branches are left out of ==, hash and repr
    model = build_model(sigma0=75e6)
    before = (hash(model), repr(model))
    for electrode in Electrode:
        sweep_voltage(model, electrode, [0.0, 50.0])
    assert model._branches and model == build_model(sigma0=75e6)
    assert (hash(model), repr(model)) == before == (hash(build_model(sigma0=75e6)),
                                                    repr(build_model(sigma0=75e6)))


def test_pinned_message_names_the_scan_bound_inside_the_touch_limit():
    # the rest lies between the scan bound y_p_max*(1 - SCAN_MARGIN) and the
    # touch limit: the paddle is pinned at the bound, not past the limit
    m = build_model(sigma0=597948418.9743592)
    rest = zero_voltage_equilibrium(m)
    assert m.y_p_max * (1.0 - SCAN_MARGIN) < rest < m.y_p_max
    msg = (r"^film stress pins the paddle against the top electrode: rest y_p = 6\.153843e-05 m "
           r"lies at or past the scan bound 6\.153840e-05 m, 1e-06 inside the touch limit "
           r"6\.153846e-05 m")
    for electrode in Electrode:
        with pytest.raises(NoStableEquilibrium, match=msg + "$"):
            pull_in_voltage(m, electrode)
        with pytest.raises(NoStableEquilibrium, match=msg + "$"):
            sweep_voltage(m, electrode, [0.0, 10.0])
    # 1 mV on bottom does not yet pull it back inside the bound; 10 V does
    with pytest.raises(NoStableEquilibrium, match=msg + "; 0.001 V on the bottom electrode"):
        solve_equilibrium(m, 0.0, 1e-3)
    assert solve_equilibrium(m, 0.0, 10.0).y_p < m.y_p_max * (1.0 - SCAN_MARGIN)


@pytest.mark.parametrize("l_b", [1e-10, 1e-14, 1e-19, 1e-40])
@pytest.mark.parametrize("electrode", list(Electrode))
def test_branch_matches_scan_at_a_large_tilt(electrode, l_b):
    # with the tilt 2*l_p/l_b past 1e8 the far root lies r0/r1 > 2**26 times
    # farther from rest than the stable root's bound: the deflation by the
    # roots' products holds there, where their sum would cancel (at l_b = 1e-19 to 0)
    m = build_model(l_b=l_b, sigma0=120e6)
    V = np.array([0.1, 0.5, 0.9, 0.99]) * pull_in_voltage(m, electrode).V_pull_in
    y = sweep_voltage(m, electrode, V).y_p
    rest = zero_voltage_equilibrium(m)
    for v, y_p in zip(V.tolist(), y.tolist()):
        expected = _scan_equilibrium(m, *drive_voltages(electrode, v))
        assert abs(y_p - expected) <= 1e-14 * abs(expected - rest), v


# |F(y_p)| / (eps*(|prestress| + k*|y_p|)) of an unpolished branch pose peaked at
# 5.9 over 365,000 poses (1500 random geometries in each of four tilt bands from
# 0.1 to 3e38, both electrodes, 0 to 0.999 V_PI and within rounding of V_PI)
RESIDUAL_EPS = 16.0


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(min_value=-400e6, max_value=400e6),
       log_l_b=st.floats(min_value=-40.0, max_value=-1.0),
       d_e=st.floats(min_value=50e-6, max_value=200e-6),
       electrode=st.sampled_from(list(Electrode)),
       fractions=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=8))
def test_branch_force_vanishes_to_rounding(with_sigma0, sigma0, log_l_b, d_e, electrode,
                                           fractions):
    # no Newton step polishes the closed-form root, so nothing else holds its force
    # at rounding level; l_b from 0.1 m to 1e-40 m puts the tilt 2*l_p/l_b between
    # 0.1 and the largest of test_branch_matches_scan_at_a_large_tilt
    m = with_sigma0(sigma0, l_b=10.0**log_l_b, d_e=d_e)
    assume(not StableBranch(m, electrode).pinned)
    v_pi = pull_in_voltage(m, electrode).V_pull_in
    V = np.concatenate([v_pi * np.array(fractions),
                        [v_pi * (1.0 - 1e-15), math.nextafter(v_pi, 0.0)]])
    result = sweep_voltage(m, electrode, V)
    F = total_force_curve(result.y_p, *drive_voltages(electrode, result.V), m)
    # plus the force of one subnormal step in y_p, where a tiny prestress/k underflows
    bound = (RESIDUAL_EPS * np.finfo(float).eps * (abs(m.prestress) + m.k * np.abs(result.y_p))
             + m.k * math.ulp(0.0))
    assert np.all(np.abs(F) <= bound), (result.V, F / bound)
