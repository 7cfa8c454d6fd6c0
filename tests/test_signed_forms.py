"""The stable-branch and inversion arithmetic against its signed expression forms, bit for bit.

_gap_terms, the _force_sum closure, StableBranch._stable_root and
_breakdown avoid array passes that multiply by a sign s = +-1 or negate:
rest - y_b for rest + s*y_b, (s*tilt)*y_b for tilt*(s*y_b), (q0 + e)/(-2*m^3)
for -(q0 + e)/(2*m^3), mu = e/w_far for gamma = -e/w_far, -(r0*r1 + mu)/w_far
for (gamma - r0*r1)/w_far, y_p/-compliance for -y_p/compliance, and
StableBranch.not_restoring(F, 0) for F*far_sign <= 0. yp_from_capacitance's
Newton loop steps by y - step or y + step, with step on -s*dC/dy_p, for
y + c_y*residual/(target*dC/dy_p). Each pair is exact in IEEE arithmetic,
since sign flips commute with rounding. The signed forms are written out
below as oracles, and every result is compared as uint64, so signed zeros
count.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paddle_lab import (Electrode, NoiseModel, NoStableEquilibrium, build_model,
                        capacitance_value, deflection_series, film_force, measure_capacitance,
                        pull_in_voltage, yp_from_capacitance)
from paddle_lab import mechanics
from paddle_lab.electrostatics import (INVERSION_MAX_ITER, SERIES_U_THRESHOLD,
                                       SLOPE_SERIES_U_THRESHOLD, _flat_capacitance, _gap_terms,
                                       _log_mean_start, _slope_series, capacitance_range,
                                       gap_coefficients, inversion_bracket)
from paddle_lab.mechanics import (StableBranch, _breakdown, _Drive, _force_sum,
                                  _scan_bounds, drive_voltages)

from oracles import _scan_equilibrium, has_stable_equilibrium

# rest at 0 (sigma0 = 0), on either side of it, and a gap pair that is not the default
MODELS = [dict(sigma0=0.0), dict(sigma0=-200e6), dict(sigma0=150e6),
          dict(sigma0=80e6, d_c=120e-6, d_e=210e-6, l_b=4e-3)]


def _signed_gap_terms(y_p, model, electrode):
    rest, s, center_ratio, tilt = gap_coefficients(model, electrode)
    y_s = s * (y_p / center_ratio)
    return rest + y_s, tilt * y_s


def _signed_force_sum(prestress, k_lin, cr, tilt, terms):
    def force(y_p):
        y_b = y_p / cr
        out = prestress - k_lin * y_p
        for rest, s, c in terms:
            y_s = s * y_b
            g0 = rest + y_s
            out -= c / (g0 * (g0 + tilt * y_s))
        return out

    return force


def _signed_stable_root(branch, drive):
    s, cr, tilt, k = branch.s, branch.cr, branch.tilt, branch.k
    r0 = branch.G0 * cr
    r1 = branch.G1 * cr / (1.0 + tilt)
    e = drive.half_v2 * (cr * cr / (k * (1.0 + tilt)))
    m = math.sqrt((r0 - r1) ** 2 + r0 * r1) / 3.0
    q0 = (r0 + r1) * (2.0 * r0 - r1) * (r0 - 2.0 * r1) / 27.0
    x = np.minimum(np.maximum(-(q0 + e) / (2.0 * m**3), -1.0), 1.0)
    w_far = -2.0 * m * np.cos(math.pi / 3.0 - np.arccos(x) / 3.0) - (r0 + r1) / 3.0
    gamma = -e / w_far
    beta = (gamma - r0 * r1) / w_far
    w = -2.0 * gamma / (beta + np.sqrt(np.maximum(beta * beta - 4.0 * gamma, 0.0)))
    lo, hi = min(branch.far, branch.y_pi), max(branch.far, branch.y_pi)
    return np.minimum(np.maximum(branch.rest + s * w, lo), hi)


def _signed_breakdown(y_p, model, F_t, F_e):
    F_f = film_force(y_p, model)
    F_b = -y_p / model.compliance
    return dict(F_film=F_f, F_beam=F_b, F_elec_top=F_t, F_elec_bottom=F_e,
                F_total=F_f + F_b + F_t + F_e)


def _same_bits(got, expected):
    assert type(got) is type(expected)
    assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                          np.asarray(expected, dtype=float).view(np.uint64))


def _poses(model):
    """Poses across the scan interval and past both touch limits, with +-0.0."""
    lo, hi = _scan_bounds(model)
    inside = np.linspace(lo, hi, 257)
    return np.concatenate([[-0.0, 0.0, 1e-300, -1e-300, lo, hi], inside, [1.5 * lo, 1.5 * hi]])


def _voltages(model, electrode):
    """0 V, a spread to pull-in, and rows within 1e-12 of V_PI below it."""
    v_pi = pull_in_voltage(model, electrode).V_pull_in
    near = v_pi * (1.0 - np.arange(1, 11) * 1e-13)
    return np.concatenate([np.linspace(0.0, 0.999 * v_pi, 23), near,
                           [math.nextafter(v_pi, 0.0)]])


@pytest.mark.parametrize("electrode", list(Electrode))
@pytest.mark.parametrize("overrides", MODELS)
def test_gap_terms_keep_the_signed_forms_bits(with_sigma0, overrides, electrode):
    m = with_sigma0(**overrides)
    y = _poses(m)
    for got, expected in zip(_gap_terms(y, m, electrode), _signed_gap_terms(y, m, electrode)):
        _same_bits(got, expected)
    for pose in y.tolist():
        for got, expected in zip(_gap_terms(pose, m, electrode),
                                 _signed_gap_terms(pose, m, electrode)):
            _same_bits(got, expected)


@pytest.mark.parametrize("overrides", MODELS)
def test_force_sum_keeps_the_signed_forms_bits(with_sigma0, overrides):
    m = with_sigma0(**overrides)
    y = _poses(m)[:-2]  # the closure's poses stay inside the touch interval
    films = [(m.prestress, m.k), (1.3 * m.prestress, 0.8 * m.k), (-0.0, m.k)]
    top_v, bottom_v = _voltages(m, Electrode.TOP), _voltages(m, Electrode.BOTTOM)
    drives = [(_Drive(m, Electrode.TOP, top_v),), (_Drive(m, Electrode.BOTTOM, bottom_v),),
              (_Drive(m, Electrode.TOP, 0.0),), (_Drive(m, Electrode.BOTTOM, 0.0),),
              (_Drive(m, Electrode.TOP, 0.4 * top_v[-1]),
               _Drive(m, Electrode.BOTTOM, 0.3 * bottom_v[-1]))]
    for prestress, k in films:
        for drive in drives:
            terms = sum((d.terms for d in drive), ())
            args = (prestress, k, m.center_ratio, m.tilt, terms)
            force, signed = _force_sum(*args), _signed_force_sum(*args)
            if drive[0].V.ndim:  # an array of drives: one pose each, and one pose for all
                _same_bits(force(y[:drive[0].V.size]), signed(y[:drive[0].V.size]))
                _same_bits(force(0.25 * y[-1]), signed(0.25 * y[-1]))
            else:
                _same_bits(force(y), signed(y))
                for pose in y.tolist():
                    _same_bits(force(pose), signed(pose))


@pytest.mark.parametrize("electrode", list(Electrode))
# and a tilt of 1.2e-9, where the cubic's x at V = 0 rounds past 1 and takes the clip
@pytest.mark.parametrize("overrides", MODELS + [dict(sigma0=0.0, l_p=3e-12)])
def test_stable_root_keeps_the_signed_forms_bits(with_sigma0, overrides, electrode):
    m = with_sigma0(**overrides)
    V = _voltages(m, electrode)
    # the model's film, and the trial films of a stress fit on its template
    for film in (None, (1.2 * m.prestress, m.k), (-0.5 * m.prestress, 1.1 * m.k)):
        branch = StableBranch(m, electrode, film)
        for drive in (_Drive(m, electrode, V), _Drive(m, electrode, float(V[5])),
                      _Drive(m, electrode, 0.0), _Drive(m, electrode, float(V[-1]))):
            _same_bits(branch._stable_root(drive), _signed_stable_root(branch, drive))


def test_not_restoring_keeps_the_signed_comparison(with_sigma0):
    F = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf, math.nan])
    for electrode, far_sign in ((Electrode.TOP, 1.0), (Electrode.BOTTOM, -1.0)):
        not_restoring = StableBranch(with_sigma0(0.0), electrode).not_restoring
        assert np.array_equal(not_restoring(F, 0.0), F * far_sign <= 0.0)
        for f in F.tolist():
            assert not_restoring(f, 0.0) == (f * far_sign <= 0.0), f


@pytest.mark.parametrize("overrides", MODELS)
def test_breakdown_keeps_the_signed_forms_bits(with_sigma0, overrides):
    m = with_sigma0(**overrides)
    y = _poses(m)
    F_t, F_e = np.linspace(0.0, 1e-3, y.size), -0.0 * np.linspace(0.0, 1e-3, y.size)
    for key, value in _breakdown(y, m, F_t, F_e).items():
        _same_bits(value, _signed_breakdown(y, m, F_t, F_e)[key])
    for pose in y.tolist():
        for F in (0.0, -0.0, 2e-4):
            got = _breakdown(pose, m, F, -0.0 * F)
            expected = _signed_breakdown(pose, m, F, -0.0 * F)
            for key in got:
                _same_bits(got[key], expected[key])


@pytest.mark.parametrize("overrides", MODELS + [dict(sigma0=8e8)])
def test_scan_oracle_keeps_the_signed_forms_bits(with_sigma0, monkeypatch, overrides):
    # the scan and has_stable_equilibrium are the oracles the branch is checked
    # against: under the signed closure they give the same poses and answers
    m = with_sigma0(**overrides)
    # at 8e8 Pa film stress pins the paddle on top, and 400 V on bottom pulls it free
    drives = [(0.0, 0.0), (0.0, 150.0), (250.0, 0.0), (120.0, 90.0), (0.0, 400.0), (500.0, 0.0)]
    for electrode in Electrode:
        try:
            v_pi = pull_in_voltage(m, electrode).V_pull_in
        except NoStableEquilibrium:  # pinned: the scan still runs
            continue
        drives += [drive_voltages(electrode, v) for v in (0.6 * v_pi, v_pi * (1.0 - 1e-12), v_pi)]

    def run():
        out = []
        for drive in drives:
            try:
                out.append(_scan_equilibrium(m, *drive))
            except NoStableEquilibrium as exc:
                out.append(str(exc))
            out.append([has_stable_equilibrium(m, e, v) for e, v in zip(Electrode, drive)])
        return out

    rewritten = run()
    monkeypatch.setattr(mechanics, "_force_sum", _signed_force_sum)
    signed = run()
    assert any(isinstance(y, float) for y in rewritten)
    for got, expected in zip(rewritten, signed, strict=True):
        if isinstance(expected, float):
            _same_bits(got, expected)
        else:
            assert got == expected


def _signed_inversion(C, model, electrode):
    """yp_from_capacitance's Newton loop on invertible readings, in its signed form.

    Each step takes |u| and the series masks of C and of its slope on its
    own, masks whether or not an element needs a series, steps on the signed
    slope dC/dy_p = -s*c*(r + tilt*N)/(center_ratio*g0^2) and writes the
    clipped step through np.where. The slope keeps its own series threshold,
    where the loop hands it C's mask, so equal bits also show that no
    element steps on a slope that needs that series.
    """
    C = np.asarray(C, dtype=float)
    lo, hi = inversion_bracket(model)
    rest, s, center_ratio, tilt = gap_coefficients(model, electrode)
    c = model.eps0_area
    target = C.reshape(-1)
    tol = 1e-12 * target
    y = np.minimum(np.maximum(s * center_ratio * _log_mean_start(c / target, rest, tilt), lo), hi)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(INVERSION_MAX_ITER):
        g0, delta = _signed_gap_terms(y, model, electrode)
        u = delta / g0
        log1p_u = np.log1p(u)
        small = np.abs(u) < SERIES_U_THRESHOLD
        value = log1p_u / np.where(small, 1.0, delta)
        value[small] = _flat_capacitance(u[small], g0[small])
        c_y = c * value
        residual = target - c_y
        active &= np.abs(residual) > tol
        if not active.any():
            break
        small = np.abs(u) < SLOPE_SERIES_U_THRESHOLD
        r = 1.0 / (1.0 + u)
        w = np.where(small, 1.0, u)
        n = (log1p_u / w - r) / w
        n[small] = _slope_series(u[small])
        slope = -s * (c * (r + tilt * n)) / (center_ratio * (g0 * g0))
        newton = y + c_y * residual / (target * slope)
        y = np.where(active, np.minimum(np.maximum(newton, lo), hi), y)
    return y.reshape(C.shape) if C.ndim else float(y[0])


def _same_inversion(C, model, electrode):
    """yp_from_capacitance has the oracle's bits on the array and on each lone float."""
    _same_bits(yp_from_capacitance(C, model, electrode), _signed_inversion(C, model, electrode))
    for c in C.tolist():
        _same_bits(yp_from_capacitance(c, model, electrode),
                   _signed_inversion(c, model, electrode))


def _readings(model, electrode):
    """Readings at poses with |u| on both sides of each series threshold, at
    +-0.0, across the inversion bracket, and one ulp inside the attainable
    range at both ends, whose Newton steps clip to the bracket."""
    rest, _, center_ratio, tilt = gap_coefficients(model, electrode)
    lo, hi = inversion_bracket(model)
    u = np.outer([SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD], [0.5, 0.99, 1.01, 2.0]).ravel()
    y = np.concatenate([u, -u, [1e-9, -1e-9]]) * (center_ratio * rest / tilt)
    y = np.concatenate([y[(lo < y) & (y < hi)], [0.0, -0.0], np.linspace(lo, hi, 43)[1:-1]])
    c_min, c_max = capacitance_range(model, electrode)
    ends = [math.nextafter(c_min, math.inf), math.nextafter(c_max, 0.0)]
    return np.concatenate([capacitance_value(y, model, electrode), ends])


@pytest.mark.parametrize("electrode", list(Electrode))
@pytest.mark.parametrize("overrides", MODELS)
def test_inversion_keeps_the_signed_forms_bits(with_sigma0, overrides, electrode):
    m = with_sigma0(**overrides)
    C = _readings(m, electrode)
    g0, delta = _gap_terms(yp_from_capacitance(C, m, electrode), m, electrode)
    for threshold in (SERIES_U_THRESHOLD, SLOPE_SERIES_U_THRESHOLD):
        assert np.any(np.abs(delta / g0) < threshold) and np.any(np.abs(delta / g0) > threshold)
    _same_inversion(C, m, electrode)
    # arrays with no element below either threshold skip the masks
    wide = C[np.abs(capacitance_value(0.0, m, electrode) - C) > 1e-2 * C]
    assert wide.size > 2
    _same_inversion(wide, m, electrode)
    # a 2-D array keeps its shape, and a stream inverted by deflection_series
    _same_bits(yp_from_capacitance(C[:40].reshape(8, 5), m, electrode),
               _signed_inversion(C[:40].reshape(8, 5), m, electrode))
    for y_p in (0.0, 2e-5, -3e-5):
        stream = measure_capacitance(capacitance_value(y_p, m, electrode),
                                     NoiseModel(sigma_C=1e-16, dt=1e-3, seed=7), 200)
        _same_bits(deflection_series(stream, m, electrode).y_p,
                   _signed_inversion(stream.C_meas, m, electrode))


@settings(max_examples=60, deadline=None)
@given(d_c=st.floats(min_value=41e-6, max_value=300e-6),
       d_e=st.floats(min_value=41e-6, max_value=300e-6),
       l_b=st.floats(min_value=1e-3, max_value=8e-3),
       l_p=st.floats(min_value=1e-4, max_value=2e-2),
       electrode=st.sampled_from(list(Electrode)),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
@example(d_c=194.94e-6, d_e=228.1e-6, l_b=2.03e-3, l_p=5e-3, electrode=Electrode.TOP,
         fracs=[0.0, 1.0])
@example(d_c=100e-6, d_e=100e-6, l_b=1e-3, l_p=6.5e-3, electrode=Electrode.BOTTOM,
         fracs=[0.0, 0.3, 0.7, 1.0])
def test_inversion_keeps_the_signed_forms_bits_on_any_geometry(d_c, d_e, l_b, l_p, electrode,
                                                               fracs):
    m = build_model(d_c=d_c, d_e=d_e, l_b=l_b, l_p=l_p)
    lo, hi = inversion_bracket(m)
    c_min, c_max = capacitance_range(m, electrode)
    y = np.minimum(lo + np.array(fracs) * (hi - lo), hi)
    C = np.clip(capacitance_value(y, m, electrode),
                math.nextafter(c_min, math.inf), math.nextafter(c_max, 0.0))
    _same_inversion(np.concatenate([C, _readings(m, electrode)]), m, electrode)
