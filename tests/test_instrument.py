import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paddle_lab import (BridgeConfig, InsufficientData, InvalidParameter, MeasurementSample,
                        NoiseModel, TouchViolation, balance_bridge,
                        bridge_output, build_model, calibrate,
                        calibration_fit, calibration_table, measure_capacitance,
                        measure_stream, resolvable_displacement)

DEFAULT_SPACERS = [25e-6, 50e-6, 75e-6, 100e-6, 125e-6]
QUIET = NoiseModel(sigma_C=0.0)


def test_bridge_null_condition():
    cfg = BridgeConfig(C_ref=3e-12, V1=1.0)
    v2 = balance_bridge(2.2125e-12, cfg)
    assert v2 == pytest.approx(0.7375, rel=1e-14)
    assert bridge_output(2.2125e-12, cfg, v2) == 0.0


def test_bridge_trivial_ratios():
    cfg = BridgeConfig(C_ref=3e-12, V1=2.5)
    assert balance_bridge(3e-12, cfg) == pytest.approx(2.5, rel=1e-15)
    half = BridgeConfig(C_ref=6e-12, V1=2.5)
    assert balance_bridge(4e-12, half) == pytest.approx(balance_bridge(4e-12, cfg) / 2.0,
                                                        rel=1e-15)


def test_bridge_null_exact_for_random_draws():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        C = float(rng.uniform(0.1e-12, 10e-12))
        cfg = BridgeConfig(C_ref=float(rng.uniform(0.5e-12, 20e-12)),
                           V1=float(rng.uniform(0.1, 10.0)))
        assert bridge_output(C, cfg, balance_bridge(C, cfg)) == 0.0


def test_bridge_linear_in_perturbation():
    cfg = BridgeConfig(C_ref=3e-12, V1=1.0)
    v2 = balance_bridge(2.2125e-12, cfg)
    for dC in (1e-16, -2e-15, 5e-13):
        out = bridge_output(2.2125e-12 + dC, cfg, v2)
        assert out == pytest.approx(dC / cfg.C_ref, rel=1e-10)


@given(st.floats(min_value=1e-13, max_value=1e-11),
       st.floats(min_value=1e-13, max_value=1e-11),
       st.floats(min_value=0.1, max_value=10.0))
def test_null_ratio_property(C_paddle, C_ref, V1):
    cfg = BridgeConfig(C_ref=C_ref, V1=V1)
    v2 = balance_bridge(C_paddle, cfg)
    # capacitance ratio is the inverse of the amplitude ratio at null
    assert C_paddle / C_ref == pytest.approx(v2 / V1, rel=1e-12)
    assert bridge_output(C_paddle, cfg, v2) == 0.0


def test_bridge_config_validation():
    with pytest.raises(InvalidParameter):
        BridgeConfig(C_ref=0.0)
    with pytest.raises(InvalidParameter):
        BridgeConfig(V1=-1.0)


def test_noise_model_validation():
    with pytest.raises(InvalidParameter):
        NoiseModel(sigma_C=-1e-16)
    with pytest.raises(InvalidParameter):
        NoiseModel(dt=0.0)


def test_measure_noise_free_is_constant():
    samples = measure_capacitance(2.2125e-12, QUIET, 16)
    assert all(s.C_meas == 2.2125e-12 for s in samples)


def test_measure_timestamps():
    noise = NoiseModel(dt=1e-2, seed=3)
    samples = measure_capacitance(2e-12, noise, 10)
    t = [s.t for s in samples]
    assert t[0] == pytest.approx(1e-2, rel=1e-15)
    assert np.allclose(np.diff(t), 1e-2, rtol=1e-12)
    assert all(a < b for a, b in zip(t, t[1:]))


def test_measure_stream_is_measure_capacitance():
    # the arrays the cli writes hold the bits of the sample objects
    noise = NoiseModel(sigma_C=3e-16, dt=2.5e-3, seed=17)
    t, C = measure_stream(2e-12, noise, 1000)
    assert t.dtype == C.dtype == np.float64 and t.shape == C.shape == (1000,)
    samples = measure_capacitance(2e-12, noise, 1000)
    assert t.tolist() == [s.t for s in samples]
    assert C.tolist() == [s.C_meas for s in samples]
    with pytest.raises(InvalidParameter):
        measure_stream(2e-12, noise, 0)


def test_measure_deterministic_per_seed():
    a = measure_capacitance(2e-12, NoiseModel(seed=11), 50)
    b = measure_capacitance(2e-12, NoiseModel(seed=11), 50)
    c = measure_capacitance(2e-12, NoiseModel(seed=12), 50)
    assert a == b
    assert a != c


def test_measurement_sample_value_semantics():
    s = measure_capacitance(2e-12, NoiseModel(seed=5), 3)[1]
    assert s == MeasurementSample(t=s.t, C_meas=s.C_meas)
    assert s != MeasurementSample(t=s.t, C_meas=-s.C_meas)
    assert repr(MeasurementSample(0.5, 2e-12)) == "MeasurementSample(t=0.5, C_meas=2e-12)"
    assert pickle.loads(pickle.dumps(s)) == s
    moved = dataclasses.replace(s, t=9.0)
    assert (moved.t, moved.C_meas) == (9.0, s.C_meas)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.t = 1.0


def test_measure_requires_samples():
    with pytest.raises(InvalidParameter):
        measure_capacitance(2e-12, QUIET, 0)


def test_measure_sample_std_measures_sigma():
    hits = 0
    for seed in range(100):
        vals = [s.C_meas for s in
                measure_capacitance(2e-12, NoiseModel(seed=seed), 10**4)]
        std = np.std(vals, ddof=1)
        if 0.95e-16 <= std <= 1.05e-16:
            hits += 1
    assert hits >= 95


def test_measure_mean_converges():
    hits = 0
    n = 10**4
    bound = 5.0 * 1e-16 / np.sqrt(n)
    for seed in range(100):
        vals = [s.C_meas for s in
                measure_capacitance(2e-12, NoiseModel(seed=seed), n)]
        if abs(np.mean(vals) - 2e-12) <= bound:
            hits += 1
    assert hits >= 99


def test_resolvable_displacement_beats_50nm(default_model):
    r = resolvable_displacement(default_model, 0.0, NoiseModel())
    assert 0.0 < r < 50e-9


def test_resolvable_displacement_zero_noise(default_model):
    assert resolvable_displacement(default_model, 0.0, QUIET) == 0.0


def test_resolvable_displacement_grows_with_gap():
    vals = [resolvable_displacement(build_model(d_c=d), 0.0, NoiseModel())
            for d in (50e-6, 100e-6, 150e-6)]
    assert vals[0] < vals[1] < vals[2]


def test_resolvable_displacement_touch(default_model):
    with pytest.raises(TouchViolation):
        resolvable_displacement(default_model, default_model.y_p_max * 1.5, NoiseModel())


def test_resolvable_matches_slope_estimate(default_model):
    # sigma_C over the exact flat-pose slope eps0*A*(1 + tilt/2)/(center_ratio*d_c^2)
    g = default_model.geom
    tilt = 2.0 * g.l_p / g.l_b
    slope = default_model.constants.eps0 * g.w_p * g.l_p * (1 + tilt / 2) / (
        g.center_ratio * g.d_c**2)
    assert resolvable_displacement(default_model, 0.0, NoiseModel()) == \
        pytest.approx(1e-16 / slope, rel=1e-12)


def test_calibration_table_rows(default_model):
    rows = calibration_table(default_model, [100e-6, 25e-6, 50e-6], QUIET)
    assert [r[0] for r in rows] == [25e-6, 50e-6, 100e-6]
    for s, inv, C in rows:
        assert inv == pytest.approx(1.0 / s, rel=1e-15)
        assert C == pytest.approx(8.85e-12 * 25e-6 / s, rel=1e-12)


def test_calibration_table_rejects_bad_spacer(default_model):
    with pytest.raises(InvalidParameter):
        calibration_table(default_model, [25e-6, -50e-6], QUIET)


def test_calibrate_noise_free(default_model):
    fit = calibrate(default_model, DEFAULT_SPACERS, QUIET)
    assert fit.slope == pytest.approx(2.2125e-16, rel=1e-10)
    assert abs(fit.intercept) < 1e-18
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.implied_area == pytest.approx(25e-6, rel=1e-10)


def test_calibration_fit_of_table_rows(default_model):
    noise = NoiseModel(sigma_C=1e-15, seed=4)
    rows = calibration_table(default_model, DEFAULT_SPACERS, noise)
    assert calibration_fit(default_model, rows) == calibrate(default_model, DEFAULT_SPACERS, noise)
    with pytest.raises(InsufficientData):
        calibration_fit(default_model, rows[:1] * 3 + rows[1:2])


def test_calibrate_insufficient_spacers(default_model):
    with pytest.raises(InsufficientData):
        calibrate(default_model, [25e-6, 50e-6], QUIET)
    with pytest.raises(InsufficientData):
        calibrate(default_model, [25e-6, 25e-6, 50e-6], QUIET)


def test_calibrate_noisy_r2(default_model):
    good = 0
    for seed in range(100):
        fit = calibrate(default_model, DEFAULT_SPACERS,
                        NoiseModel(sigma_C=1e-16, seed=seed))
        if fit.r2 >= 0.999:
            good += 1
    assert good >= 95


def test_calibrate_r2_bounds(default_model):
    for seed in (0, 1, 2):
        fit = calibrate(default_model, DEFAULT_SPACERS,
                        NoiseModel(sigma_C=5e-13, seed=seed))
        assert 0.0 <= fit.r2 <= 1.0
