import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paddle_lab import (DegenerateData, Electrode, InsufficientData, InvalidParameter,
                        MeasurementSample, MeasurementStream, NoiseModel, TouchViolation,
                        build_model, calibrate, calibration_fit, calibration_table,
                        measure_capacitance, parallel_plate_capacitance,
                        resolvable_displacement, simulate_cv)

DEFAULT_SPACERS = [25e-6, 50e-6, 75e-6, 100e-6, 125e-6]
QUIET = NoiseModel(sigma_C=0.0)


def test_noise_model_validation():
    with pytest.raises(InvalidParameter):
        NoiseModel(sigma_C=-1e-16)
    with pytest.raises(InvalidParameter):
        NoiseModel(dt=0.0)


@pytest.mark.parametrize("field", ["sigma_C", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_noise_model_rejects_non_finite(field, value):
    # a NaN sigma_C would give an all-NaN stream, an infinite dt infinite timestamps
    with pytest.raises(InvalidParameter, match=rf"^{field}: must be finite") as exc:
        NoiseModel(**{field: value})
    assert exc.value.name == field


@pytest.mark.parametrize("seed", [-1, -2**40, np.int64(-3), 1.0, 2.5, "3", None, True])
def test_noise_model_rejects_bad_seed(seed):
    # the seed goes to np.random.default_rng, which refuses negative seeds
    # only when noise is drawn; the model refuses them at construction
    with pytest.raises(InvalidParameter, match=r"^seed: must be an integer >= 0") as exc:
        NoiseModel(sigma_C=0.0, seed=seed)
    assert exc.value.name == "seed"


def test_noise_model_accepts_integer_seeds():
    for seed in (0, 7, 2**64, np.int64(5), np.uint32(9)):
        noise = NoiseModel(seed=seed)
        assert np.array_equal(noise.draw(3),
                              1e-16 * np.random.default_rng(seed).standard_normal(3))


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


def test_stream_columns():
    # t = dt, 2*dt, ... and C_meas = C_true + noise.draw(n), float64, bit for bit
    noise = NoiseModel(sigma_C=3e-16, dt=2.5e-3, seed=17)
    stream = measure_capacitance(2e-12, noise, 1000)
    assert isinstance(stream, MeasurementStream)
    assert stream.t.dtype == stream.C_meas.dtype == np.float64
    assert stream.t.shape == stream.C_meas.shape == (1000,)
    assert stream.t.tobytes() == (2.5e-3 * np.arange(1, 1001)).tobytes()
    assert stream.C_meas.tobytes() == (2e-12 + noise.draw(1000)).tobytes()
    # float64 columns pass through the stream's check uncopied
    again = MeasurementStream(stream.t, stream.C_meas)
    assert again.t is stream.t and again.C_meas is stream.C_meas


def _bits(values) -> list:
    """The IEEE-754 bits of each float, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("sigma_C", [0.0, 1e-17, 3e-16, 2.5])
@pytest.mark.parametrize("n", [1, 2, 7, 200, 4097])
def test_stream_keeps_the_out_of_place_bits(sigma_C, n):
    # measure_capacitance forms t and C_meas in place; as uint64 they are dt*np.arange(1, n+1)
    # and C_true + sigma_C*z, z the seed's standard normals (sigma_C > 1 checks the overflow)
    z = np.random.default_rng(11).standard_normal(n)
    for dt in (1e-3, 2.5e-3, 0.1, 3.7):
        for C_true in (2.2125e-12, 1.0 / 3.0):
            stream = measure_capacitance(C_true, NoiseModel(sigma_C=sigma_C, dt=dt, seed=11), n)
            assert _bits(stream.t) == _bits(dt * np.arange(1, n + 1))
            assert _bits(stream.C_meas) == _bits(C_true + sigma_C * z)


def test_stream_row_view():
    # len and iteration; iteration builds samples with the columns' bits
    stream = measure_capacitance(2e-12, NoiseModel(seed=5), 6)
    t, C = stream.t.tolist(), stream.C_meas.tolist()
    rows = [MeasurementSample(a, b) for a, b in zip(t, C)]
    assert len(stream) == 6
    assert list(stream) == rows
    assert all(type(s.t) is float and type(s.C_meas) is float for s in stream)
    assert list(MeasurementStream(np.array([]), np.array([]))) == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.t = stream.C_meas


def test_measure_deterministic_per_seed():
    a = measure_capacitance(2e-12, NoiseModel(seed=11), 50)
    b = measure_capacitance(2e-12, NoiseModel(seed=11), 50)
    c = measure_capacitance(2e-12, NoiseModel(seed=12), 50)
    assert a.t.tobytes() == b.t.tobytes() == c.t.tobytes()
    assert a.C_meas.tobytes() == b.C_meas.tobytes()
    assert a.C_meas.tobytes() != c.C_meas.tobytes()


def test_measurement_sample_value_semantics():
    s = list(measure_capacitance(2e-12, NoiseModel(seed=5), 3))[1]
    assert s == MeasurementSample(t=s.t, C_meas=s.C_meas)
    assert s != MeasurementSample(t=s.t, C_meas=-s.C_meas)
    assert repr(MeasurementSample(0.5, 2e-12)) == "MeasurementSample(t=0.5, C_meas=2e-12)"
    assert pickle.loads(pickle.dumps(s)) == s
    moved = dataclasses.replace(s, t=9.0)
    assert (moved.t, moved.C_meas) == (9.0, s.C_meas)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.t = 1.0


def test_measure_requires_samples():
    # an integer >= 1, and not a bool, as NoiseModel.seed
    for n in (0, -3, 2.5, 3.0, True, False, "3", None, np.float64(3.0)):
        with pytest.raises(InvalidParameter, match=r"^n: must be an integer >= 1, got ") as info:
            measure_capacitance(2e-12, QUIET, n)
        assert info.value.name == "n"
    assert measure_capacitance(2e-12, QUIET, np.int64(3)).C_meas.tolist() == [2e-12] * 3


def test_stream_columns_are_read_only():
    # a write after the stream's check raises; a writable column is taken as
    # a read-only view, and the caller's array keeps its flags
    stream = measure_capacitance(2e-12, NoiseModel(seed=2), 5)
    for column in (stream.t, stream.C_meas):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    t, C = np.arange(1.0, 6.0), np.full(5, 2e-12)
    own = MeasurementStream(t, C)
    assert own.t.base is t and own.C_meas.base is C
    assert t.flags.writeable and C.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        own.C_meas[0] = float("nan")


@pytest.mark.parametrize("C_true", [float("nan"), float("inf"), -float("inf"), 0.0, -2e-12])
def test_measure_rejects_bad_capacitance(C_true):
    with pytest.raises(InvalidParameter, match=r"^C_true: must be finite and > 0, got ") as info:
        measure_capacitance(C_true, NoiseModel(), 2)
    assert info.value.name == "C_true"


def test_measure_rejects_overflowing_sample_times():
    # dt is finite, but the last sample time n*dt is not
    for dt, n in ((1e308, 3), (6e307, np.int64(3)), (np.float64(1e308), 2)):
        with pytest.raises(InvalidParameter,
                           match=r"^dt: the last sample time n\*dt must be finite") as info:
            measure_capacitance(2e-12, NoiseModel(dt=dt), n)
        assert info.value.name == "dt"
    assert measure_capacitance(2e-12, NoiseModel(dt=1e308), 1).t.tolist() == [1e308]


def test_measure_rejects_count_beyond_float_range():
    # n*dt cannot be formed for a count no float holds; the check allocates nothing
    with pytest.raises(InvalidParameter, match=r"^n: must be at most 1\.7976931348623157e\+308, "
                                               r"got 401 digits$") as info:
        measure_capacitance(2e-12, NoiseModel(), 10**400)
    assert info.value.name == "n"


def test_measure_sample_std_measures_sigma():
    hits = 0
    for seed in range(100):
        vals = measure_capacitance(2e-12, NoiseModel(seed=seed), 10**4).C_meas
        std = np.std(vals, ddof=1)
        if 0.95e-16 <= std <= 1.05e-16:
            hits += 1
    assert hits >= 95


def test_measure_mean_converges():
    hits = 0
    n = 10**4
    bound = 5.0 * 1e-16 / np.sqrt(n)
    for seed in range(100):
        vals = measure_capacitance(2e-12, NoiseModel(seed=seed), n).C_meas
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


def test_noise_is_drawn_by_the_noise_model(default_model):
    # the stream, the calibration rows and a simulated C-V set all add NoiseModel.draw
    noise = NoiseModel(sigma_C=3e-16, seed=21)
    assert np.array_equal(noise.draw(4),
                          3e-16 * np.random.default_rng(21).standard_normal(4))
    assert np.array_equal(measure_capacitance(2e-12, noise, 7).C_meas, 2e-12 + noise.draw(7))
    area = default_model.geom.w_p * default_model.geom.l_p
    assert [C for _, _, C in calibration_table(default_model, DEFAULT_SPACERS, noise)] == \
        [parallel_plate_capacitance(area, s, 8.85e-12) + dC
         for s, dC in zip(DEFAULT_SPACERS, noise.draw(5))]
    V = [0.0, 40.0, 80.0]
    clean = simulate_cv(default_model, Electrode.TOP, V)
    noisy = simulate_cv(default_model, Electrode.TOP, V, noise)
    assert noisy.C.tobytes() == (clean.C + noise.draw(3)).tobytes()


def test_noise_free_draws_are_exact(default_model):
    # sigma_C = 0 adds +0.0: the stream and the calibration rows are the
    # noise-free values, bit for bit
    noise = NoiseModel(sigma_C=0.0, seed=9)
    zeros = noise.draw(6)
    assert zeros.dtype == np.float64 and zeros.shape == (6,)
    assert not np.any(zeros) and not np.any(np.signbit(zeros))
    C_true = 2.2125e-12
    assert measure_capacitance(C_true, noise, 40).C_meas.tolist() == [C_true] * 40
    area = default_model.geom.w_p * default_model.geom.l_p
    assert [C for _, _, C in calibration_table(default_model, DEFAULT_SPACERS, noise)] == \
        [parallel_plate_capacitance(area, s, 8.85e-12) for s in DEFAULT_SPACERS]


def test_calibration_table_rejects_bad_spacer(default_model):
    with pytest.raises(InvalidParameter):
        calibration_table(default_model, [25e-6, -50e-6], QUIET)


@pytest.mark.parametrize("spacer", [float("nan"), float("inf"), -float("inf")])
def test_calibration_table_rejects_non_finite_spacer(default_model, spacer):
    # a NaN spacer gave a (nan, nan, nan) row, an infinite one a row with C = 0
    with pytest.raises(InvalidParameter, match="spacer thickness must be finite") as exc:
        calibration_table(default_model, [25e-6, spacer, 50e-6, 75e-6], QUIET)
    assert exc.value.name == "spacers"


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


@pytest.mark.parametrize("sigma_C", [0.0, 1e-17, 1e-15, 1e-13])
@pytest.mark.parametrize("seed", [0, 4, 21])
def test_calibration_keeps_the_scalar_expressions_bits(default_model, sigma_C, seed):
    # calibration_table's rows on Python floats and calibration_fit's fsums over its
    # columns, as uint64, against the rows on NumPy scalars and the fit's per-row sums
    # spacers whose plain float sums of 1/spacer and of C differ from their fsums
    spacers = [1e-6 * k for k in (3, 7, 11, 13, 29, 31, 37, 41, 53, 97, 131, 401)]
    noise = NoiseModel(sigma_C=sigma_C, seed=seed)
    area, eps0 = default_model.geom.w_p * default_model.geom.l_p, default_model.constants.eps0
    expected = [(s, 1.0 / s, float(parallel_plate_capacitance(area, s, eps0) + dC))
                for s, dC in zip(spacers, noise.draw(len(spacers)))]
    rows = calibration_table(default_model, spacers, noise)
    assert all(type(v) is float for row in rows for v in row)
    assert _bits(rows) == _bits(expected)
    n = len(rows)
    x_mean = math.fsum(row[1] for row in rows) / n
    C_mean = math.fsum(row[2] for row in rows) / n
    dx = [row[1] - x_mean for row in rows]
    dC = [row[2] - C_mean for row in rows]
    slope = math.fsum(a * b for a, b in zip(dx, dC)) / math.fsum(a * a for a in dx)
    intercept = C_mean - slope * x_mean
    ss_res = math.fsum((row[2] - (slope * row[1] + intercept)) ** 2 for row in rows)
    r2 = max(0.0, min(1.0, 1.0 - ss_res / math.fsum(b * b for b in dC)))
    fit = calibration_fit(default_model, rows)
    assert _bits([fit.slope, fit.intercept, fit.r2, fit.implied_area]) == \
        _bits([slope, intercept, r2, slope / eps0])


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       sigma_C=st.sampled_from([1e-17, 1e-15, 1e-13]),
       microns=st.lists(st.integers(min_value=5, max_value=400), min_size=3, max_size=12,
                        unique=True))
def test_calibration_fit_matches_polyfit(default_model, seed, sigma_C, microns):
    # the closed-form centered line is the least-squares line np.polyfit finds,
    # here taken in exact rational arithmetic: polyfit's own intercept can miss
    # the exact one by more than the tolerance on close spacers (seed=1,
    # sigma_C=1e-13, microns=[340, 347, 368]), where calibration_fit's does not
    rows = calibration_table(default_model, [1e-6 * k for k in microns],
                             NoiseModel(sigma_C=sigma_C, seed=seed))
    x, C = [Fraction(r[1]) for r in rows], [Fraction(r[2]) for r in rows]
    x_mean, C_mean = sum(x) / len(x), sum(C) / len(C)
    exact = (sum((a - x_mean) * (c - C_mean) for a, c in zip(x, C))
             / sum((a - x_mean) ** 2 for a in x))
    slope, intercept = float(exact), float(C_mean - exact * x_mean)
    fit = calibration_fit(default_model, rows)
    assert fit.slope == pytest.approx(slope, rel=1e-14)
    assert fit.intercept == pytest.approx(intercept, rel=0.0,
                                          abs=1e-14 * max(r[2] for r in rows))


@pytest.mark.parametrize("stray", [3e-13, -1e-13, 2e-12])
def test_calibration_fit_recovers_stray_capacitance(default_model, stray):
    # rows C = eps0*A/d + b: the line has slope eps0*A and intercept b
    eps0_area = 8.85e-12 * 25e-6
    rows = [(d, 1.0 / d, eps0_area / d + stray) for d in DEFAULT_SPACERS]
    fit = calibration_fit(default_model, rows)
    assert fit.slope == pytest.approx(eps0_area, rel=1e-12)
    assert fit.intercept == pytest.approx(stray, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.implied_area == pytest.approx(25e-6, rel=1e-12)


@pytest.mark.parametrize("spacers,sigma_C", [
    ([1e300, 2e300, 3e300], 0.0),     # the spread of 1/spacer squared underflows to 0
    ([1e154, 2e154, 3e154], 0.0),     # ... to a subnormal: the slope read 0 and r2 1
    ([1e-320, 1e-6, 2e-6], 0.0),      # 1/spacer overflows: the line was NaN with r2 1
    ([1e-200, 2e-200, 3e-200], 0.0),  # the sums overflow: the line was NaN with r2 1
    ([1e-155, 2e-155, 3e-155], 0.0),  # sum(dx^2) overflows alone: the slope read 0
    (DEFAULT_SPACERS, 1e200),         # the residuals' squares overflow: OverflowError
], ids=["spread-underflow", "spread-subnormal", "inverse-overflow", "sums-overflow",
        "spread-overflow", "noise-overflow"])
def test_calibration_fit_outside_float_range(default_model, spacers, sigma_C):
    # no NaN or silently wrong line is reported, clamped to a perfect r2, and nothing crashes
    rows = calibration_table(default_model, spacers, NoiseModel(sigma_C=sigma_C, seed=1))
    with pytest.raises(DegenerateData, match=r"^spacers \[.*: the line of C versus 1/spacer "
                                             r"leaves the float64 range") as exc:
        calibration_fit(default_model, rows)
    assert repr(sorted(spacers)) in str(exc.value)


def test_noise_past_the_float_range_is_refused_as_sigma_C(default_model):
    # noise whose readings overflow, or that takes the calibration line out of the
    # float range, is refused by name and with no NumPy overflow warning; a line that
    # the spacers alone take out of range stays DegenerateData under any noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=r"^sigma_C: noise of std 1e\+308 overflows"):
            measure_capacitance(2e-12, NoiseModel(sigma_C=1e308), 1000)
        assert np.all(np.isfinite(NoiseModel(sigma_C=1e300).draw(1000)))
        for sigma_C in (1e200, 1e308):
            with pytest.raises(InvalidParameter, match=r"^sigma_C: noise of std .* takes the "
                                                       r"calibration line out of the float64 "
                                                       r"range: spacers \["):
                calibrate(default_model, DEFAULT_SPACERS, NoiseModel(sigma_C=sigma_C, seed=1))
        with pytest.raises(DegenerateData, match=r"^spacers \[1e\+300"):
            calibrate(default_model, [1e300, 2e300, 3e300], NoiseModel(sigma_C=1e-16))


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
