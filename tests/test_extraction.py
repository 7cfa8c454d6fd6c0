import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paddle_lab import (CVDataset, CVRow, DegenerateData, Electrode,
                        InsufficientData, InvalidParameter, MeasurementSample,
                        MeasurementStream, NoiseModel, NoStableEquilibrium, OutOfRange, TouchViolation,
                        build_model, capacitance_value, deflection_series,
                        fit_film_parameters, load_cv_csv, measure_capacitance,
                        model_from_dict, model_to_dict, pull_in_voltage, simulate_cv,
                        yp_from_capacitance)
from paddle_lab.cli import main
from paddle_lab.extraction import _PreparedFit
from paddle_lab.mechanics import StableBranch


def test_simulate_cv_basic(with_sigma0):
    m = with_sigma0(100e6)
    ds = simulate_cv(m, Electrode.BOTTOM, [50.0, 0.0, 100.0])
    assert [r.V for r in ds.rows] == [0.0, 50.0, 100.0]
    assert all(r.electrode is Electrode.BOTTOM for r in ds.rows)
    assert all(r.C > 0.0 for r in ds.rows)


def test_simulate_cv_skips_past_pull_in(with_sigma0):
    m = with_sigma0(100e6)  # pull-in near 204.5 V on the bottom electrode
    ds = simulate_cv(m, Electrode.BOTTOM, [0.0, 100.0, 150.0, 300.0, 400.0])
    assert [r.V for r in ds.rows] == [0.0, 100.0, 150.0]


def test_simulate_cv_noise_seeded(with_sigma0):
    m = with_sigma0(100e6)
    noise = NoiseModel(sigma_C=1e-16, seed=5)
    a = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0], noise)
    b = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0], noise)
    clean = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0])
    assert a == b
    deltas = [abs(x.C - y.C) for x, y in zip(a.rows, clean.rows)]
    assert all(0.0 < d < 1e-15 for d in deltas)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_cv_rejects_non_finite_voltages(with_sigma0, bad):
    m = with_sigma0(100e6)
    with pytest.raises(InvalidParameter, match=r"^V_list: voltages must be finite and >= 0"):
        simulate_cv(m, Electrode.BOTTOM, [0.0, bad, 50.0, 100.0])


def test_simulate_cv_empty_is_insufficient(with_sigma0):
    with pytest.raises(InsufficientData):
        simulate_cv(with_sigma0(100e6), Electrode.BOTTOM, [])


def test_dataset_validation():
    rows = (CVRow(0.0, 2e-12, Electrode.BOTTOM), CVRow(10.0, 2e-12, Electrode.BOTTOM))
    with pytest.raises(InsufficientData):
        CVDataset(rows=rows)
    with pytest.raises(InvalidParameter):
        CVDataset(rows=rows + (CVRow(-1.0, 2e-12, Electrode.BOTTOM),))
    with pytest.raises(InvalidParameter):
        CVDataset(rows=rows + (CVRow(5.0, 0.0, Electrode.BOTTOM),))


def test_deflection_series_round_trip(default_model):
    C = capacitance_value(10e-6, default_model, Electrode.TOP)
    samples = measure_capacitance(C, NoiseModel(sigma_C=0.0), 5)
    series = deflection_series(samples, default_model, Electrode.TOP)
    assert [t for t, _ in series] == [s.t for s in samples]
    for _, y in series:
        assert y == pytest.approx(10e-6, abs=1e-12)


def test_deflection_series_noise_propagation(default_model):
    C = capacitance_value(0.0, default_model, Electrode.TOP)
    samples = measure_capacitance(C, NoiseModel(sigma_C=1e-16, seed=2), 2000)
    series = deflection_series(samples, default_model, Electrode.TOP)
    y = np.array([v for _, v in series])
    h = 1e-9
    slope = (capacitance_value(h, default_model, Electrode.TOP)
             - capacitance_value(-h, default_model, Electrode.TOP)) / (2.0 * h)
    predicted = 1e-16 / abs(slope)  # a few nm
    assert np.std(y) == pytest.approx(predicted, rel=0.1)
    assert abs(np.mean(y)) < 5.0 * predicted / np.sqrt(len(y))


def _stream(t, C):
    return MeasurementStream(np.array(t, dtype=float), np.array(C, dtype=float))


def test_deflection_series_out_of_range_row(default_model):
    samples = _stream([0.01, 0.02, 0.03], [2e-12, 2.5e-12, 10e-12])
    with pytest.raises(OutOfRange) as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 2
    # the first bad sample is named, ahead of a later one
    samples.C_meas[1] = float("nan")
    with pytest.raises(OutOfRange, match=r"^sample 1 \(t=0\.02\): C=nan") as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 1
    assert deflection_series(_stream([], []), default_model, Electrode.TOP) == []


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_deflection_series_is_column_inversion(default_model, electrode):
    # one (t, y_p) tuple of Python floats per reading: the stream's t and the
    # inversion of its C_meas column, bit for bit
    for y_p, sigma_C in ((2e-5, 1e-16), (-3e-5, 3e-16), (0.0, 0.0)):
        stream = measure_capacitance(capacitance_value(y_p, default_model, electrode),
                                     NoiseModel(sigma_C=sigma_C, dt=1e-3, seed=4), 200)
        series = deflection_series(stream, default_model, electrode)
        assert all(type(t) is float and type(y) is float for t, y in series)
        assert [t for t, _ in series] == stream.t.tolist()
        y = yp_from_capacitance(stream.C_meas, default_model, electrode)
        assert np.array([y for _, y in series]).tobytes() == y.tobytes()


@pytest.mark.parametrize("first_bad", [0, 137])
@pytest.mark.parametrize("bad", [float("nan"), 10e-12, -1e-12])
def test_deflection_series_out_of_range_stream_is_list(default_model, first_bad, bad):
    # the message names the first bad reading, with t as a Python float, then
    # gives the lone reading's inversion message; `row` is its index
    stream = measure_capacitance(capacitance_value(1e-5, default_model, Electrode.TOP),
                                 NoiseModel(dt=1e-3, seed=8), 200)
    C = stream.C_meas.copy()
    C[[first_bad, 150]] = bad
    stream = MeasurementStream(stream.t, C)
    with pytest.raises(OutOfRange) as exc:
        deflection_series(stream, default_model, Electrode.TOP)
    with pytest.raises(OutOfRange) as lone:
        yp_from_capacitance(bad, default_model, Electrode.TOP)
    assert exc.value.row == first_bad
    assert str(exc.value) == f"sample {first_bad} (t={stream.t[first_bad].item()!r}): {lone.value}"
    assert "np.float64" not in str(exc.value)


def test_readout_builds_no_sample_objects(default_model, monkeypatch, tmp_path):
    # measure_capacitance, deflection_series and `cli measure` pass columns: no
    # MeasurementSample is constructed until the stream is iterated
    calls = []
    init = MeasurementSample.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MeasurementSample, "__init__", counted)
    C = capacitance_value(2e-5, default_model, Electrode.TOP)
    stream = measure_capacitance(C, NoiseModel(sigma_C=1e-16, seed=3), 200)
    series = deflection_series(stream, default_model, Electrode.TOP)
    assert len(series) == len(stream) == 200
    assert main(["measure", "--n", "200", "--out", str(tmp_path)]) == 0
    assert len(calls) == 0
    assert len(list(stream)) == 200 and len(calls) == 200


def test_load_cv_csv(tmp_path):
    path = tmp_path / "cv.csv"
    path.write_text("V_volt,C_F\n0.0,2.2e-12\n10.0,2.3e-12\n20.0,2.4e-12\n")
    ds = load_cv_csv(path, Electrode.TOP)
    assert len(ds.rows) == 3
    assert ds.rows[1].V == 10.0 and ds.rows[1].C == 2.3e-12
    assert ds.rows[0].electrode is Electrode.TOP


@pytest.mark.parametrize("text", [
    "",                                      # empty file
    "volts,farads\n0,2e-12\n1,2e-12\n2,2e-12\n",  # wrong header
    "V_volt,C_F\n0.0,2e-12\nbad,2e-12\n2,2e-12\n",  # non-numeric
    "V_volt,C_F\n0.0\n1.0,2e-12\n2.0,2e-12\n",      # wrong field count
])
def test_load_cv_csv_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidParameter):
        load_cv_csv(path, Electrode.TOP)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["V", "C"])
def test_load_cv_csv_rejects_non_finite(tmp_path, column, value):
    row = f"{value},2.4e-12" if column == "V" else f"20.0,{value}"
    path = tmp_path / "cv.csv"
    path.write_text(f"V_volt,C_F\n0.0,2.2e-12\n10.0,2.3e-12\n{row}\n")
    with pytest.raises(InvalidParameter, match="row 2") as info:
        load_cv_csv(path, Electrode.TOP)
    assert info.value.name == column


def test_fit_noise_free_round_trip(default_model, with_sigma0):
    truth = with_sigma0(200e6)
    ds = simulate_cv(truth, Electrode.BOTTOM, np.linspace(0.0, 160.0, 9))
    fit = fit_film_parameters(ds, default_model)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(200e6, rel=1e-6)
    assert fit.EFVF_hat == pytest.approx(70e9 * 1.5e-12, rel=1e-6)
    assert fit.rms_residual <= 1e-18
    assert fit.iterations <= 100


def test_fit_from_distant_template(with_sigma0):
    # template starts 3x off in stress and 40% off in film product
    truth = with_sigma0(150e6)
    ds = simulate_cv(truth, Electrode.BOTTOM, np.linspace(0.0, 150.0, 11))
    template = with_sigma0(450e6, t_F=280e-9)
    fit = fit_film_parameters(ds, template)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(150e6, rel=1e-6)
    assert fit.EFVF_hat == pytest.approx(70e9 * 1.5e-12, rel=1e-6)


def test_fit_round_trip_random_parameters(default_model, with_sigma0):
    rng = np.random.default_rng(42)
    for _ in range(25):
        sigma0 = float(rng.uniform(20e6, 400e6))
        t_F = float(200e-9 * rng.uniform(0.5, 1.5))  # E_F*V_F within +-50%
        truth = with_sigma0(sigma0, t_F=t_F)
        ds = simulate_cv(truth, Electrode.BOTTOM, np.linspace(0.0, 120.0, 7))
        fit = fit_film_parameters(ds, default_model)
        assert fit.converged
        assert fit.sigma0_hat == pytest.approx(sigma0, rel=1e-6)
        assert fit.EFVF_hat == pytest.approx(70e9 * t_F * 7.5e-6, rel=1e-6)


def test_fit_top_electrode(default_model, with_sigma0):
    truth = with_sigma0(120e6)
    ds = simulate_cv(truth, Electrode.TOP, np.linspace(0.0, 80.0, 9))
    fit = fit_film_parameters(ds, default_model)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(120e6, rel=1e-6)


def test_fit_noisy_recovery(default_model, with_sigma0):
    truth = with_sigma0(200e6)
    v_pi = 236.4785
    voltages = np.linspace(0.0, 0.8 * v_pi, 21)
    errs = []
    for seed in (0, 1, 2):
        ds = simulate_cv(truth, Electrode.BOTTOM, voltages,
                         NoiseModel(sigma_C=1e-16, seed=seed))
        fit = fit_film_parameters(ds, default_model)
        errs.append(abs(fit.sigma0_hat - 200e6) / 200e6)
    assert np.median(errs) <= 0.04


def test_fit_degenerate_single_voltage(default_model):
    C = capacitance_value(0.0, default_model, Electrode.BOTTOM)
    rows = tuple(CVRow(25.0, C * (1.0 + 1e-4 * i), Electrode.BOTTOM) for i in range(4))
    with pytest.raises(DegenerateData):
        fit_film_parameters(CVDataset(rows=rows), default_model)


TRUTH_SIGMA0, TRUTH_T_F = 150e6, 220e-9
TRUTH_EFVF = 70e9 * TRUTH_T_F * 7.5e-6


def _interleaved(*parts):
    """The rows of several datasets, alternating between them while they last."""
    n = max(len(p) for p in parts)
    return tuple(p[i] for i in range(n) for p in parts if i < len(p))


def test_fit_two_electrodes(default_model):
    # 11 bottom and 10 top rows of one noise-free truth, interleaved: each
    # electrode's rows are solved on its own branch and land in their own places
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    parts = []
    for e, n in ((Electrode.BOTTOM, 11), (Electrode.TOP, 10)):
        V = np.linspace(0.0, 0.8 * pull_in_voltage(truth, e).V_pull_in, n)
        parts.append(simulate_cv(truth, e, V).rows)
    fit = fit_film_parameters(CVDataset(rows=_interleaved(*parts)), default_model)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(TRUTH_SIGMA0, rel=1e-6)
    assert fit.EFVF_hat == pytest.approx(TRUTH_EFVF, rel=1e-6)


def test_fit_rebuilds_no_model_through_the_dict(default_model, with_sigma0, monkeypatch):
    # a trial film is a replaced film on the template, not a flat-dict round trip
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "paddle_lab"]:
        for name in ("model_to_dict", "model_from_dict"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    ds = simulate_cv(with_sigma0(150e6), Electrode.BOTTOM, np.linspace(0.0, 150.0, 11))
    fit = fit_film_parameters(ds, default_model)
    assert fit.converged and fit.iterations > 0
    assert calls == []


@functools.cache
def _oracle_datasets():
    """Noisy C-V sets of one truth up to 0.99 V_PI: each electrode alone, and both interleaved."""
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    sets = {}
    for e in Electrode:
        V = np.linspace(0.0, 0.99 * pull_in_voltage(truth, e).V_pull_in, 21)
        sets[e.value] = simulate_cv(truth, e, V, NoiseModel(sigma_C=1e-16, seed=3))
    sets["both"] = CVDataset(rows=_interleaved(sets["bottom"].rows[:11], sets["top"].rows[:10]))
    return sets


def _rebuilt_residuals(theta, data, template):
    """The residual vector through a rebuilt model: the flat-dict round trip,
    one branch solve and one capacitance per electrode, or None where one raises."""
    film = template.film
    try:
        m = model_from_dict({**model_to_dict(template), "sigma0": float(theta[0]),
                             "t_F": float(theta[1]) / (film.E_F * film.A_F)})
    except InvalidParameter:
        return None
    V, C = data.voltages, data.capacitances
    res = np.empty(len(data.rows))
    for e in Electrode:
        rows = np.array([row.electrode is e for row in data.rows])
        if rows.any():
            try:
                res[rows] = capacitance_value(StableBranch(m, e).solve(V[rows]), m, e) - C[rows]
            except (NoStableEquilibrium, TouchViolation):
                return None
    return res


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["bottom", "top", "both"]),
       sigma0=st.one_of(st.floats(min_value=-1.0, max_value=2.5).map(lambda f: f * TRUTH_SIGMA0),
                        st.sampled_from([math.nan, math.inf, -math.inf, 9e8, -9e8])),
       EFVF=st.one_of(st.floats(min_value=0.3, max_value=2.0).map(lambda f: f * TRUTH_EFVF),
                      st.sampled_from([0.0, -TRUTH_EFVF, math.nan, math.inf])))
@example(which="both", sigma0=TRUTH_SIGMA0, EFVF=TRUTH_EFVF)     # defined
@example(which="both", sigma0=math.nan, EFVF=TRUTH_EFVF)         # not a model
@example(which="bottom", sigma0=TRUTH_SIGMA0, EFVF=0.0)          # no film: V_PI below the data
@example(which="bottom", sigma0=TRUTH_SIGMA0, EFVF=-TRUTH_EFVF)  # not a model
@example(which="bottom", sigma0=-TRUTH_SIGMA0, EFVF=TRUTH_EFVF)  # V_PI below the data
@example(which="top", sigma0=2.0 * TRUTH_SIGMA0, EFVF=TRUTH_EFVF)  # V_PI below the data
@example(which="both", sigma0=9e8, EFVF=TRUTH_EFVF)              # pinned on top
@example(which="both", sigma0=-9e8, EFVF=TRUTH_EFVF)             # pinned on the bottom
def test_fit_residuals_match_rebuilt_model_bitwise(default_model, which, sigma0, EFVF):
    # the prepared fit's residual has the bits of a residual through a rebuilt
    # model, and is undefined exactly where that one raises
    data = _oracle_datasets()[which]
    theta = np.array([sigma0, EFVF])
    expected = _rebuilt_residuals(theta, data, default_model)
    got = _PreparedFit(data, default_model).residuals(theta)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == expected.tobytes()
