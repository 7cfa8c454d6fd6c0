import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paddle_lab import (CVDataset, DeflectionSeries, DegenerateData, Electrode,
                        InsufficientData, InvalidParameter, MeasurementSample,
                        MeasurementStream, NoiseModel, NoStableEquilibrium, OutOfRange, TouchViolation,
                        build_model, capacitance_value, deflection_series,
                        fit_film_parameters, load_cv_csv, measure_capacitance,
                        model_from_dict, model_to_dict, pull_in_voltage, simulate_cv,
                        sweep_voltage, ValidatedModel, yp_from_capacitance)
from paddle_lab import extraction
from paddle_lab.cli import main
from paddle_lab.electrostatics import capacitance_range, capacitance_slope
from paddle_lab.extraction import (MAX_HALVINGS, REL_STEP_TOL, CVRow, _dot, _error_bars,
                                   _initial_guess, _normal, _PreparedFit, _step)
from paddle_lab.mechanics import StableBranch, _Drive, compliance, strain_coupling


def test_simulate_cv_basic(with_sigma0):
    m = with_sigma0(100e6)
    ds = simulate_cv(m, Electrode.BOTTOM, [50.0, 0.0, 100.0])
    assert ds.V.dtype == ds.C.dtype == np.float64
    assert ds.V.tolist() == [0.0, 50.0, 100.0]
    assert ds.electrode.tolist() == ["bottom"] * 3
    assert np.all(ds.C > 0.0)


def test_simulate_cv_skips_past_pull_in(with_sigma0):
    m = with_sigma0(100e6)  # pull-in near 204.5 V on the bottom electrode
    ds = simulate_cv(m, Electrode.BOTTOM, [0.0, 100.0, 150.0, 300.0, 400.0])
    assert ds.V.tolist() == [0.0, 100.0, 150.0]
    assert ds.C.size == ds.electrode.size == 3


def test_simulate_cv_noise_seeded(with_sigma0):
    m = with_sigma0(100e6)
    noise = NoiseModel(sigma_C=1e-16, seed=5)
    a = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0], noise)
    b = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0], noise)
    clean = simulate_cv(m, Electrode.BOTTOM, [0.0, 50.0, 100.0])
    assert _same(a, b)
    deltas = np.abs(a.C - clean.C)
    assert np.all((0.0 < deltas) & (deltas < 1e-15))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_cv_rejects_non_finite_voltages(with_sigma0, bad):
    m = with_sigma0(100e6)
    message = (r"^V: drive voltages must be finite and >= 0, with a finite square "
               rf"\(force is even in V\), got {bad!r}$")
    with pytest.raises(InvalidParameter, match=message) as info:
        simulate_cv(m, Electrode.BOTTOM, [0.0, bad, 50.0, 100.0])
    assert info.value.name == "V"


def test_simulate_cv_empty_is_invalid(with_sigma0):
    # an empty list is sweep_voltage's error; rows that do not reach three are
    # the dataset's
    m = with_sigma0(100e6)
    with pytest.raises(InvalidParameter, match=r"^V_list: must be nonempty$"):
        simulate_cv(m, Electrode.BOTTOM, [])
    with pytest.raises(InsufficientData):
        simulate_cv(m, Electrode.BOTTOM, [0.0, 100.0, 300.0])


def _same(a, b):
    """True when two datasets hold the same columns, bit for bit."""
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.V, b.V), (a.C, b.C), (a.electrode, b.electrode)))


def test_dataset_validation():
    V, C, el = [0.0, 10.0, 20.0], [2e-12, 2.1e-12, 2.2e-12], ["bottom"] * 3
    with pytest.raises(InsufficientData, match=r"^need >= 3 rows, got 2$"):
        CVDataset(V[:2], C[:2], el[:2])
    for args, name in (((V, C[:2], el), "C"), ((V[:2], C, el), "C"), ((V, C, el[:2]), "electrode"),
                       (([V], [C], [el]), "V"), ((V, np.array([C]), el), "C"),
                       ((V, C, "bottom"), "electrode"), ((["a", 1.0, 2.0], C, el), "V")):
        with pytest.raises(InvalidParameter) as info:
            CVDataset(*args)
        assert info.value.name == name
    with pytest.raises(InvalidParameter, match=r"^electrode: row 1: must be 'top' or 'bottom', "
                                               r"got 'left'$") as info:
        CVDataset(V, C, ["top", "left", "top"])
    assert info.value.name == "electrode"


@pytest.mark.parametrize("i", [0, 2])
@pytest.mark.parametrize("column, bad", [("V", -1.0), ("V", math.nan), ("V", math.inf),
                                         ("C", 0.0), ("C", math.nan), ("C", -math.inf)])
def test_dataset_names_first_bad_row(column, bad, i):
    # the first bad row gets _check_row's message, ahead of a later bad row
    # and of a later unknown electrode
    V, C = np.array([0.0, 10.0, 20.0, 30.0]), np.array([2e-12, 2.1e-12, 2.2e-12, 2.3e-12])
    (V if column == "V" else C)[[i, 3]] = bad
    with pytest.raises(InvalidParameter) as info:
        CVDataset(V, C, ["top", "top", "top", "left"])
    what = "voltage must be finite and >= 0" if column == "V" else "capacitance must be finite and > 0"
    assert str(info.value) == f"{column}: row {i}: {what}, got {bad!r}"
    assert info.value.name == column


def test_dataset_takes_the_drive_voltage_rule(default_model):
    # a finite V whose square overflows is the row's error, ahead of a later bad
    # row, and no NumPy overflow warning; the dataset and the fit's drive draw
    # the line at the same float
    C, el = np.array([2e-12, 2.1e-12, 2.2e-12, 2.3e-12]), ["top"] * 4
    with pytest.raises(InvalidParameter) as info:
        CVDataset([0.0, 10.0, 1e200, -1.0], C, el)
    assert str(info.value) == "V: row 2: voltage must have a finite square, got 1e+200"
    assert info.value.name == "V"
    over = math.sqrt(sys.float_info.max)
    while over * over < math.inf:
        over = math.nextafter(over, math.inf)
    under = math.nextafter(over, 0.0)  # the largest V with a finite square
    assert CVDataset([0.0, 10.0, under, 20.0], C, el).V[2] == under
    _Drive(default_model, Electrode.TOP, under)
    with pytest.raises(InvalidParameter, match=r"^V: row 2: voltage must have a finite square"):
        CVDataset([0.0, 10.0, over, 20.0], C, el)
    with pytest.raises(InvalidParameter, match=r"^V: drive voltages must be finite and >= 0"):
        _Drive(default_model, Electrode.TOP, over)


def test_dataset_columns():
    # float64 columns pass through uncopied, as read-only views; electrode
    # becomes a str array, Electrode members read as their names
    V, C = np.array([0.0, 10.0, 20.0]), np.array([2e-12, 2.1e-12, 2.2e-12])
    ds = CVDataset(V, C, [Electrode.TOP, "bottom", Electrode.TOP])
    assert ds.V.base is V and ds.C.base is C
    assert ds.electrode.tolist() == ["top", "bottom", "top"] and ds.electrode.dtype.kind == "U"
    ds = CVDataset([0, 10, 20], [2e-12, 2.1e-12, 2.2e-12], np.full(3, "top"))
    assert ds.V.dtype == ds.C.dtype == np.float64 and ds.V.tolist() == [0.0, 10.0, 20.0]


def test_dataset_columns_are_read_only(default_model):
    # a write after the constructor's check raises instead of reaching the fit;
    # the caller's own arrays keep their flags
    V, C = np.linspace(0.0, 150.0, 11), np.full(11, 2.5e-12)
    ds = CVDataset(V, C, np.full(11, "bottom"))
    for name in ("V", "C", "electrode"):
        column = getattr(ds, name)
        with pytest.raises(ValueError, match="read-only"):
            column[4] = column[0]
    assert V.flags.writeable and C.flags.writeable
    ds = simulate_cv(build_model(sigma0=150e6), "bottom", np.linspace(0, 150, 11))
    with pytest.raises(ValueError, match="read-only"):
        ds.C[4] = float("nan")
    assert math.isfinite(fit_film_parameters(ds, default_model).rms_residual)


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_dataset_rows_view_is_the_columns(default_model, electrode):
    # the benchmark-only row view holds the columns' bits as Python floats
    ds = simulate_cv(default_model, electrode, np.linspace(0.0, 60.0, 13),
                     NoiseModel(sigma_C=1e-16, seed=6))
    rows = ds.rows
    assert rows is ds.rows and len(rows) == 13
    assert all(type(r.V) is float and type(r.C) is float for r in rows)
    assert all(r.electrode is electrode for r in rows)
    assert np.array([r.V for r in rows]).tobytes() == ds.V.tobytes()
    assert np.array([r.C for r in rows]).tobytes() == ds.C.tobytes()


def test_cv_path_builds_no_row_objects(default_model, with_sigma0, monkeypatch, tmp_path):
    # simulate_cv, load_cv_csv, fit_film_parameters and `cli extract` pass
    # columns: no CVRow is constructed until the rows view is read
    calls = []
    init = CVRow.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CVRow, "__init__", counted)
    ds = simulate_cv(with_sigma0(150e6), Electrode.BOTTOM, np.linspace(0.0, 150.0, 11),
                     NoiseModel(sigma_C=1e-17, seed=2))
    path = tmp_path / "cv.csv"
    path.write_text("V_volt,C_F\n" + "".join(f"{v!r},{c!r}\n"
                                             for v, c in zip(ds.V.tolist(), ds.C.tolist())))
    loaded = load_cv_csv(path, Electrode.BOTTOM)
    assert _same(loaded, ds)
    assert fit_film_parameters(loaded, default_model).converged
    assert main(["extract", "--data", str(path), "--electrode", "bottom",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 0
    assert len(ds.rows) == 11 and len(calls) == 11


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


@pytest.mark.parametrize("t, C, name", [([0.01, 0.02, 0.03], [2.3e-12], "C_meas"),
                                        ([0.01], [2.3e-12, 2.4e-12], "C_meas"),
                                        ([[0.01, 0.02]], [2.3e-12, 2.4e-12], "t"),
                                        ([0.01, 0.02], "2.3e-12 F", "C_meas")])
def test_stream_refuses_bad_columns(t, C, name):
    # columns of unequal length or of another shape never reach deflection_series
    with pytest.raises(InvalidParameter) as info:
        MeasurementStream(np.array(t), C)
    assert info.value.name == name


def test_stream_of_list_columns_is_arrays(default_model):
    C = capacitance_value(1e-5, default_model, Electrode.TOP)
    stream = MeasurementStream([0.01, 0.02, 0.03], [C, C, C])
    assert stream.t.dtype == stream.C_meas.dtype == np.float64
    series = deflection_series(stream, default_model, Electrode.TOP)
    assert [t for t, _ in series] == [0.01, 0.02, 0.03]
    assert all(y == pytest.approx(1e-5, abs=1e-12) for _, y in series)


def test_deflection_series_out_of_range_row(default_model):
    samples = _stream([0.01, 0.02, 0.03], [2e-12, 2.5e-12, 10e-12])
    with pytest.raises(OutOfRange) as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 2
    # the first bad sample is named, ahead of a later one
    samples = _stream([0.01, 0.02, 0.03], [2e-12, float("nan"), 10e-12])
    with pytest.raises(OutOfRange, match=r"^sample 1 \(t=0\.02\): C=nan") as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 1
    assert len(deflection_series(_stream([], []), default_model, Electrode.TOP)) == 0


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_deflection_series_is_column_inversion(default_model, electrode):
    # read-only columns: the stream's t and the inversion of its C_meas column,
    # bit for bit; iterated, one (t, y_p) pair of Python floats per reading
    for y_p, sigma_C in ((2e-5, 1e-16), (-3e-5, 3e-16), (0.0, 0.0)):
        stream = measure_capacitance(capacitance_value(y_p, default_model, electrode),
                                     NoiseModel(sigma_C=sigma_C, dt=1e-3, seed=4), 200)
        series = deflection_series(stream, default_model, electrode)
        assert isinstance(series, DeflectionSeries) and len(series) == 200
        y = yp_from_capacitance(stream.C_meas, default_model, electrode)
        assert series.t is stream.t and series.y_p.tobytes() == y.tobytes()
        assert not series.y_p.flags.writeable
        assert all(type(t) is float and type(y) is float for t, y in series)
        assert [t for t, _ in series] == stream.t.tolist()
        assert np.array([y for _, y in series]).tobytes() == y.tobytes()


def test_deflection_series_columns_are_checked():
    # the columns become read-only 1-D float64 arrays of one length, as a stream's do
    series = DeflectionSeries([0.01, 0.02], [1e-6, -2e-6])
    assert series.t.dtype == series.y_p.dtype == np.float64
    assert not series.t.flags.writeable and not series.y_p.flags.writeable
    assert list(series) == [(0.01, 1e-6), (0.02, -2e-6)]
    for t, y_p, name in (([0.01], [1e-6, 2e-6], "y_p"), ([[0.01]], [1e-6], "t")):
        with pytest.raises(InvalidParameter) as info:
            DeflectionSeries(t, y_p)
        assert info.value.name == name


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
    assert ds.V.tolist() == [0.0, 10.0, 20.0]
    assert ds.C.tolist() == [2.2e-12, 2.3e-12, 2.4e-12]
    assert ds.electrode.tolist() == ["top"] * 3


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
    data = CVDataset(np.full(4, 25.0), C * (1.0 + 1e-4 * np.arange(4)), np.full(4, "bottom"))
    with pytest.raises(DegenerateData):
        fit_film_parameters(data, default_model)


TRUTH_SIGMA0, TRUTH_T_F = 150e6, 220e-9
TRUTH_EFVF = 70e9 * TRUTH_T_F * 7.5e-6


def _rows(data, index):
    """The dataset of data's rows at an index array (or slice), in its order."""
    return CVDataset(data.V[index], data.C[index], data.electrode[index])


def _interleaved(*parts):
    """The rows of several datasets in one, alternating between them while they last."""
    sizes = [p.V.size for p in parts]
    starts = np.cumsum([0] + sizes[:-1])
    order = np.array([s + i for i in range(max(sizes)) for s, n in zip(starts, sizes) if i < n])
    joined = CVDataset(*(np.concatenate([getattr(p, f) for p in parts])
                         for f in ("V", "C", "electrode")))
    return _rows(joined, order)


def test_fit_two_electrodes(default_model):
    # 11 bottom and 10 top rows of one noise-free truth, interleaved: each
    # electrode's rows are solved on its own branch and land in their own places
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    parts = []
    for e, n in ((Electrode.BOTTOM, 11), (Electrode.TOP, 10)):
        V = np.linspace(0.0, 0.8 * pull_in_voltage(truth, e).V_pull_in, n)
        parts.append(simulate_cv(truth, e, V))
    data = _interleaved(*parts)
    assert data.electrode.tolist() == ["bottom", "top"] * 10 + ["bottom"]
    assert data.V[1::2].tobytes() == parts[1].V.tobytes()
    fit = fit_film_parameters(data, default_model)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(TRUTH_SIGMA0, rel=1e-6)
    assert fit.EFVF_hat == pytest.approx(TRUTH_EFVF, rel=1e-6)


def test_fit_rebuilds_no_model_through_the_dict(default_model, with_sigma0, monkeypatch):
    # a trial film is a (prestress, k) pair on the template, not a flat-dict round trip.
    # The data set is built first: every ValidatedModel reads its parameters through
    # model_to_dict, so the count also shows that the fit builds no model at all
    ds = simulate_cv(with_sigma0(150e6), Electrode.BOTTOM, np.linspace(0.0, 150.0, 11))
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
    fit = fit_film_parameters(ds, default_model)
    assert fit.converged and fit.iterations > 0
    assert calls == []


def test_fit_constructs_no_model(default_model, with_sigma0, monkeypatch):
    # no ValidatedModel is built per trial theta, nor anywhere else in the fit
    ds = simulate_cv(with_sigma0(150e6), Electrode.BOTTOM, np.linspace(0.0, 150.0, 11))
    builds = []
    post_init = ValidatedModel.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(ValidatedModel, "__post_init__", counted)
    fit = fit_film_parameters(ds, default_model)
    assert fit.converged and fit.iterations > 0
    assert len(builds) == 0


def test_fit_leaves_its_template_without_held_branches(with_sigma0):
    # a trial film's branch is the fit's own: the template holds none afterwards
    ds = simulate_cv(with_sigma0(150e6), Electrode.BOTTOM, np.linspace(0.0, 150.0, 11))
    template = build_model()
    fit = fit_film_parameters(ds, template)
    assert fit.converged and fit.iterations > 0
    assert template._branches == {}


@functools.cache
def _oracle_datasets():
    """Noisy C-V sets of one truth up to 0.99 V_PI: each electrode alone, and both interleaved."""
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    sets = {}
    for e in Electrode:
        V = np.linspace(0.0, 0.99 * pull_in_voltage(truth, e).V_pull_in, 21)
        sets[e.value] = simulate_cv(truth, e, V, NoiseModel(sigma_C=1e-16, seed=3))
    sets["both"] = _interleaved(_rows(sets["bottom"], slice(11)), _rows(sets["top"], slice(10)))
    return sets


def _rebuilt_residuals(theta, data, template):
    """The residual vector through a rebuilt model: the flat-dict round trip,
    one sweep and one capacitance per electrode, or None where a sweep raises
    or stops short of a row (each electrode's rows ascend in V)."""
    film = template.film
    try:
        m = model_from_dict({**model_to_dict(template), "sigma0": float(theta[0]),
                             "t_F": float(theta[1]) / (film.E_F * film.A_F)})
    except InvalidParameter:
        return None
    V, C = data.V, data.C
    res = np.empty(C.size)
    for e in Electrode:
        rows = data.electrode == e.value
        if rows.any():
            try:
                sweep = sweep_voltage(m, e, V[rows])
                if sweep.truncated_at is not None:
                    return None
                res[rows] = capacitance_value(sweep.y_p, m, e) - C[rows]
            except (NoStableEquilibrium, TouchViolation):
                return None
    return res


def _theta(template, sigma0, EFVF):
    """theta = (y0, k) of a film (sigma0, E_F*V_F) on the template, as the model maps it."""
    a, inv_c = strain_coupling(template), 1.0 / compliance(template)
    k = EFVF * a * a + inv_c
    return np.array([EFVF * a * sigma0 / template.film.E_F / k, k])


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
def test_fit_residuals_match_rebuilt_model(default_model, which, sigma0, EFVF):
    # the prepared fit's residual at theta = (y0, k) is, to rounding, the residual
    # through a model rebuilt with that film, and is undefined exactly where that one
    # raises; theta's pair is formed directly, so the bits may differ in the last place
    data = _oracle_datasets()[which]
    expected = _rebuilt_residuals(np.array([sigma0, EFVF]), data, default_model)
    with np.errstate(invalid="ignore", over="ignore"):  # nan and inf films map to nan or inf
        theta = _theta(default_model, sigma0, EFVF)
    got = _PreparedFit(data, default_model).residuals(theta)
    assert (got is None) == (expected is None)
    if expected is not None:
        r, J = got
        assert np.all(np.abs(r - expected) <= 1e-12 * data.C)
        assert J.shape == (data.C.size, 2)


@pytest.mark.parametrize("which", ["bottom", "top", "both"])
def test_fit_reads_branch_poses_as_the_checked_kernels_bitwise(default_model, which):
    # residuals reads the trial branch's poses without the touch check; its residuals
    # and Jacobian give the bits of capacitance_value and capacitance_slope at those poses
    data = _oracle_datasets()[which]
    fit = _PreparedFit(data, default_model)
    for theta in (_theta(default_model, TRUTH_SIGMA0, TRUTH_EFVF),
                  _theta(default_model, 1.02 * TRUTH_SIGMA0, 0.98 * TRUTH_EFVF)):
        r, J = fit.residuals(theta)
        y0, k = map(float, theta)
        expected_r, expected_J = np.empty_like(r), np.empty_like(J)
        for e, rows, C, drive in fit.groups:
            branch = StableBranch(default_model, e, (y0 * k, k))
            y, _ = branch._roots(drive)
            expected_r[rows] = capacitance_value(y, default_model, e) - C
            dC_dF = capacitance_slope(y, default_model, e) / -branch._force_slope(drive, y)
            expected_J[rows, 0] = dC_dF * branch.k
            expected_J[rows, 1] = dC_dF * (branch.rest - y)
        assert np.array_equal(r.view(np.uint64), expected_r.view(np.uint64))
        assert np.array_equal(J.view(np.uint64), expected_J.view(np.uint64))


def _trial_data(truth, electrode, top, sigma_C=0.0, seed=0, n=21):
    V = np.linspace(0.0, top * pull_in_voltage(truth, electrode).V_pull_in, n)
    return simulate_cv(truth, electrode, V,
                       NoiseModel(sigma_C=sigma_C, seed=seed) if sigma_C else None)


@pytest.mark.parametrize("electrode", [Electrode.TOP, Electrode.BOTTOM])
def test_fit_exact_near_pull_in_converges(default_model, electrode):
    # noise-free rows up to 0.9999 V_PI: the exact Jacobian needs no trial film
    # near the branch end, so the fit converges on the truth
    truth = build_model(sigma0=200e6, t_F=250e-9)
    fit = fit_film_parameters(_trial_data(truth, electrode, 0.9999), default_model)
    assert fit.converged
    assert fit.sigma0_hat == pytest.approx(200e6, rel=1e-9)
    assert fit.EFVF_hat == pytest.approx(truth.film.E_F * truth.V_F, rel=1e-7)


@pytest.mark.parametrize("top", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("which", ["bottom", "top", "both"])
def test_fit_jacobian_matches_central_differences(default_model, which, top):
    # the implicit-function Jacobian against central differences of the residual
    # at 1e-6 relative steps, at a theta off the truth
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    parts = [_trial_data(truth, e, top, 1e-16, 3, 11) for e in (Electrode.BOTTOM, Electrode.TOP)]
    data = {"bottom": parts[0], "top": parts[1], "both": _interleaved(*parts)}[which]
    fit = _PreparedFit(data, default_model)
    theta = _theta(default_model, 0.98 * TRUTH_SIGMA0, 1.02 * TRUTH_EFVF)
    J = fit.residuals(theta)[1]
    for j, h in enumerate((1e-6 * fit.travel, 1e-6 * theta[1])):
        step = h * np.eye(2)[j]
        fd = (fit.residuals(theta + step)[0] - fit.residuals(theta - step)[0]) / (2.0 * h)
        assert np.max(np.abs(J[:, j] - fd)) <= 1e-7 * np.max(np.abs(J[:, j]))


def test_fit_noisy_near_pull_in_converges(default_model):
    # sigma_C = 1e-14 F, seed 4, bottom up to 0.95 V_PI: the (sigma0, E_F*V_F) fit
    # stopped at 100 iterations; in (y0, k) it converges in a few
    truth = build_model(sigma0=200e6, t_F=250e-9)
    data = _trial_data(truth, Electrode.BOTTOM, 0.95, 1e-14, 4)
    fit = fit_film_parameters(data, default_model)
    assert fit.converged and fit.iterations <= 10
    assert fit.rms_residual < 1.2e-14
    assert fit.cond < 20.0


def test_fit_solves_each_branch_once_per_trial(default_model, monkeypatch):
    # one StableBranch._roots, one gap-line pass and one call of each of the C and
    # slope helpers per trial theta and electrode, which give both the residuals and
    # the Jacobian: nothing is solved or differentiated outside a trial, after the
    # loop included
    calls = {"roots": 0, "trials": 0, "gap_terms": 0, "values": 0, "slopes": 0}
    roots, residuals = StableBranch._roots, _PreparedFit.residuals

    def counted(key, f):
        def wrapped(*args):
            calls[key] += 1
            return f(*args)
        return wrapped

    truth = build_model(sigma0=200e6, t_F=250e-9)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, 1)
    monkeypatch.setattr(StableBranch, "_roots", counted("roots", roots))
    monkeypatch.setattr(_PreparedFit, "residuals", counted("trials", residuals))
    monkeypatch.setattr(extraction, "_gap_terms", counted("gap_terms", extraction._gap_terms))
    monkeypatch.setattr(extraction, "_capacitance_terms",
                        counted("values", extraction._capacitance_terms))
    monkeypatch.setattr(extraction, "_slope_terms", counted("slopes", extraction._slope_terms))
    fit = fit_film_parameters(data, default_model)
    assert fit.converged and fit.iterations >= 2
    assert calls["roots"] == calls["trials"] >= fit.iterations
    assert calls["gap_terms"] == calls["values"] == calls["slopes"] == calls["trials"]


def test_fit_error_bars(default_model):
    # the standard error of sigma0 covers the scatter of 20 noisy fits: the median
    # |error| is near 0.674 standard errors (normal errors); sigma0 and E_F*V_F stay
    # correlated to -1 while the fit's own coordinates are well conditioned
    truth = build_model(sigma0=200e6, t_F=250e-9)
    errors, ses = [], []
    for seed in range(20):
        fit = fit_film_parameters(_trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, seed),
                                  default_model)
        assert fit.converged
        errors.append(abs(fit.sigma0_hat - 200e6))
        ses.append(fit.sigma0_se)
        assert fit.EFVF_se > 0.0 and -1.0 <= fit.corr < -0.999 and 5.0 < fit.cond < 12.0
    assert 0.5 < np.median(errors) / (0.674 * np.median(ses)) < 2.0
    assert 2e6 < np.median(ses) < 5e6


# Student's t with 21 - 2 degrees of freedom gives the +-1.96 se interval a coverage of
# 0.9352; 300 fits put its binomial sd at 0.0142
COVERAGE_T19, COVERAGE_SD_300 = 0.9352, 0.0142


@pytest.mark.parametrize("electrode,top,sigma_C", [
    (Electrode.BOTTOM, 0.8, 1e-15), (Electrode.TOP, 0.95, 1e-16)])
def test_fit_error_bars_cover_the_truth(default_model, electrode, top, sigma_C):
    # the delta-method error bars are calibrated: over 300 seeds, +-1.96 se covers the true
    # sigma0 and E_F*V_F within 3 binomial sd of the t prediction (measured 0.927-0.940 over
    # both electrodes, 0.8 and 0.95 V_PI, 1e-16 and 1e-15 F). An se off by x1.5 (coverage
    # 0.992) or x0.7 (0.814) falls outside.
    truth = build_model(sigma0=200e6, t_F=250e-9)
    EFVF = truth.film.E_F * truth.V_F
    V = np.linspace(0.0, top * pull_in_voltage(truth, electrode).V_pull_in, 21)
    covered = np.zeros(2)
    for seed in range(300):
        fit = fit_film_parameters(simulate_cv(truth, electrode, V,
                                              NoiseModel(sigma_C=sigma_C, seed=seed)),
                                  default_model)
        assert fit.converged, seed
        covered += [abs(fit.sigma0_hat - 200e6) <= 1.96 * fit.sigma0_se,
                    abs(fit.EFVF_hat - EFVF) <= 1.96 * fit.EFVF_se]
    assert np.all(np.abs(covered / 300 - COVERAGE_T19) < 3 * COVERAGE_SD_300), covered / 300


def test_fit_error_bars_undefined_start(default_model):
    # a start at which no residual exists gives no fit and no error bars
    data = CVDataset([0.0, 400.0, 800.0], [2.2125e-12, 2.1e-12, 2.0e-12], ["bottom"] * 3)
    fit = fit_film_parameters(data, default_model)
    assert not fit.converged and fit.iterations == 0 and fit.rms_residual == math.inf
    assert all(math.isnan(v) for v in (fit.sigma0_se, fit.EFVF_se, fit.corr, fit.cond))


def test_error_bars_undefined_at_zero_film_stiffness_or_singular_jtj(default_model):
    # k_f = 0 leaves sigma0 undefined, and a J^T J with equal columns has no inverse:
    # either way all four error-bar fields are NaN
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    fit = _PreparedFit(_trial_data(truth, Electrode.BOTTOM, 0.8), default_model)
    J = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    for theta in ([0.0, fit.inv_c], [1e-6, 2.0 * fit.inv_c]):
        assert all(map(math.isnan, _error_bars(fit, np.array(theta), J, 1e-30)))


EPS = np.finfo(np.float64).eps
# each closed form against its np.linalg twin: the 2x2 closed forms and LAPACK each
# round to a few eps in J^T J scaled to a unit diagonal, so the two may differ by
# about eps times that matrix's condition number kappa; CLOSED_FORM_TOL eps kappa
# is the stated bound (measured peak 4.6 eps kappa, over the fit data below and 3000
# random Jacobians)
CLOSED_FORM_TOL = 32.0


def _numpy_error_bars(fit, theta, J, ssq):
    """_error_bars as np.linalg forms it (inv and cond of J^T J scaled to a unit
    diagonal), and |G| M |G|^T with M_ij = sqrt(inv_ii inv_jj), the magnitudes that
    bound the rounding of the quadratic forms of the delta method."""
    y0, k = map(float, theta)
    k_f = k - fit.inv_c
    JTJ = J.T @ J
    d = 1.0 / np.sqrt(np.diag(JTJ))
    scaled = JTJ * np.outer(d, d)
    inv = np.linalg.inv(scaled) * np.outer(d, d)
    EFa = fit.template.film.E_F * fit.a
    G = np.array([[k * EFa / k_f, -y0 * EFa * fit.inv_c / (k_f * k_f)],
                  [0.0, 1.0 / (fit.a * fit.a)]])
    M = np.sqrt(np.outer(np.diag(inv), np.diag(inv)))
    cov, bound = G @ inv @ G.T, np.abs(G) @ M @ np.abs(G).T
    s2 = ssq / (J.shape[0] - 2)
    values = (math.sqrt(s2 * cov[0, 0]), math.sqrt(s2 * cov[1, 1]),
              cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]), np.linalg.cond(scaled))
    return values, cov, bound


def _check_closed_forms(fit, theta, J, r, x, y):
    """The fit's sums, step and error bars on (J, r), and its pre-fit line through
    (x, y), each against np.linalg to its stated tolerance; returns each check's
    error over its tolerance."""
    n = J.shape[0]
    ratios = {}
    # the pairwise row sums against BLAS: within n eps of the sums of |products|
    sums = np.array(_normal(J) + (_dot(J[:, 0], r), _dot(J[:, 1], r)))
    blas = np.array([J[:, 0] @ J[:, 0], J[:, 0] @ J[:, 1], J[:, 1] @ J[:, 1]] + list(J.T @ r))
    A = np.abs(J)
    mags = np.concatenate([(A.T @ A)[[0, 0, 1], [0, 1, 1]], A.T @ np.abs(r)])
    ratios["sums"] = np.max(np.abs(sums - blas) / (n * EPS * mags))
    # the step against np.linalg.solve on the same sums, both in the coordinates where
    # the normal matrix has a unit diagonal: there partial pivoting's error, like the
    # closed form's, is about eps kappa of the step's size (LAPACK on the fit's own
    # scaling, whose diagonal spans 1e12, is not)
    s = np.array([fit.travel, float(theta[1])])
    a, b, c, g0, g1 = sums
    N = np.array([[a, b], [b, c]]) * np.outer(s, s)
    d = np.sqrt(np.diag(N))
    unit = N / np.outer(d, d)
    kappa = np.linalg.cond(unit)
    want = np.linalg.solve(unit, -np.array([g0, g1]) * s / d)
    got = d * np.array(_step(J, r, *s))
    ratios["step"] = np.max(np.abs(got - want)) / (CLOSED_FORM_TOL * EPS * kappa
                                                   * np.max(np.abs(want)))
    # the pre-fit line against np.linalg.lstsq on the old scaled design [1, -x/max|x|]:
    # the fitted values agree to eps times the design's condition number and |y|
    design = np.column_stack([np.ones_like(x), -x / np.max(np.abs(x))])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    intercept, slope = extraction._line(x, y)
    fitted = np.abs((intercept + slope * x) - design @ coef)
    ratios["line"] = np.max(fitted) / (CLOSED_FORM_TOL * EPS * np.linalg.cond(design)
                                       * np.max(np.abs(y)))
    # se, corr and cond against inv and cond: entry ij of the inverse is good to
    # about eps kappa sqrt(inv_ii inv_jj), so a quadratic form of the delta method is
    # good to eps kappa times the same form on those magnitudes
    ssq = _dot(r, r)
    got = _error_bars(fit, theta, J, ssq)
    want, cov, bound = _numpy_error_bars(fit, theta, J, ssq)
    rel = CLOSED_FORM_TOL * EPS * kappa * np.abs(bound / cov)
    tol = (0.5 * rel[0, 0], 0.5 * rel[1, 1], rel[0, 1] + 0.5 * (rel[0, 0] + rel[1, 1]),
           CLOSED_FORM_TOL * EPS * kappa)
    for name, g, w, t in zip(("sigma0_se", "EFVF_se", "corr", "cond"), got, want, tol):
        ratios[name] = abs(g - w) / (t * abs(w))
    return ratios


@pytest.mark.parametrize("top", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("which", ["bottom", "top", "both"])
def test_closed_forms_match_numpy_linalg_on_fit_data(default_model, monkeypatch, which, top):
    # on the data of test_fit_jacobian_matches_central_differences: the pre-fit line
    # the fit draws, and the step and error bars at a theta off the truth
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    parts = [_trial_data(truth, e, top, 1e-16, 3, 11) for e in (Electrode.BOTTOM, Electrode.TOP)]
    data = {"bottom": parts[0], "top": parts[1], "both": _interleaved(*parts)}[which]
    fit = _PreparedFit(data, default_model)
    lines = []
    line = extraction._line

    def recorded(x, y):
        lines.append((x, y))
        return line(x, y)

    monkeypatch.setattr(extraction, "_line", recorded)
    _initial_guess(fit)
    monkeypatch.setattr(extraction, "_line", line)
    assert len(lines) == 1
    theta = _theta(default_model, 0.98 * TRUTH_SIGMA0, 1.02 * TRUTH_EFVF)
    r, J = fit.residuals(theta)
    ratios = _check_closed_forms(fit, theta, J, r, *lines[0])
    assert max(ratios.values()) <= 1.0, ratios


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300),
       log_kappa=st.floats(0.0, 6.0), sign=st.sampled_from([-1.0, 1.0]),
       scales=st.tuples(st.floats(-12.0, -4.0), st.floats(-18.0, -10.0)),
       shift=st.floats(0.0, 1e3))
def test_closed_forms_match_numpy_linalg_on_any_jacobian(default_model, seed, n, log_kappa,
                                                          sign, scales, shift):
    # J with orthonormal columns turned to a correlation rho, so that J^T J scaled to
    # a unit diagonal has condition number kappa = (1 + |rho|)/(1 - |rho|) up to 1e6,
    # the columns then scaled to the fit's magnitudes; the line runs through x, the
    # first column shifted off zero, and y, the second
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    kappa = 10.0 ** log_kappa
    rho = sign * (kappa - 1.0) / (kappa + 1.0)
    J = np.column_stack([q[:, 0], rho * q[:, 0] + math.sqrt(1.0 - rho * rho) * q[:, 1]])
    J *= 10.0 ** np.array(scales)
    r = 1e-15 * rng.standard_normal(n)
    fit = _PreparedFit(_oracle_datasets()["bottom"], default_model)
    theta = _theta(default_model, TRUTH_SIGMA0, TRUTH_EFVF)
    x = J[:, 0] + shift * np.max(np.abs(J[:, 0]))
    ratios = _check_closed_forms(fit, theta, J, r, x, J[:, 1])
    assert max(ratios.values()) <= 1.0, ratios


def test_full_rank_fit_calls_no_numpy_linalg(default_model, monkeypatch):
    # the pre-fit line, every step and the error bars take closed forms on floats:
    # a fit on full-rank data calls none of np.linalg's solvers
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("lstsq", "solve", "inv", "cond"):
        monkeypatch.setattr(np.linalg, name, refused)
    truth = build_model(sigma0=200e6, t_F=250e-9)
    for data in (*_oracle_datasets().values(),
                 _trial_data(truth, Electrode.TOP, 0.9999, 1e-16, 2)):
        fit = fit_film_parameters(data, default_model)
        assert fit.converged and fit.iterations >= 2
        assert all(map(math.isfinite, (fit.sigma0_se, fit.EFVF_se, fit.corr, fit.cond)))


@settings(max_examples=100, deadline=None)
@given(column=st.lists(st.floats(1e-30, 1.0) | st.floats(-1.0, -1e-30), min_size=3,
                       max_size=40),
       defect=st.sampled_from(["zero first", "zero second", "both zero", "inf", "-inf",
                               "nan", "duplicated"]))
@example(column=[1e-8, 2e-8, 3e-8], defect="duplicated")
def test_error_bars_are_nan_on_a_zero_non_finite_or_duplicated_column(default_model, column,
                                                                      defect):
    # J^T J of such a J has no inverse, or none that rounding can trust: all four
    # error-bar fields are NaN, and no ZeroDivisionError or ValueError is raised
    fit = _PreparedFit(_oracle_datasets()["bottom"], default_model)
    theta = _theta(default_model, TRUTH_SIGMA0, TRUTH_EFVF)
    x = np.array(column)
    J = np.column_stack([x, x[::-1] + 1.0])
    if defect == "zero first":
        J[:, 0] = 0.0
    elif defect == "zero second":
        J[:, 1] = 0.0
    elif defect == "both zero":
        J[:] = 0.0
    elif defect == "duplicated":
        J[:, 1] = x
    else:
        J[len(x) // 2, 1] = float(defect)
    assert all(map(math.isnan, _error_bars(fit, theta, J, 1e-30)))


def _rounded(data):
    """data with V and C rounded to 12 digits, as scripts/diff_cli_outputs.py writes them."""
    V, C = ([float(f"{x:.12e}") for x in col.tolist()] for col in (data.V, data.C))
    return CVDataset(V, C, data.electrode)


@pytest.mark.parametrize("rejects", [False, True], ids=["all-accepted", "rejecting"])
def test_fit_error_bars_read_the_accepted_jacobian(default_model, monkeypatch, rejects):
    # the error bars are _error_bars on the Jacobian that residuals forms at the last
    # accepted theta, bit for bit: on a fit that accepts every trial it evaluates, and
    # on diff_cli_outputs.py's extract-rejecting data, whose line search turns down
    # trials with a defined residual after that theta
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    data = (_rounded(_trial_data(truth, Electrode.BOTTOM, 0.95, 3e-15, 11)) if rejects
            else _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, 1))
    trials, residuals = [], _PreparedFit.residuals

    def recorded(self, theta):
        got = residuals(self, theta)
        if got is not None:
            trials.append((np.array(theta, dtype=float), _dot(got[0], got[0])))
        return got

    monkeypatch.setattr(_PreparedFit, "residuals", recorded)
    fit = fit_film_parameters(data, default_model)
    assert fit.converged
    # the objective only falls, so the accepted theta is the first with the lowest one
    theta, ssq = min(trials, key=lambda trial: trial[1])
    assert math.sqrt(ssq / data.C.size) == fit.rms_residual
    assert (trials[-1][0] is not theta) == rejects
    prepared = _PreparedFit(data, default_model)
    expected = _error_bars(prepared, theta, residuals(prepared, theta)[1], ssq)
    got = (fit.sigma0_se, fit.EFVF_se, fit.corr, fit.cond)
    assert np.array(got).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def test_fit_steps_by_least_squares_when_normal_equations_are_singular(default_model,
                                                                        monkeypatch):
    # where the scaled normal equations' determinant is not positive (here J^T J is
    # read as zero), the Gauss-Newton step is the least-squares one on J, which on a
    # full-rank J is the same step up to rounding: the fit converges on the optimum
    # the closed-form steps reach, with one np.linalg.lstsq call per iteration
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, 3)
    solved = fit_film_parameters(data, default_model)
    calls, lstsq = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(extraction, "_normal", lambda J: (0.0, 0.0, 0.0))
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    fit = fit_film_parameters(data, default_model)
    assert fit.converged and len(calls) == fit.iterations
    assert fit.sigma0_hat == pytest.approx(solved.sigma0_hat, rel=1e-8)
    assert fit.EFVF_hat == pytest.approx(solved.EFVF_hat, rel=1e-8)


def test_fit_takes_no_step_on_a_non_finite_jacobian(default_model, monkeypatch):
    # a Jacobian with an infinite entry (a row whose force slope rounds to 0) gives a
    # NaN step, as np.linalg.solve did, and not np.linalg.lstsq's LinAlgError: no
    # trial is defined, and the fit stops unconverged after one iteration
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, 3)
    residuals = _PreparedFit.residuals

    def infinite(self, theta):
        got = residuals(self, theta)
        if got is not None:
            got[1][0, 1] = math.inf
        return got

    monkeypatch.setattr(_PreparedFit, "residuals", infinite)
    fit = fit_film_parameters(data, default_model)
    assert not fit.converged and fit.iterations == 1
    assert all(map(math.isnan, (fit.sigma0_se, fit.EFVF_se, fit.corr, fit.cond)))


def _recorded_trials(monkeypatch, defined=None):
    """Record the objective r.r of each residuals call, by the fit's own sum _dot
    (None where undefined).
    With `defined` set, only the first that many calls are evaluated."""
    trials, residuals = [], _PreparedFit.residuals

    def recorded(self, theta):
        got = residuals(self, theta) if defined is None or len(trials) < defined else None
        trials.append(None if got is None else _dot(got[0], got[0]))
        return got

    monkeypatch.setattr(_PreparedFit, "residuals", recorded)
    return trials


def _stopped_on_exhausted_line_search(trials, fit, n):
    """Whether the fit's last iteration tried MAX_HALVINGS + 1 steps and none lowered
    the objective of the iterate it ended on."""
    current, tail = trials[-(MAX_HALVINGS + 2)], trials[-(MAX_HALVINGS + 1):]
    return (math.sqrt(current / n) == fit.rms_residual
            and all(t is None or t >= current for t in tail))


@pytest.mark.parametrize("electrodes", [["bottom"] * 4, ["top", "bottom", "bottom", "top"]],
                         ids=["bottom", "top-bottom"])
def test_fit_refuses_data_with_no_invertible_reading(default_model, electrodes):
    # every reading at twice the largest capacitance its electrode attains: the
    # pre-fit has no deflection to start from, so the fit refuses the data and
    # names each electrode's attainable range, in order of first appearance
    ranges = {e: capacitance_range(default_model, e) for e in ("top", "bottom")}
    C = [2.0 * ranges[e][1] for e in electrodes]
    data = CVDataset([0.0, 10.0, 20.0, 30.0], C, electrodes)
    with pytest.raises(DegenerateData) as exc:
        fit_film_parameters(data, default_model)
    named = "; ".join(f"{e} {ranges[e]!r}" for e in dict.fromkeys(electrodes))
    assert str(exc.value).endswith(f"attainable capacitance range (c_min, c_max), F: {named}")


def test_fit_stuck_line_search_is_not_converged(default_model, monkeypatch):
    # the pre-fit of sigma_C = 1e-15 F data is about 3.4e-4 off the optimum in the
    # scaled step, above REL_STEP_TOL*2**MAX_HALVINGS; with every trial undefined, no
    # halving lowers the objective and the finest step tried is still above
    # tolerance, so the fit stops there, unconverged, after its first iteration
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-15, 11)
    trials = _recorded_trials(monkeypatch, defined=1)
    fit = fit_film_parameters(data, default_model)
    assert not fit.converged and fit.iterations == 1
    assert len(trials) == MAX_HALVINGS + 2
    assert _stopped_on_exhausted_line_search(trials, fit, 21)


def test_fit_exhausted_line_search_below_tolerance_is_converged(default_model, monkeypatch):
    # the pre-fit of sigma_C = 1e-17 F data is about 5e-6 off the optimum in the scaled
    # step; with every trial undefined, the line search halves that step down to the
    # last one above REL_STEP_TOL, 2**-15 of it, and stops without trying the next:
    # the first iteration counts as converged at the pre-fit, as a search exhausted
    # below the tolerance did, after 16 trial steps, not 21
    truth = build_model(sigma0=TRUTH_SIGMA0, t_F=TRUTH_T_F)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-17, 3, 11)
    thetas, residuals = [], _PreparedFit.residuals

    def recorded(self, theta):
        thetas.append(np.array(theta, dtype=float))
        return residuals(self, theta) if len(thetas) == 1 else None

    monkeypatch.setattr(_PreparedFit, "residuals", recorded)
    fit = fit_film_parameters(data, default_model)
    assert fit.converged and fit.iterations == 1
    assert len(thetas) == 17
    start = thetas[0]
    r = residuals(_PreparedFit(data, default_model), start)[0]
    assert fit.rms_residual == math.sqrt(_dot(r, r) / 11)  # theta kept at the pre-fit
    scale = np.array([default_model.y_p_max - default_model.y_p_min, start[1]])
    finest = float(np.max(np.abs((thetas[-1] - start) / scale)))
    assert 0.5 * finest < REL_STEP_TOL <= finest * (1.0 + 1e-6)
