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
from paddle_lab.cli import main
from paddle_lab.electrostatics import capacitance_range, capacitance_slope
from paddle_lab.extraction import (MAX_HALVINGS, MAX_ITERATIONS, REL_STEP_TOL, CVRow,
                                   _initial_guess, _PreparedFit)
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
        r, solved = got
        assert np.all(np.abs(r - expected) <= 1e-12 * data.C)
        assert len(solved) == (2 if which == "both" else 1)


@pytest.mark.parametrize("which", ["bottom", "top", "both"])
def test_fit_reads_branch_poses_as_the_checked_kernels_bitwise(default_model, which):
    # residuals and jacobian read the trial branch's poses without the touch check;
    # they give the bits of capacitance_value and capacitance_slope at those poses
    data = _oracle_datasets()[which]
    fit = _PreparedFit(data, default_model)
    for theta in (_theta(default_model, TRUTH_SIGMA0, TRUTH_EFVF),
                  _theta(default_model, 1.02 * TRUTH_SIGMA0, 0.98 * TRUTH_EFVF)):
        r, solved = fit.residuals(theta)
        expected_r, expected_J = np.empty_like(r), np.empty((r.size, 2))
        for (e, rows, C, drive), (branch, y) in zip(fit.groups, solved):
            expected_r[rows] = capacitance_value(y, default_model, e) - C
            dC_dF = capacitance_slope(y, default_model, e) / -branch._force_slope(drive, y)
            expected_J[rows, 0] = dC_dF * branch.k
            expected_J[rows, 1] = dC_dF * (branch.rest - y)
        assert np.array_equal(r.view(np.uint64), expected_r.view(np.uint64))
        assert np.array_equal(fit.jacobian(solved).view(np.uint64), expected_J.view(np.uint64))


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
    J = fit.jacobian(fit.residuals(theta)[1])
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
    # one StableBranch._roots per trial theta and electrode: the Jacobian of an
    # accepted iterate solves nothing
    calls = {"roots": 0, "trials": 0, "jacobians": 0}
    roots, residuals, jacobian = StableBranch._roots, _PreparedFit.residuals, _PreparedFit.jacobian

    def counted_roots(self, drive):
        calls["roots"] += 1
        return roots(self, drive)

    def counted_residuals(self, theta):
        calls["trials"] += 1
        return residuals(self, theta)

    def counted_jacobian(self, solved):
        before = calls["roots"]
        calls["jacobians"] += 1
        J = jacobian(self, solved)
        assert calls["roots"] == before
        return J

    truth = build_model(sigma0=200e6, t_F=250e-9)
    data = _trial_data(truth, Electrode.BOTTOM, 0.8, 1e-16, 1)
    monkeypatch.setattr(StableBranch, "_roots", counted_roots)
    monkeypatch.setattr(_PreparedFit, "residuals", counted_residuals)
    monkeypatch.setattr(_PreparedFit, "jacobian", counted_jacobian)
    fit = fit_film_parameters(data, default_model)
    assert fit.converged and fit.iterations >= 2
    assert calls["roots"] == calls["trials"] >= fit.iterations
    # one Jacobian per iteration, and one more for the error bars at the final theta
    assert calls["jacobians"] == fit.iterations + 1


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


def test_fit_error_bars_undefined_start(default_model):
    # a start at which no residual exists gives no fit and no error bars
    data = CVDataset([0.0, 400.0, 800.0], [2.2125e-12, 2.1e-12, 2.0e-12], ["bottom"] * 3)
    fit = fit_film_parameters(data, default_model)
    assert not fit.converged and fit.iterations == 0 and fit.rms_residual == math.inf
    assert all(math.isnan(v) for v in (fit.sigma0_se, fit.EFVF_se, fit.corr, fit.cond))


def _no_row_inverts(model):
    """Four bottom rows at twice the largest capacitance that inverts."""
    C = 2.0 * capacitance_range(model, Electrode.BOTTOM)[1]
    return CVDataset([0.0, 10.0, 20.0, 30.0], np.full(4, C), ["bottom"] * 4)


def _recorded_trials(monkeypatch, defined=None):
    """Record the objective r @ r of each residuals call (None where undefined).
    With `defined` set, only the first that many calls are evaluated."""
    trials, residuals = [], _PreparedFit.residuals

    def recorded(self, theta):
        got = residuals(self, theta) if defined is None or len(trials) < defined else None
        trials.append(None if got is None else float(got[0] @ got[0]))
        return got

    monkeypatch.setattr(_PreparedFit, "residuals", recorded)
    return trials


def _stopped_on_exhausted_line_search(trials, fit, n):
    """Whether the fit's last iteration tried MAX_HALVINGS + 1 steps and none lowered
    the objective of the iterate it ended on."""
    current, tail = trials[-(MAX_HALVINGS + 2)], trials[-(MAX_HALVINGS + 1):]
    return (math.sqrt(current / n) == fit.rms_residual
            and all(t is None or t >= current for t in tail))


def test_fit_starts_from_template_when_no_row_inverts(default_model):
    fit = _PreparedFit(_no_row_inverts(default_model), default_model)
    assert _initial_guess(fit).tolist() == [default_model.prestress / default_model.k,
                                            default_model.k]


def test_fit_stuck_line_search_is_not_converged(default_model, monkeypatch):
    # no row inverts, so the fit starts from the template's film; it reaches an iterate
    # where no halving of the step lowers the objective and the finest step tried is
    # still above tolerance, and stops there, unconverged, before MAX_ITERATIONS
    trials = _recorded_trials(monkeypatch)
    fit = fit_film_parameters(_no_row_inverts(default_model), default_model)
    assert not fit.converged and 0 < fit.iterations < MAX_ITERATIONS
    assert _stopped_on_exhausted_line_search(trials, fit, 4)


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
    assert fit.rms_residual == math.sqrt(float(r @ r) / 11)  # theta kept at the pre-fit
    scale = np.array([default_model.y_p_max - default_model.y_p_min, start[1]])
    finest = float(np.max(np.abs((thetas[-1] - start) / scale)))
    assert 0.5 * finest < REL_STEP_TOL <= finest * (1.0 + 1e-6)
