import numpy as np
import pytest

from paddle_lab import (CVDataset, CVRow, DegenerateData, Electrode, External,
                        InsufficientData, InvalidParameter, MeasurementSample,
                        NoiseModel, OutOfRange, Simulated, build_model,
                        capacitance_value, deflection_series,
                        fit_film_parameters, load_cv_csv, measure_capacitance,
                        simulate_cv)


def test_simulate_cv_basic(with_sigma0):
    m = with_sigma0(100e6)
    ds = simulate_cv(m, Electrode.BOTTOM, [50.0, 0.0, 100.0])
    assert [r.V for r in ds.rows] == [0.0, 50.0, 100.0]
    assert all(r.electrode is Electrode.BOTTOM for r in ds.rows)
    assert ds.provenance == Simulated(seed=None)
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
    assert a.provenance == Simulated(seed=5)
    deltas = [abs(x.C - y.C) for x, y in zip(a.rows, clean.rows)]
    assert all(0.0 < d < 1e-15 for d in deltas)


def test_dataset_validation():
    rows = (CVRow(0.0, 2e-12, Electrode.BOTTOM), CVRow(10.0, 2e-12, Electrode.BOTTOM))
    with pytest.raises(InsufficientData):
        CVDataset(rows=rows, provenance=Simulated())
    with pytest.raises(InvalidParameter):
        CVDataset(rows=rows + (CVRow(-1.0, 2e-12, Electrode.BOTTOM),),
                  provenance=Simulated())
    with pytest.raises(InvalidParameter):
        CVDataset(rows=rows + (CVRow(5.0, 0.0, Electrode.BOTTOM),),
                  provenance=Simulated())


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


def test_deflection_series_out_of_range_row(default_model):
    samples = [MeasurementSample(t=0.01, C_meas=2e-12),
               MeasurementSample(t=0.02, C_meas=2.5e-12),
               MeasurementSample(t=0.03, C_meas=10e-12)]
    with pytest.raises(OutOfRange) as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 2
    # the first bad sample is named, ahead of a later one
    samples[1] = MeasurementSample(t=0.02, C_meas=float("nan"))
    with pytest.raises(OutOfRange, match=r"^sample 1 \(t=0\.02\): C=nan") as exc:
        deflection_series(samples, default_model, Electrode.TOP)
    assert exc.value.row == 1
    assert deflection_series([], default_model, Electrode.TOP) == []


def test_load_cv_csv(tmp_path):
    path = tmp_path / "cv.csv"
    path.write_text("V_volt,C_F\n0.0,2.2e-12\n10.0,2.3e-12\n20.0,2.4e-12\n")
    ds = load_cv_csv(path, Electrode.TOP)
    assert len(ds.rows) == 3
    assert ds.rows[1].V == 10.0 and ds.rows[1].C == 2.3e-12
    assert ds.rows[0].electrode is Electrode.TOP
    assert ds.provenance == External(path=str(path))


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
        fit_film_parameters(CVDataset(rows=rows, provenance=Simulated()), default_model)
