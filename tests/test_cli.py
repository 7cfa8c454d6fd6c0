import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paddle_lab import (Electrode, __version__, build_model, capacitance_value,
                        model_from_dict, model_to_dict, simulate_cv)
from paddle_lab import cli, instrument
from paddle_lab.cli import _write_csv, main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_cv_csv(path, sigma0=200e6, v_max=160.0, n=9):
    truth = model_from_dict({**model_to_dict(build_model()), "sigma0": sigma0})
    ds = simulate_cv(truth, Electrode.BOTTOM, np.linspace(0.0, v_max, n))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["V_volt", "C_F"])
        w.writerows([f"{v:.17e}", f"{c:.17e}"] for v, c in zip(ds.V.tolist(), ds.C.tolist()))
    return ds.V.size


def test_design_report(tmp_path):
    out = str(tmp_path)
    assert run(["design", "--out", out]) == 0
    report = read_json(tmp_path / "design_report.json")
    assert float(report["y_p_max_m"]) == pytest.approx(8e-4 / 13.0, rel=1e-10)
    assert float(report["y_p_min_m"]) == pytest.approx(-8e-4 / 13.0, rel=1e-10)
    assert float(report["uniformity_triangular"]) == 1.0
    assert float(report["uniformity_rectangular"]) == pytest.approx(10.0, rel=1e-10)
    header, rows = read_csv(tmp_path / "design_profile.csv")
    assert header == ["plan", "x_m", "sigma_Pa"]
    assert {r[0] for r in rows} == {"triangular", "rectangular"}
    manifest = read_json(tmp_path / "design_manifest.json")
    assert manifest["command"] == "design"
    assert set(manifest) == {"command", "config_path", "output_paths", "seed",
                             "timestamp", "tool_version"}


def test_curves_capacitance(tmp_path):
    out = str(tmp_path)
    assert run(["curves", "--which", "capacitance", "--out", out]) == 0
    header, rows = read_csv(tmp_path / "curves_capacitance.csv")
    assert header == ["y_p_m", "C_top_F", "C_bottom_F"]
    assert len(rows) == 201
    mid = min(rows, key=lambda r: abs(float(r[0])))
    assert float(mid[1]) == pytest.approx(2.2125e-12, rel=1e-4)
    assert float(mid[2]) == pytest.approx(2.2125e-12, rel=1e-4)


def test_curves_force_signs(tmp_path):
    out = str(tmp_path)
    assert run(["curves", "--which", "force", "--out", out]) == 0
    header, rows = read_csv(tmp_path / "curves_force.csv")
    assert header == ["y_p_m", "f_top_N_per_V2", "f_bottom_N_per_V2"]
    assert all(float(r[1]) > 0.0 for r in rows)
    assert all(float(r[2]) < 0.0 for r in rows)


def test_curves_film_beam_crossings(tmp_path):
    out = str(tmp_path)
    assert run(["curves", "--which", "film-beam", "--out", out]) == 0
    header, rows = read_csv(tmp_path / "curves_film_beam.csv")
    assert header == ["sigma0_Pa", "y_p_m", "F_N"]
    crossings = {}
    for sigma in ("1.00000000000000000e+08", "2.00000000000000000e+08",
                  "3.00000000000000000e+08"):
        pts = [(float(r[1]), float(r[2])) for r in rows if r[0] == sigma]
        assert pts, f"missing curve for sigma0 = {sigma}"
        for (y0, f0), (y1, f1) in zip(pts, pts[1:]):
            if f0 > 0.0 >= f1:
                crossings[sigma] = y0 + (y1 - y0) * f0 / (f0 - f1)
                break
    vals = list(crossings.values())
    assert len(vals) == 3
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-3)
    assert vals[2] / vals[0] == pytest.approx(3.0, rel=1e-3)


def test_curves_film_beam_empty_sigma0_list(tmp_path, capsys):
    rc = run(["curves", "--which", "film-beam", "--sigma0-list", ",", "--out", str(tmp_path)])
    assert rc == 2
    assert "--sigma0-list" in capsys.readouterr().err
    assert not (tmp_path / "curves_film_beam.csv").exists()


def test_curves_grid_validation(tmp_path):
    rc = run(["curves", "--y-min", "-1e-3", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_curves_needs_two_points(tmp_path, capsys, points):
    rc = run(["curves", "--points", points, "--out", str(tmp_path)])
    assert rc == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "curves_capacitance.csv").exists()


@pytest.mark.parametrize("argv", [
    "equilibrium --electrode top --v={}", "equilibrium --sigma0={}",
    "pullin --electrode top --sigma0={}", "sweep --electrode top --v-max={}",
    "sweep --electrode top --v-max 50 --sigma0={}", "measure --yp={}", "measure --dt={}",
    "measure --sigma-c={}", "calibrate --sigma-c={}", "curves --y-min={}", "curves --y-max={}"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_number_flags_exit_2(tmp_path, capsys, argv, value):
    argv = argv.format(value).split()
    flag = argv[-1].partition("=")[0]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    "sweep --electrode top --v-list=10,{}", "curves --which film-beam --sigma0-list={},1e8",
    "calibrate --spacers=1e-5,2e-5,{}"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_list_entries_exit_2(tmp_path, capsys, argv, value):
    argv = argv.format(value).split()
    flag = argv[-1].partition("=")[0]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert f"{flag}: expected finite numbers" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".csv"]


def test_equilibrium_closed_form_value(tmp_path):
    out = str(tmp_path)
    assert run(["equilibrium", "--sigma0", "100e6", "--v", "0", "--out", out]) == 0
    result = read_json(tmp_path / "equilibrium.json")
    assert float(result["y_p_m"]) == pytest.approx(1.029159519726e-5, rel=1e-9)
    assert result["stable"] is True
    for key in ("F_film_N", "F_beam_N", "F_elec_top_N", "F_elec_bottom_N", "F_total_N"):
        assert key in result


def test_equilibrium_above_pull_in(tmp_path, capsys):
    rc = run(["equilibrium", "--v", "500", "--electrode", "bottom",
              "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "pull-in" in err
    assert "173.2" in err


def test_equilibrium_pinned_by_film_stress(tmp_path, capsys):
    # at 8e8 Pa the rest deflection lies past the top touch limit
    rc = run(["equilibrium", "--sigma0", "8e8", "--v", "10", "--electrode", "bottom",
              "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "pins the paddle against the top electrode" in err
    assert "rest y_p = 8.233276e-05 m" in err
    assert "touch limit 6.153846e-05 m" in err
    assert "V_top" not in err
    assert not (tmp_path / "equilibrium.json").exists()


def test_pullin_pinned_by_film_stress(tmp_path, capsys):
    rc = run(["pullin", "--sigma0=-8e8", "--electrode", "bottom", "--out", str(tmp_path)])
    assert rc == 3
    assert "pins the paddle against the bottom electrode" in capsys.readouterr().err


def test_equilibrium_needs_electrode(tmp_path):
    assert run(["equilibrium", "--v", "10", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv,code", [
    ("pullin --sigma0=-8e8 --electrode bottom", 3),
    # pinned at 0 V: not a sweep truncated at pull-in with an empty sweep.csv
    ("sweep --electrode bottom --v-max 300 --points 7 --sigma0 8e8", 3),
    ("equilibrium --v 10", 2),
    ("extract --electrode bottom --data {missing}", 2),
], ids=lambda v: str(v).split()[0])
def test_failed_command_leaves_no_out_dir(tmp_path, argv, code):
    # main creates the output directory only after the command has computed its files
    out = tmp_path / "out"
    argv = argv.format(missing=tmp_path / "nope.csv").split() + ["--out", str(out)]
    assert run(argv) == code
    assert not out.exists()


@pytest.mark.parametrize("argv", ["measure --seed -1", "measure --seed=-7 --sigma-c 0",
                                  "calibrate --seed -1", "calibrate --seed -1 --sigma-c 1e-15"],
                         ids=["measure", "measure-noise-free", "calibrate-noise-free",
                              "calibrate"])
def test_negative_seed_exit_2(tmp_path, capsys, argv):
    # NoiseModel refuses the seed before any noise is drawn, even when none is
    out = tmp_path / "out"
    assert run(argv.split() + ["--out", str(out)]) == 2
    assert "error: seed: must be an integer >= 0, got -" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ("sweep --electrode top --v-max 1e308 --points 3",
     "--v-max: drive voltages must be finite and >= 0"),
    ("equilibrium --electrode bottom --v 1.4e154", "--v: drive voltages must be finite and >= 0"),
    ("measure --yp 0 --dt 1e308 --n 3", "dt: the last sample time n*dt must be finite"),
    ("measure --yp 0 --n 1" + "0" * 400, "n: must be at most 1.7976931348623157e+308"),
    ("sweep --electrode top --v-list=1e200,5", "--v-list: drive voltages must be finite and >= 0"),
    ("sweep --electrode top --v-max=-5", "--v-max: drive voltages must be finite and >= 0, "
     "with a finite square (force is even in V), got -5.0"),
    ("sweep --electrode top --v-list=-1,5", "--v-list: drive voltages must be finite and >= 0, "
     "with a finite square (force is even in V), got -1.0"),
    ("equilibrium --electrode top --v=-5", "--v: drive voltages must be finite and >= 0"),
    ("calibrate --spacers 1e300,2e300,3e300",
     "spacers [1e+300, 2e+300, 3e+300]: the line of C versus 1/spacer leaves the float64 range"),
    ("calibrate --spacers 1e-320,1e-6,2e-6",
     "spacers [1e-320, 1e-06, 2e-06]: the line of C versus 1/spacer leaves the float64 range"),
    ("calibrate --spacers 1e-200,2e-200,3e-200",
     "spacers [1e-200, 2e-200, 3e-200]: the line of C versus 1/spacer leaves the float64 range"),
], ids=["sweep", "equilibrium", "measure", "measure-count", "sweep-list", "sweep-negative",
        "sweep-list-negative", "equilibrium-negative", "calibrate-spread-underflow",
        "calibrate-inverse-overflow", "calibrate-sums-overflow"])
def test_overflowing_input_exit_2(tmp_path, capsys, argv, message):
    # finite flags whose V^2, n*dt, n itself or a calibration sum overflows (or underflows) a
    # float, and negative voltages, are input errors that name the flag or the spacers, not
    # inf or NaN in the files or a traceback
    out = tmp_path / "out"
    assert run(argv.split() + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    # `python3 -m paddle_lab` runs main and hands its exit code to the shell
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def module(*argv):
        # pyproject's filterwarnings stops at the process boundary
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "paddle_lab",
                               *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)

    proc = module("--version")
    assert (proc.returncode, proc.stdout) == (0, f"paddle-lab {__version__}\n")
    proc = module("pullin", "--electrode", "bottom", "--out", "good")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pull-in at 173.2")
    assert float(read_json(tmp_path / "good" / "pullin.json")["V_pull_in_V"]) == \
        pytest.approx(173.2354, abs=0.01)
    proc = module("pullin", "--sigma0=-8e8", "--electrode", "bottom", "--out", "pinned")
    assert proc.returncode == 3
    assert "pins the paddle against the bottom electrode" in proc.stderr
    assert not (tmp_path / "pinned").exists()


def test_pullin(tmp_path):
    out = str(tmp_path)
    assert run(["pullin", "--out", out]) == 2  # no electrode
    assert run(["pullin", "--electrode", "bottom", "--out", out]) == 0
    result = read_json(tmp_path / "pullin.json")
    assert float(result["V_pull_in_V"]) == pytest.approx(173.2354, abs=0.01)
    assert result["electrode"] == "bottom"


def test_sweep(tmp_path):
    out = str(tmp_path)
    rc = run(["sweep", "--electrode", "bottom", "--sigma0", "100e6",
              "--v-list", "0,50,100,150,300", "--out", out])
    assert rc == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["V_volt", "y_p_m", "C_top_F", "F_film_N", "F_beam_N",
                      "F_elec_top_N", "F_elec_bottom_N", "F_total_N"]
    assert len(rows) == 4  # 300 V is past pull-in (204.5 V)
    summary = read_json(tmp_path / "sweep_summary.json")
    assert summary["rows"] == 4 and summary["requested"] == 5
    assert float(summary["truncated_at_V"]) == 300.0
    ys = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(ys, ys[1:]))


def test_sweep_past_pull_in_writes_header_only(tmp_path):
    # every requested voltage lies past pull-in (173.2 V): zero rows is a result, not an error
    rc = run(["sweep", "--electrode", "top", "--v-list", "500,600", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sweep.csv").read_text() == ",".join(cli.SWEEP_HEADER) + "\n"
    summary = read_json(tmp_path / "sweep_summary.json")
    assert summary["rows"] == 0 and summary["requested"] == 2
    assert float(summary["truncated_at_V"]) == 500.0


def test_sweep_needs_grid(tmp_path):
    rc = run(["sweep", "--electrode", "bottom", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("points", ["0", "1"])
def test_sweep_needs_two_points(tmp_path, capsys, points):
    rc = run(["sweep", "--electrode", "top", "--v-max", "50", "--points", points,
              "--out", str(tmp_path)])
    assert rc == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_calibrate_noise_free_defaults(tmp_path):
    out = str(tmp_path)
    assert run(["calibrate", "--out", out]) == 0
    fit = read_json(tmp_path / "calibration_fit.json")
    assert float(fit["slope_F_m"]) == pytest.approx(2.2125e-16, rel=1e-10)
    assert abs(float(fit["intercept_F"])) < 1e-18
    assert float(fit["r2"]) == 1.0
    header, rows = read_csv(tmp_path / "calibration.csv")
    assert header == ["spacer_m", "inv_spacer_per_m", "C_F"]
    assert len(rows) == 5
    assert float(rows[0][0]) == 25e-6 and float(rows[-1][0]) == 125e-6


def test_calibrate_builds_one_table(tmp_path, monkeypatch):
    # the fit in calibration_fit.json is the line through the rows of calibration.csv
    calls = []

    def counted(table):
        return lambda *args: calls.append(args) or table(*args)

    monkeypatch.setattr(cli, "calibration_table", counted(cli.calibration_table))
    monkeypatch.setattr(instrument, "calibration_table", counted(instrument.calibration_table))
    assert run(["calibrate", "--sigma-c", "1e-15", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_measure_deterministic(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert run(["measure", "--n", "50", "--seed", "7", "--out", out]) == 0
    bytes_a = (tmp_path / "a" / "measurement.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "measurement.csv").read_bytes()
    assert bytes_a == bytes_b
    header, rows = read_csv(tmp_path / "a" / "measurement.csv")
    assert header == ["t_s", "C_meas_F"]
    assert len(rows) == 50
    assert run(["measure", "--n", "50", "--seed", "8", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "measurement.csv").read_bytes() != bytes_a


@pytest.mark.parametrize("electrode,yp,sigma_c,dt,seed", [
    ("top", "3e-5", "1e-16", "1e-2", "5"), ("bottom", "-4e-5", "3e-16", "2.5e-3", "17"),
    ("top", "0", "0", "1e-3", "0")])
def test_measurement_csv_is_measure_capacitance(tmp_path, electrode, yp, sigma_c, dt, seed):
    # measurement.csv holds the t and C_meas columns of measure_capacitance, as "%.17e"
    assert run(["measure", "--electrode", electrode, f"--yp={yp}", "--sigma-c", sigma_c,
                "--dt", dt, "--seed", seed, "--n", "300", "--out", str(tmp_path)]) == 0
    model = build_model()
    stream = instrument.measure_capacitance(
        capacitance_value(float(yp), model, Electrode(electrode)),
        instrument.NoiseModel(sigma_C=float(sigma_c), dt=float(dt), seed=int(seed)), 300)
    expected = "t_s,C_meas_F\n" + "".join(
        f"{t:.17e},{C:.17e}\n" for t, C in zip(stream.t.tolist(), stream.C_meas.tolist()))
    assert (tmp_path / "measurement.csv").read_text() == expected


def test_manifests_reproducible_modulo_timestamp(tmp_path):
    for out in ("a", "b"):
        assert run(["measure", "--n", "10", "--seed", "3",
                    "--out", str(tmp_path / out)]) == 0
    m_a = read_json(tmp_path / "a" / "measure_manifest.json")
    m_b = read_json(tmp_path / "b" / "measure_manifest.json")
    m_a.pop("timestamp"), m_b.pop("timestamp")
    assert m_a == m_b
    assert m_a["seed"] == 3
    assert m_a["output_paths"] == ["measurement.csv"]


def test_out_env_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("PADDLE_LAB_OUT", str(env_dir))
    assert run(["design", "--out", str(tmp_path / "ignored")]) == 0
    assert (env_dir / "design_report.json").exists()
    assert not (tmp_path / "ignored" / "design_report.json").exists()


def test_config_file_used(tmp_path):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"sigma0": 200e6}))
    out = str(tmp_path)
    assert run(["equilibrium", "--v", "0", "--config", str(config), "--out", out]) == 0
    result = read_json(tmp_path / "equilibrium.json")
    assert float(result["y_p_m"]) == pytest.approx(2.058319039451e-5, rel=1e-9)


def test_malformed_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{broken")
    rc = run(["design", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design", "equilibrium"])
@pytest.mark.parametrize("text", ['{"sigma0": NaN}', '{"l_b": Infinity}', '{"t_F": -Infinity}'])
def test_non_finite_config_exit_2(tmp_path, capsys, command, text):
    # Python's json reads NaN and Infinity; the model rejects them by key
    config = tmp_path / "model.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out)]) == 2
    key = next(iter(json.loads(text)))
    assert f"error: {key}: must be finite" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("text,key", [('{"sigma_0": 1e8}', "sigma_0"), ("[1, 2]", "config")])
def test_unknown_key_or_non_object_config_exit_2(tmp_path, capsys, text, key):
    # build_model refuses a key it does not know, naming it; a JSON value that is
    # not an object is refused as the config
    config = tmp_path / "model.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(["design", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "pullin --electrode top"])
@pytest.mark.parametrize("text,key", [('{"t_b": 1e-300}', "t_b"),
                                      ('{"E_biaxial": 1e-300, "K": 1e-20}', "E_biaxial")])
def test_beam_stiffness_underflow_config_exit_2(tmp_path, capsys, command, text, key):
    # every field is in range, but the beam's section or rigidity underflows to 0: a
    # ZeroDivisionError traceback before the model refused it
    config = tmp_path / "model.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(command.split() + ["--config", str(config), "--out", str(out)]) == 2
    assert f"error: {key}: the beam " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "pullin --electrode top", "pullin --electrode bottom"])
@pytest.mark.parametrize("text,key", [
    ('{"l_b": 1e300}', "l_b"), ('{"d_c": 1e300}', "d_c"), ('{"t_F": 1e300}', "t_F"),
    ('{"l_p": 1e-300}', "t_b"), ('{"E_F": 1e300, "t_F": 1e300}', "t_F"),
    ('{"l_b": 1e-200, "l_p": 1e120, "w_p": 1e-3, "b_root": 1e-3}', "l_p")])
def test_pull_in_overflow_config_exit_2(tmp_path, capsys, command, text, key):
    # every field is in range, but a derived constant leaves the normal floats: 1/compliance
    # was 0 (a ZeroDivisionError traceback in StableBranch), the pull-in arithmetic
    # overflowed ("pull-in at inf V" or "at nan V", exit 0) or the rest deflection was NaN
    config = tmp_path / "model.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(command.split() + ["--config", str(config), "--out", str(out)]) == 2
    assert f"error: {key}: the " in capsys.readouterr().err
    assert not out.exists()


def test_missing_config(tmp_path):
    rc = run(["design", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_extract_round_trip(tmp_path):
    data = tmp_path / "cv.csv"
    write_cv_csv(data, sigma0=200e6)
    out = str(tmp_path)
    rc = run(["extract", "--data", str(data), "--electrode", "bottom", "--out", out])
    assert rc == 0
    result = read_json(tmp_path / "extract_result.json")
    assert float(result["sigma0_hat_Pa"]) == pytest.approx(200e6, rel=1e-6)
    assert result["converged"] is True
    # noise-free data: tiny standard errors, sigma0 and E_F*V_F correlated to -1, and a
    # well-conditioned fit in (y0, k); floats are full-precision strings
    assert 0.0 < float(result["sigma0_se_Pa"]) < 1.0
    assert 0.0 < float(result["EFVF_se_Pa_m3"]) < 1e-9
    assert -1.0 <= float(result["corr_sigma0_EFVF"]) < -0.999
    assert 1.0 <= float(result["cond_JTJ_scaled"]) < 20.0


def test_extract_needs_electrode(tmp_path):
    data = tmp_path / "cv.csv"
    write_cv_csv(data)
    assert run(["extract", "--data", str(data), "--out", str(tmp_path)]) == 2


def test_extract_bad_header(tmp_path):
    data = tmp_path / "cv.csv"
    data.write_text("volts,farads\n0,2e-12\n1,2e-12\n2,2e-12\n")
    rc = run(["extract", "--data", str(data), "--electrode", "bottom",
              "--out", str(tmp_path)])
    assert rc == 2


def test_extract_missing_file(tmp_path):
    rc = run(["extract", "--data", str(tmp_path / "nope.csv"), "--electrode",
              "bottom", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_naming_a_file_exit_2(tmp_path, capsys, sub):
    # --out a regular file (FileExistsError) or a path under one (NotADirectoryError)
    target = tmp_path / "taken"
    target.write_text("keep\n")
    assert run(["pullin", "--electrode", "top", "--out", str(target / sub)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert target.read_text() == "keep\n"


def test_extract_data_naming_a_directory_exit_2(tmp_path, capsys):
    rc = run(["extract", "--data", str(tmp_path), "--electrode", "bottom",
              "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_extract_nonconvergence_exit_code(tmp_path, capsys):
    # capacitance drifting down under bottom drive implies a prestress that
    # pushes the paddle past the touch window: the first residual evaluation
    # fails and the fit reports non-convergence
    data = tmp_path / "cv.csv"
    data.write_text("V_volt,C_F\n0.0,2.2125e-12\n400.0,2.1e-12\n800.0,2.0e-12\n")
    out = str(tmp_path)
    rc = run(["extract", "--data", str(data), "--electrode", "bottom", "--out", out])
    assert rc == 4
    result = read_json(tmp_path / "extract_result.json")
    assert result["converged"] is False
    assert [result[key] for key in ("sigma0_se_Pa", "EFVF_se_Pa_m3", "corr_sigma0_EFVF",
                                    "cond_JTJ_scaled")] == ["nan"] * 4
    assert "converge" in capsys.readouterr().err


def test_extract_row_with_overflowing_square_exit_2(tmp_path, capsys):
    # a finite voltage whose square overflows is refused as a row of the file,
    # not later by the fit's drive without the file and row
    data = tmp_path / "cv.csv"
    out = tmp_path / "out"
    data.write_text("V_volt,C_F\n0.0,2.2125e-12\n400.0,2.1e-12\n1e200,2.3e-12\n")
    assert run(["extract", "--data", str(data), "--electrode", "bottom", "--out", str(out)]) == 2
    assert (f"error: V: {data}: row 2: voltage must have a finite square, got 1e+200"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ("curves --which force --y-min=-1e-3",
     "error: grid [-0.001, 5.5384615384615394e-05] must lie strictly inside the touch window"),
    ("calibrate --spacers 1e-6,abc", "error: --spacers: expected comma-separated numbers, "
                                     "got '1e-6,abc'"),
    ("equilibrium --electrode top --v abc", "error: argument --v: expected a number, got 'abc'"),
    ("extract --electrode bottom --data {data} --config {config}",
     "error: model_template: template film must have E_F*V_F > 0"),
], ids=["curves-grid", "calibrate-spacers", "equilibrium-v", "extract-no-film"])
def test_refused_input_exit_2(tmp_path, capsys, argv, message):
    # each refusal names what it refuses, exits 2 and creates no output directory
    data, config, out = tmp_path / "cv.csv", tmp_path / "no-film.json", tmp_path / "out"
    write_cv_csv(data)
    config.write_text('{"t_F": 0}\n')
    argv = argv.format(data=data, config=config).split() + ["--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["V", "C"])
def test_extract_non_finite_row_exit_2(tmp_path, capsys, column, value):
    # the bad row's error names the file and the row number a short line there gets,
    # with and without a blank line after the header
    data = tmp_path / "cv.csv"
    out = tmp_path / "out"
    argv = ["extract", "--data", str(data), "--electrode", "bottom", "--out", str(out)]
    bad = f"{value},2.0e-12" if column == "V" else f"800.0,{value}"
    for blank, row in (("", 2), ("\n", 3)):
        for line, error in (("800.0", f"data: {data}: row {row}: expected 2 fields"),
                            (bad, f"{column}: {data}: row {row}: ")):
            data.write_text(f"V_volt,C_F\n{blank}0.0,2.2125e-12\n400.0,2.1e-12\n{line}\n")
            assert run(argv) == 2
            assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


# floats the old writer had to get right: signed zeros, infinities, nan, subnormals, extremes
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def csv_columns(draw):
    """(header, columns): 1-4 float columns, as float64 arrays or lists, maybe a text column."""
    n = draw(st.integers(0, 12))
    number = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.lists(number, min_size=n, max_size=n))
        columns.append(np.array(values, dtype=np.float64) if draw(st.booleans()) else values)
    if draw(st.booleans()):
        text = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                     exclude_characters=',"'), min_size=1, max_size=12)
        columns.insert(draw(st.integers(0, len(columns))),
                       draw(st.lists(text, min_size=n, max_size=n)))
    return [f"c{k}" for k in range(len(columns))], columns


@given(csv_columns())
def test_write_csv_matches_csv_module(tmp_path_factory, table):
    # the reference is the row writer the column writer replaced: csv.writer over
    # "%.17e"-formatted floats, text fields as they are
    header, columns = table
    path = tmp_path_factory.mktemp("csv")
    _write_csv(path / "got.csv", header, *columns)
    with open(path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{float(v):.17e}" if isinstance(v, float) else v for v in row])
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    ([1.0, 2.0], np.array([1.0])),
    (np.array([]), [0.5]),
    (["a", "b"], [1.0, 2.0], np.zeros(3)),
])
def test_write_csv_rejects_unequal_columns(tmp_path, columns):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "x.csv", ["a"] * len(columns), *columns)
    assert not (tmp_path / "x.csv").exists()


def test_parser_reuse(tmp_path, monkeypatch):
    # one process, one parser: each call sees only its own flags and defaults
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert run(["design", "--out", a]) == 0
    assert run(["curves", "--which", "force", "--points", "11", "--out", b]) == 0
    assert run(["curves", "--out", c]) == 0
    assert run(["extract", "--electrode", "top", "--out", c]) == 2  # --data is required
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "curves_force.csv", "curves_manifest.json"]
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
        "curves_capacitance.csv", "curves_manifest.json"]
    assert len(read_csv(tmp_path / "c" / "curves_capacitance.csv")[1]) == cli.CURVE_GRID_POINTS
    assert read_json(tmp_path / "c" / "curves_manifest.json")["seed"] == 0
    # a command rebound after the parser was built is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_design",
                        lambda args, model: seen.append(args.out) or ({}, "stub", 0))
    assert run(["design", "--out", a]) == 0
    assert seen == [a]


def output_files(out):
    """{name: bytes} of the files in out; manifest lines naming the timestamp dropped."""
    files = {}
    for p in out.iterdir():
        lines = p.read_bytes().splitlines(keepends=True)
        if p.name.endswith("_manifest.json"):
            lines = [line for line in lines if not line.lstrip().startswith(b'"timestamp"')]
        files[p.name] = b"".join(lines)
    return files


@pytest.mark.parametrize("first,second", [
    ("design", "design"),
    ("curves --which force", "curves --which force --points 11"),
    ("equilibrium --v 90 --electrode bottom --sigma0 100e6", "equilibrium"),
    ("pullin --electrode bottom", "pullin --electrode top"),
    ("sweep --electrode bottom --v-max 150 --points 51", "sweep --electrode bottom --v-list 0,50"),
    ("calibrate", "calibrate --spacers 5e-5,1e-4,1.5e-4"),
    ("measure --n 50 --seed 7", "measure --n 10 --seed 7"),
    ("extract --electrode bottom --data {fits}", "extract --electrode bottom --data {stalled}"),
], ids=lambda argv: argv.split()[0])
def test_rerun_into_populated_out_matches_fresh_run(tmp_path, first, second):
    # outputs are rewritten in place: a rerun, shorter files included, leaves the
    # bytes a run into an empty directory writes, and nothing of the old files
    stalled, fits = tmp_path / "stalled.csv", tmp_path / "fits.csv"
    stalled.write_text("V_volt,C_F\n0.0,2.2125e-12\n400.0,2.1e-12\n800.0,2.0e-12\n")
    write_cv_csv(fits, sigma0=200e6)
    first, second = (argv.format(stalled=stalled, fits=fits).split() for argv in (first, second))
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert run(first + ["--out", str(rerun)]) in (0, 4)
    old_sizes = {p.name: p.stat().st_size for p in rerun.iterdir()}
    rc = run(second + ["--out", str(rerun)])
    assert rc in (0, 4)
    assert run(second + ["--out", str(fresh)]) == rc
    assert output_files(rerun) == output_files(fresh)
    # the manifest names every other file in the directory
    manifest = f"{second[0]}_manifest.json"
    for out in (rerun, fresh):
        assert sorted(read_json(out / manifest)["output_paths"]) == sorted(
            p.name for p in out.iterdir() if p.name != manifest)
    if first != second:
        assert any(p.stat().st_size < old_sizes[p.name] for p in rerun.iterdir()
                   if not p.name.endswith("_manifest.json"))


def test_outputs_written_through_links(tmp_path):
    # a symlinked output is written through the link, a hard-linked one stays shared
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    target = tmp_path / "target.json"
    target.write_text("x" * 4096)
    (out / "pullin.json").symlink_to(target)
    manifest = out / "pullin_manifest.json"
    manifest.write_text("y" * 4096)
    os.link(manifest, tmp_path / "manifest_link.json")
    for d in (out, fresh):
        assert run(["pullin", "--electrode", "top", "--out", str(d)]) == 0
    assert (out / "pullin.json").is_symlink()
    assert target.read_bytes() == (fresh / "pullin.json").read_bytes()
    assert os.path.samefile(manifest, tmp_path / "manifest_link.json")
    assert read_json(manifest)["output_paths"] == ["pullin.json"]


def test_output_symlinked_to_devnull(tmp_path):
    # ftruncate fails on a character device, so only regular files are cut to length
    (tmp_path / "measurement.csv").symlink_to(os.devnull)
    assert run(["measure", "--n", "10", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "measurement.csv").is_symlink()
    assert read_json(tmp_path / "measure_manifest.json")["output_paths"] == ["measurement.csv"]


def test_write_csv_failure_leaves_no_stale_tail(tmp_path, monkeypatch):
    # a write that fails after its first block leaves the header and that block
    # and nothing of the longer file it was writing over, as open(path, "wb") did
    column = np.linspace(0.0, 1.0, 3 * cli.CSV_BLOCK_VALUES)
    _write_csv(tmp_path / "fresh.csv", ["x"], column)
    lines = (tmp_path / "fresh.csv").read_bytes().splitlines(keepends=True)
    path = tmp_path / "x.csv"
    path.write_bytes(b"stale\n" * 10 * column.size)
    format_e17, calls = cli.format_e17, []

    def fail_on_second_block(block):
        calls.append(block)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return format_e17(block)

    monkeypatch.setattr(cli, "format_e17", fail_on_second_block)
    with pytest.raises(RuntimeError, match="second block"):
        _write_csv(path, ["x"], column)
    assert path.read_bytes() == b"".join(lines[:1 + cli.CSV_BLOCK_VALUES])
