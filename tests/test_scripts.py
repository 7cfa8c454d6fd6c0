"""The two study scripts run end to end and write the CSV files they document."""
import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.mark.parametrize("script,args,expected", [
    ("run_performance_curves.py", ["--points", "21"], {
        # 21 grid points; 4 stresses x 40 voltages below pull-in; 3 noise levels
        "transfer_curves.csv": (["y_p_m", "C_top_F", "C_bottom_F", "f_top_N_per_V2",
                                 "f_bottom_N_per_V2"], 21),
        "deflection_vs_voltage.csv": (["sigma0_Pa", "V_volt", "y_p_m", "C_top_F"], 160),
        "resolution_vs_noise.csv": (["sigma_C_F", "resolvable_displacement_m"], 3),
    }),
    ("run_extraction_study.py", ["--seeds", "2"], {
        # one noise-free trial plus 2 seeds at each of the 3 noise levels
        "extraction_trials.csv": (["sigma_C_F", "seed", "sigma0_hat_Pa", "EFVF_hat_Pa_m3",
                                   "rel_error", "iterations", "converged"], 7),
    }),
])
def test_study_script_outputs(tmp_path, script, args, expected):
    run_script(script, [*args, "--out", "out"], tmp_path)
    assert sorted(os.listdir(tmp_path / "out")) == sorted(expected)
    for name, (header, n_rows) in expected.items():
        got_header, rows = read_csv(tmp_path / "out" / name)
        assert got_header == header
        assert len(rows) == n_rows
        assert all(len(row) == len(header) for row in rows)


def test_diff_cli_outputs_self_compare(tmp_path):
    # a written tree compared with itself has no changed rows: only the header is printed
    run_script("diff_cli_outputs.py", ["--write", "out"], tmp_path)
    assert os.path.isfile(tmp_path / "out" / "sweep-top-0" / "sweep.csv")
    lines = run_script("diff_cli_outputs.py", ["--compare", "out", "out"], tmp_path).splitlines()
    assert [line.split() for line in lines] == [
        ["file", "column", "changed", "max", "ulp", "max", "|diff|", "rel", "|diff|"]]
