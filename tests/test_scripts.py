"""The study scripts, the CLI diff script and the stable-branch check run end to end
and write what they document."""
import csv
import os
import runpy
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # pyproject's filterwarnings stops at the process boundary
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "scripts", name), *args],
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
    # the CLI's CSV format: every float field is "%.17e" % value; extraction_trials.csv's
    # text columns hold the str of an int or of a bool
    run_script(script, [*args, "--out", "out"], tmp_path)
    assert sorted(os.listdir(tmp_path / "out")) == sorted(expected)
    for name, (header, n_rows) in expected.items():
        got_header, rows = read_csv(tmp_path / "out" / name)
        assert got_header == header
        assert len(rows) == n_rows
        assert all(len(row) == len(header) for row in rows)
        for row in rows:
            for column, field in zip(header, row):
                if column in ("seed", "iterations"):
                    assert field == str(int(field)), (name, column, field)
                elif column == "converged":
                    assert field in (str(True), str(False)), (name, column, field)
                else:
                    assert field == "%.17e" % float(field), (name, column, field)


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """A directory holding one tree written by diff_cli_outputs.py --write, as `out`."""
    cwd = tmp_path_factory.mktemp("cli")
    run_script("diff_cli_outputs.py", ["--write", "out"], cwd)
    return cwd


HEADER = ["file", "column", "changed", "max", "ulp", "max", "|diff|", "rel", "|diff|"]


def test_diff_cli_outputs_self_compare(cli_tree):
    # a written tree compared with itself has no changed rows: only the header is printed;
    # the tree holds the CLI files and both study scripts' files
    for name in ("sweep-top-0/sweep.csv", "study-performance/transfer_curves.csv",
                 "study-extraction/extraction_trials.csv"):
        assert os.path.isfile(cli_tree / "out" / name)
    lines = run_script("diff_cli_outputs.py", ["--compare", "out", "out"], cli_tree).splitlines()
    assert [line.split() for line in lines] == [HEADER]


def test_diff_cli_outputs_reports_bytes_rows_and_files(cli_tree, tmp_path):
    # differences that equal fields hide: line endings, a dropped row, a file in one tree
    # only; and a renamed column
    shutil.copytree(cli_tree / "out", tmp_path / "mod")
    sweep = tmp_path / "mod" / "sweep-top-0" / "sweep.csv"
    sweep.write_bytes(sweep.read_bytes().replace(b"\n", b"\r\n"))
    measurement = tmp_path / "mod" / "measure-top-0" / "measurement.csv"
    measurement.write_bytes(b"".join(measurement.read_bytes().splitlines(keepends=True)[:-1]))
    (tmp_path / "mod" / "design" / "extra.csv").write_text("x\n1\n")
    calibration = tmp_path / "mod" / "calibrate" / "calibration.csv"
    calibration.write_bytes(calibration.read_bytes().replace(b",C_F\n", b",C_farad\n", 1))
    lines = run_script("diff_cli_outputs.py", ["--compare", str(cli_tree / "out"), "mod"],
                       tmp_path).splitlines()
    assert [line.split() for line in lines] == [
        HEADER,
        ["calibrate/calibration.csv", "(bytes)", "1/6", "-", "-", "-"],
        ["calibrate/calibration.csv", "(header)", "-", "-", "-"],
        ["design/extra.csv", "(only", "in", "B)", "-", "-", "-"],
        ["measure-top-0/measurement.csv", "(bytes)", "1/101", "-", "-", "-"],
        ["measure-top-0/measurement.csv", "(rows", "A/B)", "100/99", "-", "-", "-"],
        ["sweep-top-0/sweep.csv", "(bytes)", "45/45", "-", "-", "-"]]


def test_check_branch_near_pull_in_script(capsys):
    # 100 film stresses x 2 electrodes, each swept at 0.99 V_PI, V_PI*(1 - 1e-15),
    # nextafter(V_PI, 0) and V_PI: no pose moves away from y_PI
    script = runpy.run_path(os.path.join(ROOT, "scripts", "check_branch_near_pull_in.py"))
    rc = script["main"](["--stresses", "100", "--seed", "2026"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0, lines
    assert lines == ["200 branches, 0 move away from y_PI"]
