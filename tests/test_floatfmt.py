"""The CSV writer's float kernel against the "%.17e" oracle, byte for byte."""
import os
import runpy

import numpy as np
import pytest

from paddle_lab.cli import CSV_BLOCK_VALUES, _write_csv
from paddle_lab.floatfmt import FIELD_WIDTH, FLOAT_FORMAT, format_e17

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_check_float_format_script(capsys):
    # 1e6 random bit patterns plus ties, powers of ten and their neighbours, carries,
    # zeros, subnormals, nan, infinities and three-digit exponents
    script = runpy.run_path(os.path.join(ROOT, "scripts", "check_float_format.py"))
    rc = script["main"](["--values", "1000000", "--seed", "2026"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0, lines
    assert len(lines) == 7 and all(line.endswith(" 0 differ") for line in lines)
    assert int(lines[0].split()[1]) == 1_000_000


def test_format_e17_rows():
    values = np.array([0.0, -0.0, 1.0, -1.5e-99, -1e-100, 1e100, np.nan, 2.0**-18 + 1.0])
    out = format_e17(values)
    assert out.dtype == np.uint8 and out.shape == (values.size, FIELD_WIDTH + 1)
    assert [bytes(row[row != 0]).decode() for row in out] == [FLOAT_FORMAT % v for v in values]
    assert format_e17(np.array([])).shape == (0, FIELD_WIDTH)


def test_text_column_across_blocks(tmp_path):
    # a text column between float columns, over several row blocks, next to a
    # column whose %-formatted three-digit exponents make its fields wider
    n = CSV_BLOCK_VALUES + 7
    rng = np.random.default_rng(5)
    plan = [("triangular", "rectangular", "x", "")[i % 4] for i in range(n)]
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    narrow = rng.standard_normal(n).tolist()
    _write_csv(tmp_path / "t.csv", ["a", "plan", "b"], wide, plan, narrow)
    want = "a,plan,b\n" + "".join(f"{FLOAT_FORMAT % a},{p},{FLOAT_FORMAT % b}\n"
                                  for a, p, b in zip(wide.tolist(), plan, narrow))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_text_with_nul_rejected(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        _write_csv(tmp_path / "x.csv", ["plan", "x"], ["a", "b\0"], [1.0, 2.0])
    assert not (tmp_path / "x.csv").exists()
