"""The CSV writer's float kernel against the "%.17e" oracle, byte for byte."""
import os
import runpy

import numpy as np
import pytest

from paddle_lab import floatfmt
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


def test_exact_ties_are_rounded_half_to_even_in_the_kernel(monkeypatch):
    # exact ties at 18 digits (a 19th digit 5): where 10^(17-e) is an exact double
    # (1e-5 <= |x| < 1e18) the kernel rounds them half to even itself, below that they
    # still go to %; with % set to another format only the rows that take it change
    kernel = [1.0 + 2.0**-18, 1.0 + 3.0 * 2.0**-18, -1234567890123.03125, 5.0 * 2.0**-25 * 1e2]
    percent = [5.0 * 2.0**-25]  # 1.490116119384765625e-07
    values = np.array(kernel + percent)
    monkeypatch.setattr(floatfmt, "FLOAT_FORMAT", "%.3e")
    rows = [bytes(row[row != 0]).decode() for row in format_e17(values)]
    assert rows == [FLOAT_FORMAT % v for v in kernel] + ["%.3e" % v for v in percent]
    assert rows[:2] == ["1.00000381469726562e+00", "1.00001144409179688e+00"]


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


def _percent_csv(header, columns) -> bytes:
    """The CSV that _write_csv must write, each float field formatted by % alone."""
    fields = [c if isinstance(c[0], str) else [FLOAT_FORMAT % x for x in np.asarray(c).tolist()]
              for c in columns]
    return (",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*fields))).encode()


def test_sign_uniform_columns_across_blocks(tmp_path):
    # four float columns, with and without a text column, over three full blocks and
    # a partial one. A block of positive fast-path fields alone puts each separator
    # in a NUL sign slot; otherwise a column of positive fast-path fields goes out
    # without its NUL sign slot, one of full-width fields as is, and a block with
    # mixed signs, %-formatted fields (padded at the end), a three-digit exponent
    # (wider fields) or text of unequal width anywhere has its NULs removed
    rows = CSV_BLOCK_VALUES // 4
    n = 3 * rows + 5
    block = np.arange(n) // rows
    rng = np.random.default_rng(11)
    # all on the fast path: above 1e9 a random double can be an exact tie at 18 digits
    positive = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-99, 9, n)
    # m/2^18 with m odd has 19 significant digits, the last a 5: all of them go to %
    ties = (2 * rng.integers(2**17, 5 * 2**18, n) + 1) / 2.0**18
    zeros = np.where(block == 0, 0.0, np.where(block == 1, -0.0, rng.choice([0.0, -0.0], n)))
    # equal-width text in the first block only
    plan = ["rectangular" if b == 0 or i % 3 else "triangular" for i, b in enumerate(block)]
    # "wide": negative three-digit exponents fill 25 bytes, so the positive fields
    # there are padded at both ends
    files = {"positive": [positive, positive[::-1], zeros, np.sqrt(positive)],
             "signs": [positive, -positive[::-1], rng.standard_normal(n), zeros],
             "ties": [ties, -ties[::-1], positive, -positive],
             "wide": [positive, -positive * 1e-150, -positive[::-1] * 1e-150, -ties * 1e-120]}
    for name, special in [("tie", ties[0]), ("nan", np.nan), ("inf", np.inf),
                          ("exponent", 1.5e-150)]:
        # one % field in the second block of a positive and of a negative column
        up, down = positive.copy(), -positive[::-1]
        up[rows + 7], down[rows + 200] = special, -special
        files[name] = [up, down, positive, zeros]
    for name, (a, b, c, d) in files.items():
        for header, columns in [(["a", "plan", "b", "c", "d"], [a, plan, b, c, d]),
                                (["a", "b", "c", "d"], [a, b, c, d])]:
            path = tmp_path / f"{name}.csv"
            _write_csv(path, header, *columns)
            assert path.read_bytes() == _percent_csv(header, columns), (name, header)


def test_text_with_nul_rejected(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        _write_csv(tmp_path / "x.csv", ["plan", "x"], ["a", "b\0"], [1.0, 2.0])
    assert not (tmp_path / "x.csv").exists()
