"""Check the CSV writer's float fields against "%.17e" % v, byte for byte.

Usage: PYTHONPATH=src python3 scripts/check_float_format.py --values N --seed S

Writes one-column CSV files through paddle_lab.cli._write_csv (the array
kernel floatfmt.format_e17 and its `%` fallback) and compares them with the
same values formatted one by one with `%`. The values are N random float64
bit patterns (15 in 16 with an exponent of two decimal digits or just past
it, the rest over every exponent, subnormals, infinities and nan
included) and fixed classes: rounding ties, powers of ten and their
neighbours, values next to a digit-count carry, zeros, subnormals,
non-finite values and three-digit exponents. Each class is also written
with one sign, as |x| and as -|x| sorted by magnitude, so that most of its
blocks hold fields of one width: the writer's paths for columns of positive
or of full-width fields, which a block of random signs never takes. The
random class splits its N values among the three variants, the fixed
classes are written whole in each. Prints one line per class, counting
every field written, and exits 1 on any difference, listing the first few.
"""
import argparse
import math
import os
import sys
import tempfile

import numpy as np

from paddle_lab.cli import _write_csv
from paddle_lab.floatfmt import FLOAT_FORMAT

CHUNK = 1 << 20  # values per file
SHOWN = 5        # differences listed per class


def _neighbours(x: np.ndarray) -> np.ndarray:
    """x and the doubles 1 and 2 ulps either side of it."""
    down = np.nextafter(x, -np.inf)
    up = np.nextafter(x, np.inf)
    return np.concatenate([x, down, up, np.nextafter(down, -np.inf), np.nextafter(up, np.inf)])


def value_classes(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    mantissa_sign = rng.integers(0, 1 << 64, n, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    # biased binary exponents: 1e-105..1e105 for 15/16 of the values, anything for the rest
    exponent = np.where(rng.random(n) < 15 / 16, rng.integers(1023 - 349, 1023 + 349, n),
                        rng.integers(0, 2048, n)).astype(np.uint64)
    random = (mantissa_sign | exponent << np.uint64(52)).view(np.float64)
    # exact ties at 18 digits: x = m/2^q with m odd in [10^k, 10^(k+1)) * 2^q and
    # q = 18 - k has exactly 19 significant digits, the last a 5 (1 + j/2^18 for k = 0)
    ties = []
    per_decade = max(1, min(n // 64, 1 << 16) // 23)
    for k in range(-8, 15):
        q = 18 - k
        lo, hi = math.ceil(10.0**k * 2**q) // 2, math.ceil(10.0**(k + 1) * 2**q) // 2
        m = 2 * rng.integers(lo, hi, per_decade) + 1
        ties.append(np.ldexp(m.astype(np.float64), -q) * rng.choice([-1.0, 1.0], per_decade))
    ties = np.concatenate(ties)
    powers = _neighbours(10.0 ** np.arange(-120, 121).astype(np.float64))
    # the double just below 10^153 rounds up to 1.000...e+153; none with a
    # two-digit exponent comes as close to a power of ten
    carry = _neighbours(np.array([9.999999999999999e17, 9.999999999999999e99, 1e100, 1e-99,
                                  9.999999999999999e-100, 1e153, 1e-79, 1e-78]))
    tiny = math.ulp(0.0)
    subnormal = np.concatenate([[tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308],
                                rng.integers(1, 1 << 52, 1000).astype(np.uint64).view(np.float64)])
    special = np.concatenate([[0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
                              np.array([0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0ABC],
                                       dtype=np.uint64).view(np.float64)])
    three_digit = np.concatenate([
        np.sign(rng.standard_normal(1000)) * 10.0 ** rng.uniform(-308, -99.5, 1000),
        np.sign(rng.standard_normal(1000)) * 10.0 ** rng.uniform(100, 308, 1000),
        [1.7976931348623157e308, -1.7976931348623157e308]])
    return {"random": random, "ties": ties, "powers of ten": powers, "carry": carry,
            "subnormal": subnormal, "zero/nan/inf": special, "three-digit exp": three_digit}


def sign_variants(name: str, values: np.ndarray) -> list[np.ndarray]:
    """values as drawn, as |x| and as -|x|, the last two sorted by magnitude;
    the random class splits its values among the three."""
    if name == "random":
        third = values.size // 3
        signed, plus, minus = values[2 * third:], values[:third], values[third:2 * third]
    else:
        signed, plus, minus = values, values, values
    return [signed, np.sort(np.abs(plus)), -np.sort(np.abs(minus))]


def mismatches(values: np.ndarray, directory: str) -> list[tuple[float, str, str]]:
    """(value, written, expected) for every field of values that the writer gets wrong."""
    bad = []
    path = os.path.join(directory, "check.csv")
    for start in range(0, values.size, CHUNK):
        chunk = values[start:start + CHUNK]
        _write_csv(path, ["x"], chunk)
        with open(path, "rb") as fh:
            got = fh.read()
        expected = "".join(map((FLOAT_FORMAT + "\n").__mod__, chunk.tolist()))
        if got != ("x\n" + expected).encode():
            lines = got.decode().split("\n")[1:-1]
            bad += [(x, g, w) for x, g, w in zip(chunk.tolist(), lines, expected.split("\n"))
                    if g != w]
            if len(lines) != chunk.size:
                bad.append((math.nan, f"{len(lines)} lines", f"{chunk.size} lines"))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--values", type=int, default=10_000_000,
                        help="random bit patterns to check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as directory:
        for name, values in value_classes(args.values, args.seed).items():
            variants = sign_variants(name, values)
            bad = [b for v in variants for b in mismatches(v, directory)]
            print(f"{name:16s} {sum(v.size for v in variants):9d} values  {len(bad)} differ")
            for x, got, want in bad[:SHOWN]:
                print(f"    {x!r} ({np.array(x).view(np.uint64):#018x}): "
                      f"wrote {got!r}, % gives {want!r}")
            failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
