import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from paddle_lab.roots import bisect_root, bisect_roots


def test_simple_root():
    r = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, -2.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_swapped_bounds():
    r = bisect_root(lambda x: x - 1.0, 3.0, 0.0, 2.0, -1.0)
    assert r == pytest.approx(1.0, abs=1e-15)


def test_endpoint_root_returned_directly():
    assert bisect_root(lambda x: x, 0.0, 1.0, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0


def test_no_sign_change_raises():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)


def test_ftol_early_stop():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5

    bisect_root(f, 0.0, 1.0, -0.5, 0.5, ftol=0.4)
    assert len(calls) <= 4


def test_machine_precision_default():
    r = bisect_root(lambda x: math.cos(x), 0.0, 3.0, 1.0, math.cos(3.0))
    # with ftol = 0, bisection runs until the midpoint stops moving
    assert abs(r - math.pi / 2.0) <= 2.0 * math.ulp(math.pi / 2.0)


@given(st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_linear_root_recovered(c, span):
    r = bisect_root(lambda x: x - c, c - span, c + span, (c - span) - c, (c + span) - c)
    assert r == pytest.approx(c, abs=span * 1e-12 + 1e-15)


@given(st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=1, max_size=8),
       st.sampled_from([0.0, 1e-9, 0.1]), st.sampled_from([1.0, -1.0]), st.booleans())
@example(cubes=[-8.0, 8.0, 0.125], tol=0.0, sign=1.0, swap=False)  # roots on both ends
@example(cubes=[-8.0, 8.0, 0.125], tol=1e-9, sign=-1.0, swap=True)
def test_bisect_roots_matches_bisect_root(cubes, tol, sign, swap):
    # element k solves sign*(x^3 - cubes[k]) = 0 on [-2, 2], root cbrt(cubes[k]);
    # the arithmetic is the same on floats and arrays, so the results are equal
    c = np.array(cubes)
    ftol = tol * (1.0 + np.abs(c))
    lo, hi = (2.0, -2.0) if swap else (-2.0, 2.0)
    f_lo, f_hi = (sign * (x * x * x - c) for x in (lo, hi))
    roots = bisect_roots(lambda x: sign * (x * x * x - c), lo, hi, f_lo, f_hi, ftol=ftol)
    expected = [bisect_root(lambda x: sign * (x * x * x - ck), lo, hi, float(f_lo[k]),
                            float(f_hi[k]), ftol=float(tk))
                for k, (ck, tk) in enumerate(zip(cubes, ftol))]
    assert roots.tolist() == expected


def test_bisect_roots_no_sign_change_raises():
    c = np.array([-0.5, 1.0])  # x^2 + 1 has no root on [-1, 1]
    with pytest.raises(ValueError):
        bisect_roots(lambda x: x * x + c, -1.0, 1.0, 1.0 + c, 1.0 + c)
