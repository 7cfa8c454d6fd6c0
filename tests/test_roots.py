import math

import pytest
from hypothesis import given, strategies as st

from paddle_lab.roots import bisect_root


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


def test_machine_precision_default():
    r = bisect_root(lambda x: math.cos(x), 0.0, 3.0, 1.0, math.cos(3.0))
    # bisection runs until the midpoint stops moving
    assert abs(r - math.pi / 2.0) <= 2.0 * math.ulp(math.pi / 2.0)


@given(st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_linear_root_recovered(c, span):
    r = bisect_root(lambda x: x - c, c - span, c + span, (c - span) - c, (c + span) - c)
    assert r == pytest.approx(c, abs=span * 1e-12 + 1e-15)
