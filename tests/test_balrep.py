from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdomino.balrep import average_error, b_k, window, window_sum
from bsdomino.errors import BadRange
from bsdomino.rationals import Vec2, vec2
from support import random_rational, reference_b_k


def test_b_k_examples():
    x = vec2("1/2", "1/3")
    assert b_k(x, 0, 1) == (0, 0)
    assert b_k(x, 0, 2) == (1, 0)
    assert b_k(vec2(0, 0), Fraction(5, 7), 13) == (0, 0)


def test_window_examples():
    assert window(vec2("1/2", "1/3"), 0, 1, 2).values == ((0, 0), (1, 0))
    assert window(vec2(1, 1), 0, 1, 3).values == ((1, 1), (1, 1), (1, 1))
    w = window(vec2("1/2", "1/2"), Fraction(1, 4), -2, 2)
    assert all(v[0] in (0, 1) and v[1] in (0, 1) for v in w.values)


def test_window_bad_range():
    with pytest.raises(BadRange):
        window(vec2(0, 0), 0, 3, 2)


def test_range_invariant():
    rng = Random(21)
    for _ in range(2000):
        x = Vec2(random_rational(rng), random_rational(rng))
        z = random_rational(rng)
        k = rng.randint(-50, 50)
        v = b_k(x, z, k)
        f1 = x.x1.numerator // x.x1.denominator
        f2 = x.x2.numerator // x.x2.denominator
        assert v[0] in (f1, f1 + 1)
        assert v[1] in (f2, f2 + 1)


def test_telescoping_exact():
    rng = Random(22)
    for _ in range(500):
        x = Vec2(random_rational(rng), random_rational(rng))
        z = random_rational(rng)
        p = rng.randint(-20, 20)
        q = p + rng.randint(0, 30)
        total = window_sum(window(x, z, p, q))
        hi = x.scale(z + q).floor()
        lo = x.scale(z + p - 1).floor()
        assert total == (hi[0] - lo[0], hi[1] - lo[1])


def test_average_error_examples():
    assert average_error(vec2(0, 0), Fraction(3, 5), 5) == 0
    assert average_error(vec2("1/2", "1/3"), 0, 10) < Fraction(1, 21)
    assert average_error(vec2(1, 1), Fraction(1, 7), 3) == 0


def test_average_error_bound():
    rng = Random(23)
    for _ in range(500):
        x = Vec2(random_rational(rng), random_rational(rng))
        z = random_rational(rng)
        k = rng.choice([0, 1, 2, 5, 17])
        assert average_error(x, z, k) < Fraction(1, 2 * k + 1)


def _rational(draw) -> Fraction:
    return Fraction(draw(st.integers(-200, 200)), draw(st.integers(1, 64)))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_b_k_and_window_match_fraction_oracle(data):
    x = Vec2(_rational(data.draw), _rational(data.draw))
    z = _rational(data.draw)
    k_lo = data.draw(st.integers(-60, 60))
    k_hi = k_lo + data.draw(st.integers(0, 12))
    want = tuple(reference_b_k(x, z, k) for k in range(k_lo, k_hi + 1))
    assert b_k(x, z, k_lo) == want[0]
    assert window(x, z, k_lo, k_hi).values == want
