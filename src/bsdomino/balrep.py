"""Balanced representations of rational points.

For a point x and a phase z, the bi-infinite integer sequence

    B_k(x, z) = floor((z + k) x) - floor((z + k - 1) x)      (componentwise)

is a balanced representation of x: every term lies in
{floor(x1), floor(x1)+1} x {floor(x2), floor(x2)+1}, partial sums
telescope, and sliding averages converge to x at rate 1/(2K+1).

Every floor is one integer floor division: for z = a/c and a component
p/q of x, floor((z + k) p/q) = ((a + k c) p) // (c q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRange
from .rationals import IntVec2, Vec2, as_rat


def parts(x: Vec2) -> tuple[int, int, int, int]:
    """x as the integers (p1, q1, p2, q2) of x = (p1/q1, p2/q2)."""
    return x.x1.numerator, x.x1.denominator, x.x2.numerator, x.x2.denominator


def scaled_floors(
    x: tuple[int, int, int, int], a: int, c: int, k_lo: int, k_hi: int
) -> list[IntVec2]:
    """floor((a/c + k) x) componentwise for k = k_lo .. k_hi, with c > 0
    and x given as parts(x).

    a/c need not be in lowest terms, nor need x.
    """
    p1, q1, p2, q2 = x
    d1, d2 = c * q1, c * q2
    steps = range(a + k_lo * c, a + (k_hi + 1) * c, c)  # a + k c
    return [((s * p1) // d1, (s * p2) // d2) for s in steps]


def differences(floors: list[IntVec2], step: int = 1) -> tuple[IntVec2, ...]:
    """Differences of the floors step places apart; with step 1, the
    terms B_k from the floors at k - 1 and k."""
    # tuple() of a list, not of a generator: growing a tuple resizes it,
    # which fragments the heap when rows are long
    return tuple([
        (hi1 - lo1, hi2 - lo2)
        for (lo1, lo2), (hi1, hi2) in zip(floors, floors[step:])
    ])


def b_k(x: Vec2, z, k: int) -> IntVec2:
    """The k-th term of the balanced representation of x with phase z,
    the difference of two integer floor divisions."""
    z = as_rat(z)
    return differences(scaled_floors(parts(x), z.numerator, z.denominator, k - 1, k))[0]


@dataclass(frozen=True)
class BalancedWindow:
    """Consecutive terms B_{k_lo} .. B_{k_hi} of one balanced representation,
    in order; window(x, z, k_lo, k_hi) builds them."""

    values: tuple[IntVec2, ...]


def window(x: Vec2, z, k_lo: int, k_hi: int) -> BalancedWindow:
    if k_lo > k_hi:
        raise BadRange(f"k_lo={k_lo} exceeds k_hi={k_hi}")
    z = as_rat(z)
    floors = scaled_floors(parts(x), z.numerator, z.denominator, k_lo - 1, k_hi)
    return BalancedWindow(differences(floors))


def window_sum(w: BalancedWindow) -> IntVec2:
    s1 = sum(v[0] for v in w.values)
    s2 = sum(v[1] for v in w.values)
    return (s1, s2)


def average_error(x: Vec2, z, big_k: int) -> Fraction:
    """Max-norm distance between x and the average of B_{-K} .. B_K.

    Telescoping makes the sum floor((z+K)x) - floor((z-K-1)x), so the
    error is strictly below 1/(2K+1).
    """
    if big_k < 0:
        raise BadRange(f"K must be nonnegative, got {big_k}")
    z = as_rat(z)
    hi = x.scale(z + big_k).floor()
    lo = x.scale(z - big_k - 1).floor()
    count = 2 * big_k + 1
    avg = Vec2(Fraction(hi[0] - lo[0], count), Fraction(hi[1] - lo[1], count))
    return (avg - x).max_abs()
