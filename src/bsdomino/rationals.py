"""Exact rational pairs and 2x2 matrices.

Every value in the package is exact: a :class:`fractions.Fraction` or
an integer, and no floating point appears anywhere.  Points, map specs
and printed values are Fractions; the work per point runs in integers
over a common denominator (tiles, each affine piece's apply, orbits).
``Vec2`` and ``Mat2`` are thin immutable wrappers that keep the
formula-heavy modules readable; ``Mat2.apply`` is the matrix product in
Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

IntVec2 = tuple[int, int]


def as_rat(value) -> Fraction:
    """Coerce ints, Fractions and strings like ``-3/4`` to a Fraction;
    bools are not numbers here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}: {exc}") from None
    raise ParseError(f"cannot interpret {value!r} as a rational")


def fmt_rat(x: Fraction) -> str:
    """Render a rational as ``p/q`` in lowest terms, denominator always shown."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, order=True)
class Vec2:
    """A pair of exact rationals."""

    x1: Fraction
    x2: Fraction

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def scale(self, c) -> "Vec2":
        c = Fraction(c)
        return Vec2(c * self.x1, c * self.x2)

    def floor(self) -> IntVec2:
        return (math.floor(self.x1), math.floor(self.x2))

    def max_abs(self) -> Fraction:
        return max(abs(self.x1), abs(self.x2))

    def __str__(self) -> str:
        return f"({fmt_rat(self.x1)}, {fmt_rat(self.x2)})"


def vec2(a, b) -> Vec2:
    return Vec2(as_rat(a), as_rat(b))


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix of exact rationals, stored row-major."""

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(
            self.a11 * v.x1 + self.a12 * v.x2,
            self.a21 * v.x1 + self.a22 * v.x2,
        )

    def row(self, i: int) -> tuple[Fraction, Fraction]:
        return (self.a11, self.a12) if i == 0 else (self.a21, self.a22)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a11, self.a12, self.a21, self.a22)


def mat2(rows) -> Mat2:
    (a, b), (c, d) = rows
    return Mat2(as_rat(a), as_rat(b), as_rat(c), as_rat(d))


IDENTITY2 = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
