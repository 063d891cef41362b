"""Rational piecewise affine maps on unions of integer unit squares.

The domain U is a union of unit squares with integer corners, each
carrying an affine map x -> M x + b with exact rational entries.  Shared
edges get a deterministic owner: a square owns its closed lower/left
edges and its open upper/right edges, except that an upper/right edge on
the outer boundary of U (no square on the other side) stays closed.

Each piece holds one integer form, M and b as numerators over their lcm
d: apply computes in it and builds a state's two Fractions last, and
orbit keys the states it has seen by their integer parts, from which it
also finds each state's owner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .balrep import parts
from .errors import OutsideDomain, ParseError
from .group import BsParams
from .rationals import Mat2, Vec2, as_rat, fmt_rat, mat2, vec2


@dataclass(frozen=True)
class UnitSquare:
    """The square [c1, c1+1] x [c2, c2+1] with integer corner (c1, c2)."""

    c1: int
    c2: int

    def __str__(self) -> str:
        return f"({self.c1},{self.c2})"


@dataclass(frozen=True)
class AffinePiece:
    square: UnitSquare
    matrix: Mat2
    offset: Vec2

    @cached_property
    def integer_form(self) -> tuple[int, int, int, int, int, int, int]:
        """(k11, k12, k21, k22, o1, o2, d): M row-major and b as
        numerators over d, the lcm of their denominators."""
        entries = (*self.matrix.entries(), self.offset.x1, self.offset.x2)
        d = math.lcm(*(e.denominator for e in entries))
        return (*(e.numerator * (d // e.denominator) for e in entries), d)

    def apply(self, x: Vec2) -> Vec2:
        """M x + b, over the one denominator d q1 q2 for x = (p1/q1, p2/q2)."""
        k11, k12, k21, k22, o1, o2, d = self.integer_form
        p1, q1 = x.x1.numerator, x.x1.denominator
        p2, q2 = x.x2.numerator, x.x2.denominator
        r1, r2, q = p1 * q2, p2 * q1, q1 * q2
        return Vec2(
            Fraction(k11 * r1 + k12 * r2 + o1 * q, d * q),
            Fraction(k21 * r1 + k22 * r2 + o2 * q, d * q),
        )


@dataclass(frozen=True)
class PiecewiseAffineMap:
    pieces: tuple[AffinePiece, ...]
    _corners: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a piecewise affine map needs at least one piece")
        corners: dict[tuple[int, int], int] = {}
        clashes = []
        for idx, piece in enumerate(self.pieces):
            key = (piece.square.c1, piece.square.c2)
            if key in corners:
                clashes.append(key)
            else:
                corners[key] = idx
        if clashes:
            squares = ", ".join(f"({a},{b})" for a, b in sorted(clashes))
            raise ValueError(f"overlapping squares in partition: {squares}")
        object.__setattr__(self, "_corners", corners)


def locate_piece(f: PiecewiseAffineMap, x: Vec2) -> int | None:
    """Index of the square owning x, or None when x is outside U."""
    return _owner(f, parts(x))


def _owner(f: PiecewiseAffineMap, key: tuple[int, int, int, int]) -> int | None:
    """locate_piece for x given as parts(x), in lowest terms.

    The half-open owner (floor(x1), floor(x2)) wins when that square is
    in the partition; on an integer coordinate, denominator 1, the
    square below/left takes over only where the half-open owner is
    absent, which is exactly the closed-outer-boundary rule.
    """
    p1, q1, p2, q2 = key
    f1, f2 = p1 // q1, p2 // q2
    for c1 in (f1, f1 - 1) if q1 == 1 else (f1,):
        for c2 in (f2, f2 - 1) if q2 == 1 else (f2,):
            idx = f._corners.get((c1, c2))
            if idx is not None:
                return idx
    return None


def evaluate(f: PiecewiseAffineMap, x: Vec2) -> Vec2:
    idx = locate_piece(f, x)
    if idx is None:
        raise OutsideDomain(f"{x} is not in the domain")
    return f.pieces[idx].apply(x)


@dataclass(frozen=True)
class EscapedAfter:
    steps: int


@dataclass(frozen=True)
class AliveUpTo:
    steps: int


@dataclass(frozen=True)
class CycleDetected:
    """States j and k coincide: preperiod j, period k - j."""

    j: int
    k: int


OrbitOutcome = EscapedAfter | AliveUpTo | CycleDetected


@dataclass(frozen=True)
class OrbitReport:
    """An orbit's in-domain states, the first at its start, and its end."""

    states: tuple[tuple[int, Vec2], ...]  # (piece index, point), in-domain only
    outcome: OrbitOutcome


def orbit(f: PiecewiseAffineMap, x: Vec2, max_steps: int) -> OrbitReport:
    """Iterate f from x until escape, an exact state repeat, or max_steps."""
    key = parts(x)  # hashing a Fraction takes a modular inverse
    idx = _owner(f, key)
    if idx is None:
        raise OutsideDomain(f"start point {x} is not in the domain")
    states: list[tuple[int, Vec2]] = [(idx, x)]
    seen = {key: 0}
    current = x
    for step in range(1, max_steps + 1):
        current = f.pieces[idx].apply(current)
        key = parts(current)
        if key in seen:
            return OrbitReport(tuple(states), CycleDetected(seen[key], step))
        idx = _owner(f, key)
        if idx is None:
            return OrbitReport(tuple(states), EscapedAfter(step))
        states.append((idx, current))
        seen[key] = step
    return OrbitReport(tuple(states), AliveUpTo(max_steps))


# ---------------------------------------------------------------------------
# map-spec files (JSON)

def _json_int(value) -> int:
    """value itself when it is a JSON integer; bools, floats and strings
    are not coerced."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def map_from_dict(data: dict) -> tuple[BsParams, PiecewiseAffineMap]:
    try:
        params = BsParams(_json_int(data["m"]), _json_int(data["n"]))
        raw_pieces = data["pieces"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map spec: {exc}") from None
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise ParseError("map spec needs a nonempty 'pieces' list")
    pieces = []
    for entry in raw_pieces:
        try:
            c1, c2 = entry["square"]
            square = UnitSquare(_json_int(c1), _json_int(c2))
            matrix = mat2(entry["M"])
            offset = vec2(*entry["b"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad piece {entry!r}: {exc}") from None
        pieces.append(AffinePiece(square, matrix, offset))
    try:
        pam = PiecewiseAffineMap(tuple(pieces))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return params, pam


def map_to_dict(params: BsParams, f: PiecewiseAffineMap) -> dict:
    return {
        "m": params.m,
        "n": params.n,
        "pieces": [
            {
                "square": [p.square.c1, p.square.c2],
                "M": [
                    [fmt_rat(p.matrix.a11), fmt_rat(p.matrix.a12)],
                    [fmt_rat(p.matrix.a21), fmt_rat(p.matrix.a22)],
                ],
                "b": [fmt_rat(p.offset.x1), fmt_rat(p.offset.x2)],
            }
            for p in f.pieces
        ],
    }


def load_map(path: str) -> tuple[BsParams, PiecewiseAffineMap]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return map_from_dict(data)


def parse_point(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'x1,x2', got {text!r}")
    return Vec2(as_rat(parts[0]), as_rat(parts[1]))
