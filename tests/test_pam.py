import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdomino.errors import OutsideDomain, ParseError
from bsdomino.group import BsParams
from bsdomino.pam import (
    AffinePiece,
    AliveUpTo,
    CycleDetected,
    EscapedAfter,
    PiecewiseAffineMap,
    UnitSquare,
    evaluate,
    load_map,
    locate_piece,
    map_from_dict,
    map_to_dict,
    orbit,
    parse_point,
)
from bsdomino.rationals import IDENTITY2, Mat2, Vec2, mat2, vec2
from support import random_piece, random_point_in, reference_apply, reference_orbit

ROOT = Path(__file__).resolve().parents[1]
MAP_FILES = sorted(ROOT.glob("maps/*.map")) + sorted(ROOT.glob("perfbench/maps/*.map"))

IDENTITY_PIECE = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(0, 0))
UNIT_MAP = PiecewiseAffineMap((IDENTITY_PIECE,))


def two_square_map():
    return PiecewiseAffineMap(
        (
            IDENTITY_PIECE,
            AffinePiece(UnitSquare(1, 0), IDENTITY2, vec2(0, 0)),
        )
    )


def rotation_map():
    m = mat2([["0", "-1"], ["1", "0"]])
    zero = vec2(0, 0)
    return PiecewiseAffineMap(
        tuple(
            AffinePiece(UnitSquare(c1, c2), m, zero)
            for c1, c2 in [(0, 0), (-1, 0), (-1, -1), (0, -1)]
        )
    )


def test_locate_piece_basic():
    assert locate_piece(UNIT_MAP, vec2("1/2", "1/2")) == 0
    assert locate_piece(UNIT_MAP, vec2(2, 2)) is None


def test_locate_piece_shared_edge_goes_right():
    f = two_square_map()
    assert locate_piece(f, vec2(1, "1/2")) == 1


def test_locate_piece_outer_boundary_closed():
    # the outer right edge of U stays with its square
    assert locate_piece(UNIT_MAP, vec2(1, "1/2")) == 0
    assert locate_piece(UNIT_MAP, vec2(1, 1)) == 0
    f = two_square_map()
    assert locate_piece(f, vec2(2, "1/2")) == 1


def test_evaluate_examples():
    assert evaluate(UNIT_MAP, vec2("1/3", "2/3")) == vec2("1/3", "2/3")
    swap = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), mat2([[0, 1], [1, 0]]), vec2(0, 0)),)
    )
    assert evaluate(swap, vec2("1/4", "1/2")) == vec2("1/2", "1/4")
    shift = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(2, 2)),)
    )
    assert evaluate(shift, vec2(0, 0)) == vec2(2, 2)
    with pytest.raises(OutsideDomain):
        evaluate(UNIT_MAP, vec2(5, 5))


def test_orbit_fixed_point():
    report = orbit(UNIT_MAP, vec2("1/2", "1/2"), 10)
    assert report.outcome == CycleDetected(0, 1)
    assert len(report.states) == 1


def test_orbit_escape():
    shift = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(2, 2)),)
    )
    report = orbit(shift, vec2(0, 0), 10)
    assert report.outcome == EscapedAfter(1)


def test_orbit_rotation_cycle():
    report = orbit(rotation_map(), vec2("1/2", "1/2"), 8)
    assert report.outcome == CycleDetected(0, 4)
    points = [p for _, p in report.states]
    assert points == [
        vec2("1/2", "1/2"),
        vec2("-1/2", "1/2"),
        vec2("-1/2", "-1/2"),
        vec2("1/2", "-1/2"),
    ]


def test_orbit_alive():
    # x -> x/2 within the same square never repeats or escapes
    f = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), mat2([["1/2", 0], [0, "1/2"]]), vec2(0, 0)),)
    )
    report = orbit(f, vec2("1/3", "1/5"), 12)
    assert report.outcome == AliveUpTo(12)
    assert len(report.states) == 13


def test_orbit_outside_start():
    with pytest.raises(OutsideDomain):
        orbit(UNIT_MAP, vec2(7, 7), 3)


def test_orbit_states_stay_normalized_and_deterministic():
    rng = Random(31)
    f = rotation_map()
    for _ in range(50):
        den = rng.randint(1, 9)
        x = Vec2(Fraction(rng.randint(0, den - 1), den), Fraction(1, 2))
        r1 = orbit(f, x, 20)
        r2 = orbit(f, x, 20)
        assert r1 == r2
        for _, point in r1.states:
            for comp in (point.x1, point.x2):
                assert comp == Fraction(comp.numerator, comp.denominator)
        for (idx, point), (_, nxt) in zip(r1.states, r1.states[1:]):
            assert reference_apply(f.pieces[idx], point) == nxt


def _on_edge(rng: Random, piece: AffinePiece, x: Vec2, edge: int) -> Vec2:
    """x, or x moved onto a side or corner of its square: edge 0 keeps
    it, 1 to 4 put one coordinate on a side, 5 puts both on a corner."""
    c1, c2 = piece.square.c1, piece.square.c2
    if edge in (1, 2):
        return Vec2(Fraction(c1 + edge - 1), x.x2)
    if edge in (3, 4):
        return Vec2(x.x1, Fraction(c2 + edge - 3))
    if edge == 5:
        return Vec2(Fraction(c1 + rng.randint(0, 1)), Fraction(c2 + rng.randint(0, 1)))
    return x


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edge=st.integers(0, 5))
def test_apply_matches_fraction_oracle(seed, edge):
    # random pieces have entries over 1 to 4, so denominators 2 and 3
    rng = Random(seed)
    piece = random_piece(rng)
    x = _on_edge(rng, piece, random_point_in(rng, piece.square), edge)
    fx = piece.apply(x)
    assert fx == reference_apply(piece, x)
    assert all(type(c) is Fraction for c in (fx.x1, fx.x2))


def test_apply_on_halves_and_thirds():
    # entries over 2, 3 and 6, offsets over 2 and 3, on every corner and
    # side midpoint of the square
    piece = AffinePiece(
        UnitSquare(-1, 2),
        mat2([["1/2", "-2/3"], ["5/6", "3/2"]]),
        vec2("-1/2", "2/3"),
    )
    assert piece.integer_form == (3, -4, 5, 9, -3, 4, 6)
    for dx in ("0", "1/2", "1"):
        for dy in ("0", "1/3", "1/2", "1"):
            x = vec2(Fraction(dx) - 1, Fraction(dy) + 2)
            assert piece.apply(x) == reference_apply(piece, x)


def _random_map(rng: Random) -> PiecewiseAffineMap:
    pieces = {}
    for _ in range(rng.randint(1, 4)):
        piece = random_piece(rng, 1)
        pieces[piece.square] = piece
    return PiecewiseAffineMap(tuple(pieces.values()))


@settings(max_examples=300, deadline=None)
@given(
    source=st.one_of(st.sampled_from(MAP_FILES), st.none()),
    seed=st.integers(0, 2**32 - 1),
    edge=st.integers(0, 5),
    horizon=st.integers(0, 40),
)
def test_orbit_matches_fraction_oracle(source, seed, edge, horizon):
    # the committed maps (cycles, escapes and long lives) and random
    # ones (mostly early escapes), from points inside and on edges
    rng = Random(seed)
    f = _random_map(rng) if source is None else load_map(str(source))[1]
    piece = rng.choice(f.pieces)
    x = _on_edge(rng, piece, random_point_in(rng, piece.square), edge)
    assert orbit(f, x, horizon) == reference_orbit(f, x, horizon)


def test_orbit_preperiod():
    # the zero map sends (1/2, 1/2) to (0, 0), which it fixes
    zero = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), Mat2(*[Fraction(0)] * 4), vec2(0, 0)),)
    )
    x = vec2("1/2", "1/2")
    report = orbit(zero, x, 10)
    assert report.outcome == CycleDetected(1, 2)
    assert report.states == ((0, x), (0, vec2(0, 0)))
    assert report == reference_orbit(zero, x, 10)


def test_partition_rejects_duplicate_squares():
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        PiecewiseAffineMap((IDENTITY_PIECE, IDENTITY_PIECE))
    with pytest.raises(ValueError):
        PiecewiseAffineMap(())


def test_map_spec_round_trip():
    params_map = {
        "m": 2,
        "n": 3,
        "pieces": [
            {"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["0", "0"]},
            {"square": [1, 0], "M": [["1/2", "0"], ["0", "2"]], "b": ["-1/3", "4"]},
        ],
    }
    params, f = map_from_dict(params_map)
    assert params.m == 2 and params.n == 3
    assert f.pieces[1].matrix.a11 == Fraction(1, 2)
    again = map_to_dict(params, f)
    params2, f2 = map_from_dict(json.loads(json.dumps(again)))
    assert params2 == params and f2 == f


def test_map_spec_rejects_bad_input():
    with pytest.raises(ParseError):
        map_from_dict({"m": 2, "n": 3, "pieces": []})
    # only JSON integers for m, n and the square: int() would read 2.7
    # as 2, true as 1 and 0.9 as 0
    piece = {"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["0", "0"]}
    for m, n, square in [
        (2.7, 3, [0, 0]),
        (True, 3, [0, 0]),
        (2, "3", [0, 0]),
        (2, 3.0, [0, 0]),
        (2, 3, [0.9, 0]),
        (2, 3, [0, False]),
        (2, 3, ["0", 0]),
        (2, 3, "00"),
    ]:
        with pytest.raises(ParseError):
            map_from_dict({"m": m, "n": n, "pieces": [{**piece, "square": square}]})
    assert map_from_dict({"m": 2, "n": 3, "pieces": [piece]})[0] == BsParams(2, 3)
    # nor bools in the matrix and offset, which would read true as 1
    for bad in [{"M": [[True, False], [0, 1]]}, {"b": [False, "0"]}]:
        with pytest.raises(ParseError):
            map_from_dict({"m": 2, "n": 3, "pieces": [{**piece, **bad}]})
    with pytest.raises(ParseError):
        map_from_dict({"m": 2, "pieces": [{}]})
    with pytest.raises(ParseError):
        map_from_dict(
            {
                "m": 2,
                "n": 3,
                "pieces": [
                    {"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["0", "0"]},
                    {"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["0", "0"]},
                ],
            }
        )


def test_parse_point():
    assert parse_point("1/2,-3/4") == Vec2(Fraction(1, 2), Fraction(-3, 4))
    with pytest.raises(ParseError):
        parse_point("1/2")
