import json
from fractions import Fraction
from random import Random

import pytest

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
    locate_piece,
    map_from_dict,
    map_to_dict,
    orbit,
    parse_point,
)
from bsdomino.rationals import IDENTITY2, Vec2, mat2, vec2

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
            assert f.pieces[idx].apply(point) == nxt


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
