import gc
import io
import math
import re
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsdomino.balrep import b_k
from bsdomino.cli import main
from bsdomino.errors import EnumerationTooLarge, OutsidePiece, ParseError
from bsdomino.group import BsParams, element_from_text
from bsdomino.pam import AffinePiece, PiecewiseAffineMap, UnitSquare, load_map
from bsdomino.rationals import IDENTITY2, Vec2, fmt_rat, mat2, vec2
from bsdomino.tileset import (
    RowColors,
    Tiles,
    Tileset,
    EllBounds,
    _color_range,
    _grid_lists,
    _transport,
    color_denominator,
    edge_colors,
    enumerate_tileset,
    export_lines,
    grid_q,
    export_tileset,
    parse_tileset,
    piece_meta,
    tile_to_line,
    verify_tileset,
)
from bsdomino import tileset as tileset_module
from bsdomino.tiling import simulate_row
from support import (
    ALL_PARAMS,
    MIXED_Q_MAP,
    affine_scaled_difference_check,
    color_value,
    floor_half_identity_check,
    holds_for,
    random_piece,
    random_point_in,
    random_rational,
    reference_edge_colors,
    reference_enumerate,
    reference_export_lines,
    reference_grid_q,
    reference_piece_meta,
    reference_tile_lines,
    reference_transport,
    reference_verify,
    residual_stages,
    runs_of,
    scaled_color,
    tile_residual,
    transport_rhs,
    verify_tile_computes,
)

P23 = BsParams(2, 3)
IDENTITY_PIECE = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(0, 0))
IDENTITY_MAP = PiecewiseAffineMap((IDENTITY_PIECE,))

PARAM_GRID = [BsParams(1, 2), BsParams(2, 3), BsParams(3, 2), BsParams(2, 2)]

# perfbench/maps/half2-23.map: two pieces with denominator-2 entries
HALF = mat2([["1/2", "0"], ["0", "1/2"]])
HALF2_MAP = PiecewiseAffineMap(
    (
        AffinePiece(UnitSquare(0, 0), HALF, vec2("1/2", "1/2")),
        AffinePiece(UnitSquare(1, 0), HALF, vec2("-1/2", "1/2")),
    )
)


def test_worked_tile():
    tile = edge_colors(P23, IDENTITY_PIECE, 0, vec2("1/2", "1/2"))
    piece, bottom, top, left, right = tile
    assert piece == 0
    assert bottom == ((0, 0), (1, 1), (0, 0))
    assert top == ((0, 0), (1, 1))
    # error colors over D = q = 6: left 0, right -1/6
    assert left == (0, 0)
    assert right == (-1, -1)
    assert verify_tile_computes(P23, IDENTITY_PIECE, tile)
    # both sides of the transport equation equal (1/3, 1/3)
    avg_top = vec2("1/2", "1/2")
    assert avg_top + color_value(right, 6) == vec2("1/3", "1/3")
    # a line prints the values, whatever the denominator
    line = (
        "0 | bottom: (0,0) (1,1) (0,0) | top: (0,0) (1,1) | l: 0/1,0/1 | r: -1/6,-1/6"
    )
    assert tile_to_line(tile, 6) == line
    over_12 = edge_colors(P23, IDENTITY_PIECE, 0, vec2("1/2", "1/2"), 0, 12)
    assert over_12[4] == (-2, -2)  # right over D = 12
    assert tile_to_line(over_12, 12) == line


def test_zero_point_tile_is_all_zero():
    for params in PARAM_GRID:
        _, bottom, top, left, right = edge_colors(params, IDENTITY_PIECE, 0, vec2(0, 0))
        assert all(c == (0, 0) for c in bottom + top)
        assert left == (0, 0) and right == (0, 0)


def test_corrupted_tile_fails():
    tile = edge_colors(P23, IDENTITY_PIECE, 0, vec2("1/2", "1/2"))
    broken = (*tile[:4], (0, 0))  # right color 0
    assert not verify_tile_computes(P23, IDENTITY_PIECE, broken)
    assert tile_residual(P23, IDENTITY_PIECE, broken) == vec2("1/6", "1/6")


def test_edge_colors_outside_piece():
    with pytest.raises(OutsidePiece):
        edge_colors(P23, IDENTITY_PIECE, 0, vec2(3, 3))


@pytest.mark.parametrize("corner", [(0, 0), (-1, -1)])
def test_edge_colors_on_the_closed_square(corner):
    # the square is closed: its corners and side midpoints are in it, and
    # a point 1/7 past any side is not
    c1, c2 = corner
    piece = AffinePiece(UnitSquare(c1, c2), IDENTITY2, vec2(0, 0))
    half, past = Fraction(1, 2), Fraction(1, 7)
    on = [(c1 + dx, c2 + dy) for dx in (0, 1) for dy in (0, 1)]
    on += [(c1 + half, c2), (c1 + 1, c2 + half), (c1 + half, c2 + 1), (c1, c2 + half)]
    for x1, x2 in on:
        x = vec2(x1, x2)
        tile = edge_colors(P23, piece, Fraction(5, 3), x)
        assert tile == reference_edge_colors(P23, piece, Fraction(5, 3), x)
    off = [(c1 - past, c2 + half), (c1 + 1 + past, c2 + half)]
    off += [(c1 + half, c2 - past), (c1 + half, c2 + 1 + past)]
    for x1, x2 in off:
        x = vec2(x1, x2)
        with pytest.raises(OutsidePiece, match=f"^{re.escape(f'{x} is not in square {piece.square}')}$"):
            edge_colors(P23, piece, Fraction(5, 3), x)


ROOT = Path(__file__).resolve().parents[1]
# every map of the repository: rotation-32 has m > n, half2-23 has
# denominator-2 entries, the rotations have pieces in the negative squares
MAP_FILES = sorted(ROOT.glob("maps/*.map")) + sorted(ROOT.glob("perfbench/maps/*.map"))
# the maps the benchmark round-trips
ROUNDTRIP_MAPS = {
    "identity-23": ROOT / "maps" / "identity-23.map",
    "rotation-22": ROOT / "maps" / "rotation-22.map",
    "half2-23": ROOT / "perfbench" / "maps" / "half2-23.map",
}
MAP_PIECES = [
    (params, index, piece, color_denominator(params, pam.pieces))
    for params, pam in (load_map(str(path)) for path in MAP_FILES)
    for index, piece in enumerate(pam.pieces)
]


def _unit_offset(draw) -> Fraction:
    # a corner or edge of the square as often as a point inside it
    den = draw(st.integers(1, 40))
    return Fraction(draw(st.integers(0, den)), den)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_edge_colors_match_fraction_oracle(data):
    params, index, piece, den = data.draw(st.sampled_from(MAP_PIECES))
    sq = piece.square
    x = Vec2(sq.c1 + _unit_offset(data.draw), sq.c2 + _unit_offset(data.draw))
    lam = Fraction(data.draw(st.integers(-300, 300)), data.draw(st.integers(1, 60)))
    tile = edge_colors(params, piece, lam, x, index, den)
    assert tile == reference_edge_colors(params, piece, lam, x, index, den)


def test_row_run_matches_fraction_oracle():
    # tile k of run([(a, c, count)]) is the tile at lam = a/c + k/m; rows
    # start at negative and positive lam, run shorter than a phase, one
    # tile per phase and 41 tiles (the benchmark row), on every map; a
    # count of zero or below makes no tile
    rng = Random(43)
    for params, index, piece, den in MAP_PIECES:
        m = params.m
        for count in (0, 1, m - 1, m, m + 1, 41, -1, -3):
            for a in (-rng.randint(1, 300), 0, rng.randint(1, 300)):
                c = rng.randint(1, 60)
                x = random_point_in(rng, piece.square, 40)
                tiles = RowColors(params, piece, x, index, den).run([(a, c, count)])
                assert len(tiles) == max(count, 0)
                for k, tile in enumerate(tiles):
                    lam = Fraction(a, c) + Fraction(k, m)
                    assert tile == reference_edge_colors(params, piece, lam, x, index, den)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_run_matches_fraction_oracle_anywhere(data):
    params, index, piece, den = data.draw(st.sampled_from(MAP_PIECES))
    sq = piece.square
    x = Vec2(sq.c1 + _unit_offset(data.draw), sq.c2 + _unit_offset(data.draw))
    a, c = data.draw(st.integers(-300, 300)), data.draw(st.integers(1, 60))
    count = data.draw(st.integers(0, 2 * params.m + 3))
    tiles = RowColors(params, piece, x, index, den).run([(a, c, count)])
    lams = [Fraction(a, c) + Fraction(k, params.m) for k in range(count)]
    assert tiles == [
        reference_edge_colors(params, piece, lam, x, index, den) for lam in lams
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_run_of_many_runs_is_its_one_run_calls_laid_end_to_end(data):
    # the runs of one call, each with its own c, are put over the lcm of
    # their c and swept in one comprehension per point: the tiles are
    # the one-run calls' laid end to end, each the formulas' tile, on
    # BS(2,3), BS(3,2) and BS(2,2); a run of count 0 or below makes no tile
    group = data.draw(st.sampled_from([P23, BsParams(3, 2), BsParams(2, 2)]))
    params, index, piece, den = data.draw(
        st.sampled_from([entry for entry in MAP_PIECES if entry[0] == group])
    )
    sq = piece.square
    x = Vec2(sq.c1 + _unit_offset(data.draw), sq.c2 + _unit_offset(data.draw))
    run = st.tuples(st.integers(-300, 300), st.integers(1, 60), st.integers(-3, 2 * params.m + 3))
    runs = data.draw(st.lists(run, min_size=2, max_size=6, unique_by=lambda r: r[1]))
    row = RowColors(params, piece, x, index, den)
    tiles = row.run(runs)
    assert tiles == [tile for one in runs for tile in row.run([one])]
    lams = [Fraction(a, c) + Fraction(k, params.m) for a, c, count in runs for k in range(count)]
    assert tiles == [reference_edge_colors(params, piece, lam, x, index, den) for lam in lams]


@settings(max_examples=400, deadline=None)
@given(params=ALL_PARAMS, seed=st.integers(0, 2**32 - 1), times=st.integers(1, 6))
def test_grid_q_and_transport_match_fraction_formulas(params, seed, times):
    # from the piece's integer form, as from each Fraction entry, over
    # the piece's q and multiples of it
    piece = random_piece(Random(seed))
    q = grid_q(params, piece)
    assert q == reference_grid_q(params, piece)
    assert _transport(params, piece, q * times) == reference_transport(params, piece, q * times)


@settings(max_examples=400, deadline=None)
@given(
    params=ALL_PARAMS,
    seed=st.integers(0, 2**32 - 1),
    zero_row=st.sampled_from([None, 0, 1]),
    integral=st.booleans(),
)
@example(params=BsParams(2, 3), seed=7, zero_row=0, integral=True)
@example(params=BsParams(3, 1), seed=8, zero_row=1, integral=False)
def test_piece_meta_matches_fraction_oracle(params, seed, zero_row, integral):
    # random_piece draws squares and offsets of both signs; a zero matrix
    # row maps the square to one value in that component, and integer
    # entries put every corner image on an integer, where the top box's
    # ceiling is exact
    piece = random_piece(Random(seed))
    entries = [*piece.matrix.entries(), piece.offset.x1, piece.offset.x2]
    if integral:
        entries = [math.floor(e) for e in entries]
    if zero_row is not None:
        entries[2 * zero_row : 2 * zero_row + 2] = [0, 0]
    piece = AffinePiece(piece.square, mat2([entries[0:2], entries[2:4]]), vec2(*entries[4:]))
    assert piece_meta(params, piece) == reference_piece_meta(params, piece)


def test_oracle_covers_every_map():
    assert {(p.m, p.n) for p, _, _, _ in MAP_PIECES} >= {(2, 3), (2, 2), (3, 2)}
    entries = [e for _, _, piece, _ in MAP_PIECES for e in piece.matrix.entries()]
    assert any(e.denominator == 2 for e in entries)


def test_floor_half_identity():
    assert floor_half_identity_check(0)
    assert floor_half_identity_check(Fraction(1, 2))
    assert floor_half_identity_check(Fraction(-7, 3))
    rng = Random(40)
    for _ in range(300):
        assert floor_half_identity_check(random_rational(rng, 40, 23))


def test_computes_random_witnesses():
    rng = Random(41)
    for params in PARAM_GRID:
        for _ in range(200):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            tile = edge_colors(params, piece, lam, x)
            assert verify_tile_computes(params, piece, tile)


def test_left_right_stitching():
    # shifting the scale by one whole unit turns left into right
    lam = Fraction(1, 2)
    t_hi = edge_colors(P23, IDENTITY_PIECE, lam, vec2("1/2", "1/2"))
    t_lo = edge_colors(P23, IDENTITY_PIECE, lam - 1, vec2("1/2", "1/2"))
    assert t_hi[3] == t_lo[4]
    rng = Random(42)
    for params in PARAM_GRID:
        for _ in range(150):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            assert (
                edge_colors(params, piece, lam + 1, x)[3]  # left
                == edge_colors(params, piece, lam, x)[4]  # right
            )


def test_top_shift_identity():
    rng = Random(43)
    for params in PARAM_GRID:
        if params.m == 1:
            continue
        for _ in range(150):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            base = edge_colors(params, piece, lam, x)
            for k in range(1, params.m):
                shifted = edge_colors(
                    params, piece, lam + Fraction(k, params.m), x
                )
                assert shifted[2][0] == base[2][k]  # top colors


def test_vertical_transfer_identity():
    # first top color at scale (n/m) lam equals the first term of the
    # balanced representation of f(x) at phase n lam
    rng = Random(44)
    for params in PARAM_GRID:
        for _ in range(150):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            up = edge_colors(params, piece, Fraction(params.n, params.m) * lam, x)
            fx = piece.apply(x)
            assert up[2][0] == b_k(fx, params.n * lam, 1)  # first top color


def test_ell_bounds_identity_box():
    eb = piece_meta(P23, IDENTITY_PIECE).ell
    assert eb.q == 6
    assert holds_for(eb, (0, 0))
    assert holds_for(eb, (-1, -1))
    assert not holds_for(eb, (-3, 0))
    # over D = 2 q: even numerators only
    assert holds_for(eb, (-2, -2), 2)
    assert not holds_for(eb, (-1, -1), 2)


def test_ell_bounds_zero_offset_tight_in_lambda():
    # with b = 0 the error color depends only on fractional parts
    rng = Random(45)
    piece = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(0, 0))
    eb = piece_meta(P23, piece).ell
    values = set()
    for _ in range(200):
        lam = random_rational(rng, 30, 17)
        x = random_point_in(rng, piece.square)
        values.add(edge_colors(P23, piece, lam, x)[3])  # left
    assert all(holds_for(eb, v) for v in values)


def test_ell_bounds_sampled_membership():
    rng = Random(46)
    for params in PARAM_GRID:
        for _ in range(30):
            piece = random_piece(rng)
            eb = piece_meta(params, piece).ell
            for _ in range(40):
                lam = random_rational(rng, 25, 19)
                x = random_point_in(rng, piece.square)
                *_, left, right = edge_colors(params, piece, lam, x)
                assert holds_for(eb, left)
                assert holds_for(eb, right)


def test_label_boxes():
    meta = piece_meta(P23, IDENTITY_PIECE)
    assert meta.bottom_box == ((0, 0), (1, 1))
    assert meta.top_box == ((0, 0), (1, 1))
    shifted = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(2, 2))
    assert piece_meta(P23, shifted).top_box == ((2, 2), (3, 3))
    scaled = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2("1/2", 0))
    assert piece_meta(P23, scaled).top_box == ((0, 0), (2, 1))


def _stored_tuples(ts: Tileset) -> list:
    """What a tileset holds per run and per tile: labels and colors."""
    return [part for run in ts.runs for part in (run[1], run[2], *run[3], *run[4])]


def test_tiles_are_untracked_plain_tuples():
    # the collector untracks an exact tuple once its items are untracked;
    # a tuple subclass such as a NamedTuple stays tracked and is walked by
    # every full collection.  A tileset stores runs: per tile it holds
    # only the two colors, each one of these tuples
    ts = enumerate_tileset(P23, HALF2_MAP)
    x = vec2("2/7", "3/5")
    sources = {
        "enumerate_tileset": _stored_tuples(ts),
        "parse_tileset": _stored_tuples(parse_tileset(export_tileset(ts))),
        "edge_colors": [edge_colors(P23, IDENTITY_PIECE, Fraction(-5, 3), x, 0, 6)],
        "RowColors.run": RowColors(P23, IDENTITY_PIECE, x, 0, 6).run([(-7, 4, 9), (5, 6, 4)]),
        "simulate_row": simulate_row(
            P23, HALF2_MAP, 0, x, element_from_text(P23, "tAt"), (-5, 5)
        ),
    }
    # one collection may meet a tile before the tuples inside it: three
    # cover the three levels (tile, color list, color)
    for _ in range(3):
        gc.collect()
    for source, tiles in sources.items():
        assert tiles, source
        for tile in tiles:
            assert type(tile) is tuple, source
            assert not gc.is_tracked(tile), source


def test_enumerate_identity_23():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    assert len(ts.tiles) == len(set(ts.tiles))
    worked = edge_colors(P23, IDENTITY_PIECE, 0, vec2("1/2", "1/2"))
    assert worked in set(ts.tiles)
    assert all(len(bottom) == 3 and len(top) == 2 for _, bottom, top, _, _ in ts.tiles)


def test_enumerate_members_all_compute():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    rng = Random(47)
    sample = rng.sample(ts.tiles, 500)
    for tile in sample:
        assert verify_tile_computes(P23, IDENTITY_PIECE, tile)
    assert not verify_tileset(ts)


def test_enumerate_contains_random_witnesses():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    members = set(ts.tiles)
    rng = Random(48)
    for _ in range(200):
        lam = random_rational(rng, 20, 15)
        x = random_point_in(rng, IDENTITY_PIECE.square)
        assert edge_colors(P23, IDENTITY_PIECE, lam, x) in members


def test_enumerate_one_two_shapes():
    params = BsParams(1, 2)
    ts = enumerate_tileset(params, IDENTITY_MAP)
    assert ts.tiles
    assert all(len(bottom) == 2 and len(top) == 1 for _, bottom, top, _, _ in ts.tiles)


def test_enumerate_cap(monkeypatch):
    monkeypatch.setenv("BSDOMINO_MAX_TILES", "10")
    with pytest.raises(EnumerationTooLarge) as info:
        enumerate_tileset(P23, IDENTITY_MAP)
    assert str(info.value) == "tile enumeration needs 36864 candidates, cap is 10"


# every map of the repository, and the mixed-q and BS(1,2) fixtures
ENUMERATE_CASES = {
    **{path.stem: load_map(str(path)) for path in MAP_FILES},
    "mixed-q": (P23, MIXED_Q_MAP),
    "bs12": (BsParams(1, 2), IDENTITY_MAP),
}


@pytest.mark.parametrize("name", ENUMERATE_CASES)
def test_enumerate_matches_reference(name):
    params, pam = ENUMERATE_CASES[name]
    tiles = enumerate_tileset(params, pam).tiles
    assert tuple(tiles) == reference_enumerate(params, pam)
    # the tiles of a piece share one tuple per grid color
    for index in range(len(pam.pieces)):
        colors = [color for tile in tiles if tile[0] == index for color in tile[3:]]
        assert len({id(color) for color in colors}) == len(set(colors))


def _overhangs(params: BsParams, piece: AffinePiece) -> set[str]:
    """The sides of the grid box that some run's right side b lies beyond:
    '1-' when b1 < -w1, '1+' when b1 > w1, and so on, w the box's widths."""
    meta = piece_meta(params, piece)
    (p11, p12), (p21, p22) = meta.ell.p1, meta.ell.p2
    w1, w2 = p21 - p11, p22 - p12
    eq = _transport(params, piece, meta.ell.q)
    sides = set()
    for bottom in product(_color_range(meta.bottom_box), repeat=params.n):
        for top in product(_color_range(meta.top_box), repeat=params.m):
            b1, b2 = transport_rhs(eq, bottom, top)
            sides.update(
                side for side, beyond in
                (("1-", b1 < -w1), ("1+", b1 > w1), ("2-", b2 < -w2), ("2+", b2 > w2))
                if beyond
            )
    return sides


# (m, n, s): the maps x -> diag(+-s, +-s) x on BS(m,n) have runs whose
# right side lies beyond the grid box on both sides of both components,
# at under 40,000 candidates
OVERHANG_CASES = [(2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (1, 3, 2)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_matches_reference_beyond_the_grid(data):
    m, n, s = data.draw(st.sampled_from(OVERHANG_CASES))
    s1, s2 = (data.draw(st.sampled_from([-s, s])) for _ in range(2))
    c1, c2 = (data.draw(st.integers(-3, 3)) for _ in range(2))
    params = BsParams(m, n)
    piece = AffinePiece(UnitSquare(c1, c2), mat2([[s1, 0], [0, s2]]), vec2(0, 0))
    assert _overhangs(params, piece) == {"1-", "1+", "2-", "2+"}
    pam = PiecewiseAffineMap((piece,))
    assert tuple(enumerate_tileset(params, pam).tiles) == reference_enumerate(params, pam)


# the signs of diag(+-s, +-s), and the zero matrix
SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]


@settings(max_examples=15, deadline=None)
@given(
    case=st.sampled_from(OVERHANG_CASES),
    signs=st.lists(st.sampled_from(SIGNS), min_size=2, max_size=3),
    squares=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=3, unique=True),
)
# pieces 0 and 2 share a grid box, and piece 1 between them has its own
@example(case=(2, 3, 1), signs=[(1, 1), (-1, 1), (1, 1)], squares=[(0, 0), (2, -1), (-3, 3)])
# and piece 1's blocks start with the same tails as theirs: M = 0, -I, 0
@example(case=(2, 3, 1), signs=[(0, 0), (-1, -1), (0, 0)], squares=[(0, 0), (1, 0), (2, 0)])
def test_enumerate_shares_lists_per_grid_box_and_shift(case, signs, squares):
    # the grid box of x -> diag(+-s, +-s) x depends only on the signs, so
    # pieces on distinct squares with equal signs share one
    m, n, s = case
    params = BsParams(m, n)
    pam = PiecewiseAffineMap(tuple(
        AffinePiece(UnitSquare(*square), mat2([[s1 * s, 0], [0, s2 * s]]), vec2(0, 0))
        for (s1, s2), square in zip(signs, squares)
    ))
    ts = enumerate_tileset(params, pam)
    assert tuple(ts.tiles) == reference_enumerate(params, pam)
    # one pair of list objects per grid box and right - left
    shifts = {
        (ts.piece_meta[piece].ell, (rights[0][0] - lefts[0][0], rights[0][1] - lefts[0][1]))
        for piece, _, _, lefts, rights in ts.runs
    }
    assert len({(id(run[3]), id(run[4])) for run in ts.runs}) == len(shifts)
    again = parse_tileset(export_tileset(ts))
    assert again.runs == ts.runs
    assert _list_groups(again.runs) == _list_groups(ts.runs)


def test_color_lists_pair_each_left_with_its_right():
    # a 3 x 4 grid holding its own indices; shifts up to two past its
    # widths make slice bounds that would count from the end of a row
    lists = _grid_lists(EllBounds((0, 0), (2, 3), 1), 1)
    for b1 in range(-4, 5):
        for b2 in range(-5, 6):
            lefts = [
                (i, j) for i in range(3) for j in range(4)
                if 0 <= i + b1 < 3 and 0 <= j + b2 < 4
            ]
            rights = [(i + b1, j + b2) for i, j in lefts]
            assert lists(b1, b2) == (lefts, rights)


def test_export_round_trip():
    ts = enumerate_tileset(BsParams(1, 2), IDENTITY_MAP)
    text = export_tileset(ts)
    again = parse_tileset(text)
    assert again.params == ts.params
    assert again.pam == ts.pam
    assert again.piece_meta == ts.piece_meta
    assert again.runs == ts.runs
    assert export_tileset(again) == text


@pytest.mark.parametrize(
    "old, new",
    [
        (" | r: ", " | r: 1/0,"),        # bad rational
        (" | r: ", " | r: 1/-6,"),       # bad rational
        (" | r: ", " | r: 1/7,"),        # off the grid (1/D) Z^2
        (" | l: ", " | x: "),            # unknown label
        ("bottom: ", "top: "),           # labels out of place
        (" | r: ", " | l: "),
        (" | top: ", " top: "),          # a missing separator
    ],
)
def test_parse_names_malformed_line(old, new):
    lines = export_tileset(enumerate_tileset(BsParams(1, 2), IDENTITY_MAP)).splitlines()
    # the victim repeats the parts of the line before it, so those parts
    # are already interned when the victim is read
    victim = len(lines) - 1
    lines[victim] = lines[victim - 1].replace(old, new, 1)
    with pytest.raises(ParseError, match=f"tileset line {victim + 1}:"):
        parse_tileset("\n".join(lines) + "\n")


def test_parse_reads_colors_by_value():
    # 2/12 is -1/6 spelled over a larger denominator
    text = export_tileset(enumerate_tileset(P23, IDENTITY_MAP))
    line = next(line for line in text.splitlines() if " | r: -1/6," in line)
    spelled = line.replace(" | r: -1/6,", " | r: -2/12,")
    assert parse_tileset(text.replace(line, spelled)).runs == parse_tileset(text).runs


def test_fault_lines_index_the_file():
    # several right colors shifted by 1: each stays on the grid and keeps
    # the sort order, so verify names each corrupted line by its number
    ts = enumerate_tileset(P23, MIXED_Q_MAP)
    lines = export_tileset(ts).splitlines()
    header = 2 + len(MIXED_Q_MAP.pieces)
    victims = sorted(Random(52).sample(range(header, len(lines)), 12))
    for victim in victims:
        head, _, right = lines[victim].rpartition(" | r: ")
        r1, r2 = (Fraction(part) for part in right.split(","))
        lines[victim] = f"{head} | r: {fmt_rat(r1 + 1)},{fmt_rat(r2 - 1)}"
    faults = verify_tileset(parse_tileset("\n".join(lines) + "\n"))
    assert [fault.line for fault in faults] == [victim + 1 for victim in victims]
    for fault in faults:
        assert lines[fault.line - 1] == tile_to_line(fault.tile, ts.denominator)


def test_residual_stage_chain():
    rng = Random(49)
    zero = Vec2(Fraction(0), Fraction(0))
    for params in PARAM_GRID:
        for _ in range(100):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            stages = residual_stages(params, piece, lam, x)
            assert all(s == stages[0] for s in stages)
            assert stages[0] == zero


def test_affine_scaled_difference_lemma():
    rng = Random(50)
    for _ in range(200):
        piece = random_piece(rng)
        c = random_rational(rng)
        y = Vec2(random_rational(rng), random_rational(rng))
        z = Vec2(random_rational(rng), random_rational(rng))
        assert affine_scaled_difference_check(piece, c, y, z)


def test_mixed_q_map_round_trips():
    ts = enumerate_tileset(P23, MIXED_Q_MAP)
    assert [meta.ell.q for meta in ts.piece_meta] == [6, 12]
    assert ts.denominator == 12
    text = export_tileset(ts)
    again = parse_tileset(text)
    assert again.runs == ts.runs
    assert export_tileset(again) == text
    assert not verify_tileset(again)


# the run count of every committed map: one run per (piece, bottom, top)
# whose transport right side leaves a pair on the grid box
RUN_COUNTS = {
    "identity-23": 900,
    "rotation-22": 1_024,
    "shift3-23": 2_880,
    "kari-23": 3_480,
    "escape": 1_024,
    "half2-23": 2_048,
    "rotation-32": 3_600,
}


@pytest.mark.parametrize("path", MAP_FILES, ids=lambda path: path.stem)
def test_committed_maps_store_runs(path):
    ts = enumerate_tileset(*load_map(str(path)))
    assert len(ts.runs) == RUN_COUNTS[path.stem]
    assert all(run[3] for run in ts.runs)  # no empty run
    text = export_tileset(ts)
    assert parse_tileset(text).runs == ts.runs
    # the runs of a piece with one right - left share its two color lists
    first = {}
    for run in ts.runs:
        (l1, l2), (r1, r2) = run[3][0], run[4][0]
        shared = first.setdefault((run[0], r1 - l1, r2 - l2), run)
        assert run[3] is shared[3] and run[4] is shared[4]
    # tile k is on export line 3 + pieces + k
    lines = text.splitlines()
    header = 2 + len(ts.pam.pieces)
    last = len(ts.tiles) - 1
    for k in [0, last, *Random(56).sample(range(last), 200)]:
        assert lines[header + k] == tile_to_line(ts.tiles[k], ts.denominator)
    assert len(lines) == header + len(ts.tiles)


def _list_groups(runs) -> list[int]:
    """Each run's group: the index of the first run holding its two
    color lists, the same objects."""
    first: dict[tuple[int, int], int] = {}
    return [first.setdefault((id(run[3]), id(run[4])), k) for k, run in enumerate(runs)]


@pytest.mark.parametrize("path", MAP_FILES, ids=lambda path: path.stem)
def test_parsed_runs_share_lists_as_enumerated(path):
    ts = enumerate_tileset(*load_map(str(path)))
    again = parse_tileset(export_tileset(ts))
    assert again.runs == ts.runs
    assert _list_groups(again.runs) == _list_groups(ts.runs)


def test_export_tileset_joins_export_lines(lattice_tilesets):
    # shared color lists (enumerated), one pair of lists per run, and no
    # runs at all: one writer, whose strings are single lines or parts of one
    ts = lattice_tilesets[0]
    for sub in (
        ts,
        Tileset(ts.params, ts.pam, runs_of(islice(ts.tiles, 0, 3000, 7))),
        Tileset(ts.params, ts.pam, ()),
    ):
        strings = list(export_lines(sub))
        assert export_tileset(sub) == "".join(strings)
        assert all(string.count("\n") <= 1 for string in strings)


def _distinct_lists(ts) -> int:
    return len({id(colors) for run in ts.runs for colors in run[3:]})


@pytest.mark.parametrize("path", MAP_FILES, ids=lambda path: path.stem)
def test_file_reader_matches_text_reader(tmp_path, path):
    # one right color moved by 1, as in the benchmark's negative control:
    # the open file and its text give the same runs, sharing as many list
    # objects, and the same single fault
    _check_file_reader(tmp_path, path)


# the characters the file reader asks for at a time, in place of its
# default: one line a read, or a few, so that reads end inside blocks
SMALL_BATCHES = [1, 7, 100]


@pytest.mark.parametrize("batch", SMALL_BATCHES)
@pytest.mark.parametrize("name", ROUNDTRIP_MAPS)
def test_file_reader_in_small_batches_matches_text_reader(tmp_path, monkeypatch, name, batch):
    monkeypatch.setattr(tileset_module, "_BATCH", batch)
    _check_file_reader(tmp_path, ROUNDTRIP_MAPS[name])


class _CountingFile(io.StringIO):
    """A text file that counts the reads of its text."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_file_reader_reads_a_long_block_in_few_batches(monkeypatch):
    # a line a read: a block that runs past what is read is read again with
    # at least as many characters more as it holds, so each block costs a
    # few reads, not one per line
    monkeypatch.setattr(tileset_module, "_BATCH", 1)
    text = export_tileset(enumerate_tileset(*load_map(str(ROUNDTRIP_MAPS["half2-23"]))))
    source = _CountingFile(text)
    ts = parse_tileset(source)
    longest = max(len(run[3]) for run in ts.runs)
    assert source.reads <= len(ts.runs) * (2 + math.log2(longest)) < text.count("\n") / 2


def _check_file_reader(tmp_path, path):
    ts = enumerate_tileset(*load_map(str(path)))
    lines = export_tileset(ts).splitlines()
    victim = Random(path.stem).randrange(2 + len(ts.pam.pieces), len(lines))
    head, _, right = lines[victim].rpartition(" | r: ")
    r1, r2 = right.split(",")
    lines[victim] = f"{head} | r: {fmt_rat(Fraction(r1) + 1)},{r2}"
    text = "\n".join(lines) + "\n"
    out = tmp_path / "map.tiles"
    out.write_text(text, encoding="utf-8")
    from_text = parse_tileset(text)
    with open(out, encoding="utf-8") as handle:
        from_file = parse_tileset(handle)
    assert from_file.runs == from_text.runs
    assert _distinct_lists(from_file) == _distinct_lists(from_text)
    faults = verify_tileset(from_file)
    assert faults == verify_tileset(from_text)
    assert [(fault.line, fault.reason) for fault in faults] == [
        (victim + 1, "transport equation violated")
    ]


# each probe edits the lines of identity-23's export and returns the line
# the ParseError names, or None where the lines still parse
def _unchanged(lines, ts):
    return None


def _empty(lines, ts):
    lines.clear()
    return 1


def _title_only(lines, ts):
    del lines[1:]
    return 2


def _blank_line(lines, ts):
    lines.insert(100, "")
    return 101


def _swap_at_run_boundary(lines, ts):
    k = 2 + len(ts.pam.pieces) + len(ts.runs[0][3])  # the second run's first line
    lines[k - 1], lines[k] = lines[k], lines[k - 1]
    return k + 1  # the first run's last line now sorts before the line above


def _off_grid_last_line(lines, ts):
    head, _, _ = lines[-1].partition(" | l: ")
    lines[-1] = head + " | l: 9/14,9/14 | r: 9/14,9/14"
    return len(lines)


def _tiles_lowered(lines, ts):
    lines[1] = lines[1].replace(" tiles=14400", " tiles=14399")
    return 2


# a probe may return the whole message: the two where the file ends, or the
# tile lines start, right after the headers
def _headers_only(lines, ts):
    del lines[2 + len(ts.pam.pieces) :]
    return "tileset line 2: header says pieces=1 tiles=14400, the file has 1 pieces and 0 tiles"


def _no_piece_header(lines, ts):
    del lines[2]
    return "tileset line 3: a piecewise affine map needs at least one piece"


def _read(read):
    """The runs read, or the message of the ParseError raised."""
    try:
        return read().runs
    except ParseError as exc:
        return str(exc)


PROBES = [
    _unchanged,
    _empty,
    _title_only,
    _blank_line,
    _swap_at_run_boundary,
    _off_grid_last_line,
    _tiles_lowered,
    _headers_only,
    _no_piece_header,
]


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("probe", PROBES)
def test_file_and_text_readers_agree(tmp_path, probe, final_newline):
    _check_readers_agree(tmp_path, probe, final_newline)


@pytest.mark.parametrize("batch", SMALL_BATCHES)
def test_readers_agree_in_small_batches(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(tileset_module, "_BATCH", batch)
    for probe in PROBES:
        for final_newline in (True, False):
            _check_readers_agree(tmp_path, probe, final_newline)


def _check_readers_agree(tmp_path, probe, final_newline):
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    lines = export_tileset(ts).splitlines()
    where = probe(lines, ts)
    text = "".join(f"{line}\n" for line in lines)
    if not final_newline:
        text = text.removesuffix("\n")
    out = tmp_path / "probe.tiles"
    out.write_text(text, encoding="utf-8")
    got = _read(lambda: parse_tileset(text))
    with open(out, encoding="utf-8") as handle:
        assert _read(lambda: parse_tileset(handle)) == got
    if where is None:
        assert got == ts.runs
    else:
        assert got.startswith(where if isinstance(where, str) else f"tileset line {where}: ")


def test_crlf_export_reads_as_the_lf_export(tmp_path):
    # CR LF line ends, in the text and in a file written with them kept:
    # the same runs, sharing as many lists, as the export itself
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    text = export_tileset(ts)
    crlf = text.replace("\n", "\r\n")
    out = tmp_path / "crlf.tiles"
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(crlf)
    assert out.read_bytes().count(b"\r\n") == text.count("\n")
    reads = [parse_tileset(crlf)]
    for newline in (None, ""):  # CR LF read as LF, or kept
        with open(out, encoding="utf-8", newline=newline) as handle:
            reads.append(parse_tileset(handle))
    for again in reads:
        assert again.runs == ts.runs
        assert _distinct_lists(again) == _distinct_lists(ts)


def test_non_utf8_byte_is_bad_input_at_its_line(tmp_path, capsys):
    # the byte reads as a lone surrogate, from the file as from its text
    data = bytearray(export_tileset(enumerate_tileset(P23, IDENTITY_MAP)).encode())
    start = data.index(b"\n", 5000) + 1
    data[start + 20] = 0xFF  # inside the bottom colors of a tile line
    where = data[:start].count(b"\n") + 1
    out = tmp_path / "latin.tiles"
    out.write_bytes(bytes(data))
    got = _read(lambda: parse_tileset(bytes(data).decode("utf-8", "surrogateescape")))
    with open(out, encoding="utf-8", errors="surrogateescape") as handle:
        assert _read(lambda: parse_tileset(handle)) == got
    assert got.startswith(f"tileset line {where}: ")
    assert main(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {got}\n"


def test_tileset_derives_its_metas_one_way():
    # one constructor: built by hand from the enumerated runs, a Tileset
    # has the enumerated one's metas, D and tiles, and a parsed one its metas
    ts = enumerate_tileset(P23, HALF2_MAP)
    by_hand = Tileset(P23, HALF2_MAP, ts.runs)
    assert by_hand.piece_meta == ts.piece_meta
    assert by_hand.denominator == ts.denominator
    assert list(by_hand.tiles) == list(ts.tiles)
    again = parse_tileset(export_tileset(ts))
    assert again.piece_meta == ts.piece_meta == tuple(map(partial(piece_meta, P23), HALF2_MAP.pieces))


@pytest.fixture(scope="module")
def lattice_tilesets():
    return [
        enumerate_tileset(P23, IDENTITY_MAP),
        enumerate_tileset(P23, HALF2_MAP),
        enumerate_tileset(P23, MIXED_Q_MAP),  # D = 12: piece 0 on every other numerator
        enumerate_tileset(*load_map(str(ROOT / "maps" / "rotation-22.map"))),
    ]


def _add(color, delta):
    return (color[0] + delta[0], color[1] + delta[1])


KINDS = ["grid", "right side", "bottom", "top", "piece", "count"]


def _perturb(pick, ts: Tileset, tile):
    """The tile broken in one way that makes it invalid; pick(values)
    chooses one of the values."""
    kind = pick(KINDS)
    piece, bottom, top, left, right = tile
    if kind == "piece":
        return (len(ts.pam.pieces), bottom, top, left, right)
    if kind == "count":
        return (piece, bottom[:-1], top, left, right)
    den = ts.denominator
    meta = ts.piece_meta[piece]
    step = den // meta.ell.q
    if kind == "grid":
        # right - left keeps its value: only the grid check can fail, by a
        # numerator off the piece's grid or out of its box
        axis = pick([0, 1])
        if step > 1 and pick([True, False]):
            shift = pick([s for s in range(-40, 41) if s % step])
        else:
            k = pick([1, 2, 3])
            bound = step * pick([meta.ell.p2[axis] + k, meta.ell.p1[axis] - k])
            shift = bound - pick([left, right])[axis]
        delta = (shift, 0) if axis == 0 else (0, shift)
        return (piece, bottom, top, _add(left, delta), _add(right, delta))
    if kind == "right side":
        delta = pick([(a, b) for a in range(-8, 9) for b in range(-8, 9) if a or b])
        return (piece, bottom, top, left, _add(right, delta))
    (lo, hi) = meta.bottom_box if kind == "bottom" else meta.top_box
    colors = list(bottom if kind == "bottom" else top)
    k = pick(range(len(colors)))
    axis = pick([0, 1])
    moved = list(colors[k])
    outside = [hi[axis] + s for s in (1, 2, 3)] + [lo[axis] - s for s in (1, 2, 3)]
    moved[axis] = pick(outside)
    delta = Vec2(Fraction(moved[0] - colors[k][0]), Fraction(moved[1] - colors[k][1]))
    colors[k] = tuple(moved)
    if kind == "bottom":
        bottom = tuple(colors)
    else:
        top = tuple(colors)
    if pick([True, False]):
        # keep the transport equation so that the box check is what fails
        if kind == "bottom":
            matrix = ts.pam.pieces[piece].matrix
            fix = matrix.apply(delta).scale(Fraction(1, ts.params.n))
        else:
            fix = delta.scale(Fraction(-1, ts.params.m))
        right = _add(right, scaled_color(fix, den))
    return (piece, bottom, top, left, right)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_matches_fraction_oracle(lattice_tilesets, data):
    ts = lattice_tilesets[data.draw(st.integers(0, len(lattice_tilesets) - 1))]
    picks = data.draw(
        st.lists(st.integers(0, len(ts.tiles) - 1), min_size=1, max_size=12)
    )

    def pick(values):
        return data.draw(st.sampled_from(values))

    broken = [
        _perturb(pick, ts, ts.tiles[i])
        for i in data.draw(st.lists(st.sampled_from(picks), min_size=1, max_size=4))
    ]
    # the reference numbers tiles in sorted order, verify as stored
    tiles = sorted([ts.tiles[i] for i in picks] + broken)
    sub = Tileset(ts.params, ts.pam, runs_of(tiles))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert {fault.tile for fault in faults} == set(broken)


def test_perturbations_draw_every_fault_reason(lattice_tilesets):
    rng = Random(51)
    reasons = set()
    for _ in range(400):
        ts = rng.choice(lattice_tilesets)
        broken = _perturb(rng.choice, ts, rng.choice(ts.tiles))
        sub = Tileset(ts.params, ts.pam, runs_of([broken]))
        faults = verify_tileset(sub)
        assert len(faults) == 1 and faults == reference_verify(sub)
        reasons.add(faults[0].reason.rstrip("0123456789"))
    assert reasons == {
        "unknown piece ",
        "wrong number of edge colors",
        "transport equation violated",
        "bottom color outside box",
        "top color outside box",
        "left color off the grid box",
        "right color off the grid box",
    }


@pytest.mark.parametrize("name", ROUNDTRIP_MAPS)
def test_corrupted_text_faults_match_fraction_oracle(name):
    # runs sampled from the enumerated tileset keep their shared color
    # lists; one tile line of their export is replaced by that tile broken
    # one way, each fault kind in turn, and moved to its sorted place
    ts = enumerate_tileset(*load_map(str(ROUNDTRIP_MAPS[name])))
    header = 2 + len(ts.pam.pieces)
    rng = Random(57)
    for case in range(10 * len(KINDS)):
        kind = KINDS[case % len(KINDS)]
        picked = sorted(rng.sample(range(len(ts.runs)), 20))
        sub = Tileset(ts.params, ts.pam, tuple(ts.runs[k] for k in picked))
        lines = export_tileset(sub).splitlines()
        body = list(zip(sub.tiles, lines[header:]))
        victim = rng.randrange(len(body))

        def pick(values):
            return kind if values is KINDS else rng.choice(values)

        broken = _perturb(pick, sub, body[victim][0])
        body[victim] = (broken, tile_to_line(broken, sub.denominator))
        body.sort()
        parsed = parse_tileset("\n".join(lines[:header] + [line for _, line in body]) + "\n")
        faults = verify_tileset(parsed)
        assert faults == reference_verify(parsed)
        assert [fault.tile for fault in faults] == [broken]


def test_verify_memo_keys_on_list_objects_and_piece():
    # piece 0 of MIXED_Q_MAP has the even numerators of [-4, 6]^2 as its
    # grid box over D = 12, piece 1 every numerator of [-1, 6]^2
    ts = enumerate_tileset(P23, MIXED_Q_MAP)
    a = next(run for run in ts.runs if run[0] == 0 and run[3][0] == run[4][0])
    lefts, rights = a[3], a[4]  # right - left = (0, 0)
    a, b, c = [run for run in ts.runs if run[3] is lefts][:3]
    assert b[4] is rights and c[4] is rights
    # c holds copies of the lists that differ in one late pair only, moved
    # to an odd numerator inside piece 0's box with right - left kept
    j = max(j for j, (l1, _) in enumerate(lefts) if l1 < 6)
    copy_l, copy_r = list(lefts), list(rights)
    copy_l[j] = copy_r[j] = _add(lefts[j], (1, 0))
    sub = Tileset(P23, MIXED_Q_MAP, (a, b, (*c[:3], copy_l, copy_r)))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert [(fault.tile, fault.reason) for fault in faults] == [
        ((*c[:3], copy_l[j], copy_r[j]), "left color off the grid box")
    ]
    # the same list objects, right for piece 0, under a piece 1 run whose
    # transport right side is (0, 0) too: numerators below -1 are off its box
    d = next(run for run in ts.runs if run[0] == 1 and run[3][0] == run[4][0])
    sub = Tileset(P23, MIXED_Q_MAP, (a, (*d[:3], lefts, rights)))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert faults and {fault.tile[:3] for fault in faults} == {d[:3]}


def test_verify_memo_keys_on_the_run_shape():
    # runs that all hold one pair of list objects with right - left = (0, 0):
    # (a) a valid run, (b) a piece 0 run whose transport right side is not
    # (0, 0), (c) a bottom outside piece 0's box, (d) a run of piece 7 and
    # (e) two bottom colors; (c) and (e) keep the right side (0, 0), as
    # piece 0 is the identity: 12 (sum(bottom) / 3 - sum(top) / 2)
    ts = enumerate_tileset(P23, MIXED_Q_MAP)
    a = next(run for run in ts.runs if run[0] == 0 and run[3][0] == run[4][0])
    lefts, rights = a[3], a[4]
    b = next(run for run in ts.runs if run[0] == 0 and run[3] is not lefts)
    c = (0, ((2, 0), (0, 0), (1, 0)), ((1, 0), (1, 0)))
    d = (7, *a[1:3])
    e = (0, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    runs = sorted((*run[:3], lefts, rights) for run in (a, b, c, d, e))
    sub = Tileset(P23, MIXED_Q_MAP, tuple(runs))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert len(faults) == 4 * len(lefts)
    assert {(fault.tile[:3], fault.reason) for fault in faults} == {
        (b[:3], "transport equation violated"),
        (c, "bottom color outside box"),
        (d, "unknown piece 7"),
        (e, "wrong number of edge colors"),
    }


def test_export_matches_per_line_oracle(lattice_tilesets):
    # sparse subsets leave runs of one tile, full tilesets whole runs, and
    # shuffles (export keeps the order its runs are given in) runs of any
    # length; export yields a header a line, then each run's prefix and
    # tail strings, so the texts are compared byte for byte
    rng = Random(53)
    for ts in lattice_tilesets:
        den, header = ts.denominator, 2 + len(ts.pam.pieces)

        def check(tiles):
            lines = list(export_lines(Tileset(ts.params, ts.pam, runs_of(tiles))))
            assert "".join(lines[header:]) == "".join(reference_export_lines(tiles, den))

        for density in (0.02, 0.3, 1.0):
            tiles = [tile for tile in ts.tiles if rng.random() < density]
            check(tiles)
            window = rng.randrange(len(tiles))
            part = tiles[window : window + 200]
            rng.shuffle(part)
            tiles[window : window + 200] = part
            check(tiles)


MUTATIONS = [
    "copy part", "drop sep", "double sep", "plus", "double space", "tail sep",
    "swap", "move tail",
]


def _mutate(draw, lines: list[str], header: int) -> None:
    """Change tile line i of lines in one way, or swap it with another."""
    i = draw(st.integers(header, len(lines) - 1))
    j = draw(st.integers(header, len(lines) - 1))  # another line, or i itself
    line = lines[i]
    cut = line.index(" | l: ")
    seps = [k for k in range(len(line)) if line.startswith(" | ", k)]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "copy part":
        parts, other = line.split(" | "), lines[j].split(" | ")
        k = draw(st.integers(0, 4))
        parts[k] = other[k]
        lines[i] = " | ".join(parts)
    elif kind in ("drop sep", "double sep"):
        k = draw(st.sampled_from(seps))
        lines[i] = line[:k] + ("" if kind == "drop sep" else " |  | ") + line[k + 3 :]
    elif kind in ("plus", "double space"):
        # a digit that starts a number, or a space, in the label prefix
        if kind == "plus":
            spots = [
                k
                for k in range(cut)
                if line[k].isdigit() and (k == 0 or line[k - 1] in "(,")
            ]
        else:
            spots = [k for k in range(cut) if line[k] == " "]
        k = draw(st.sampled_from(spots or [0]))
        lines[i] = line[:k] + ("+" if kind == "plus" else " ") + line[k:]
    elif kind == "tail sep":
        k = draw(st.integers(cut + 6, len(line)))
        lines[i] = line[:k] + " | " + line[k:]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        # the tail of a neighbouring line under this line's prefix
        k = draw(st.sampled_from([i - 1, i + 1] if i + 1 < len(lines) else [i - 1]))
        if k < header:
            k = i
        lines[i] = line[:cut] + lines[k][lines[k].index(" | l: ") :]


def _outcome(read):
    """The tiles read, or the 'tileset line N:' of the ParseError raised."""
    try:
        return tuple(read())
    except ParseError as exc:
        return re.match(r"tileset line \d+:", str(exc)).group()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_matches_per_line_oracle(lattice_tilesets, data):
    # a window of sorted tiles keeps whole runs and run boundaries; after one
    # mutated line, the run-wise reader and the per-line one agree on the
    # tiles or on the line of the first error
    ts = lattice_tilesets[data.draw(st.integers(0, len(lattice_tilesets) - 1))]
    start = data.draw(st.integers(0, len(ts.tiles) - 1))
    sub = Tileset(ts.params, ts.pam, runs_of(islice(ts.tiles, start, start + 60)))
    lines = export_tileset(sub).splitlines()
    header = 2 + len(ts.pam.pieces)
    _mutate(data.draw, lines, header)
    text = "\n".join(lines) + "\n"
    got = _outcome(lambda: parse_tileset(text).tiles)
    assert got == _outcome(lambda: reference_tile_lines(lines, header, ts.denominator))


def _bumped(tail: str) -> str:
    """The tail 'left | r: right' with 1 added to the first component of
    both colors: a greater key, with right - left kept."""
    left, _, right = tail.partition(" | r: ")
    (l1, l2), (r1, r2) = left.split(","), right.split(",")
    return f"{fmt_rat(Fraction(l1) + 1)},{l2} | r: {fmt_rat(Fraction(r1) + 1)},{r2}"


@pytest.mark.parametrize(
    "edit", ["split", "swap", "repeat", "back", "later tail", "append", "drop last"]
)
def test_parse_block_edits_match_per_line_oracle(edit):
    # whole runs of identity-23, many sharing their color lists, so most
    # blocks are read from an equal block before them: every run re-spelled
    # (+0) from its line k on, so that its lines after k are a second
    # block, a run of its own; two runs swapped; or line k of one run
    # replaced by line k - 1 re-spelled, or by line k - 2 re-spelled, which
    # has the run's labels but sorts before the line above.  Or a near repeat: a run whose first
    # line repeats an earlier run's first tail (the same lists) has one
    # later tail changed (its right color moved), one line appended under
    # its prefix or its last line dropped, so that the block read before
    # with that first tail is tried and does not match.  The block reader
    # and the per-line one agree on the tiles or on the line of the first
    # error.
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    header = 2 + len(ts.pam.pieces)
    shared = [group for group in _runs_by_lists(ts.runs) if len(group) > 2]
    rng = Random(58)
    for _ in range(20):
        near, *repeats = sorted(rng.sample(rng.choice(shared), 3))
        picked = sorted({near, *repeats, *rng.sample(range(len(ts.runs)), 21)})
        sub = Tileset(ts.params, ts.pam, tuple(ts.runs[k] for k in picked))
        lines = export_tileset(sub).splitlines()
        starts = list(accumulate((len(run[3]) for run in sub.runs), initial=header))
        # line k of a run, or past a short one (identity-23's have 4 to 36 tiles)
        k = rng.randrange(2 if edit == "back" else 1, 16)
        tiles = len(sub.tiles)
        if edit == "split":
            for start, end in zip(starts, starts[1:]):
                lines[start + k : end] = ["+" + line for line in lines[start + k : end]]
        elif edit == "swap":
            r, t = sorted(rng.sample(range(len(sub.runs)), 2))
            first, second = lines[starts[r] : starts[r + 1]], lines[starts[t] : starts[t + 1]]
            lines[starts[t] : starts[t + 1]] = first
            lines[starts[r] : starts[r + 1]] = second
        elif edit in ("repeat", "back"):
            start = rng.choice(starts[:-1])
            lines[start + k] = "+" + lines[start + k - (1 if edit == "repeat" else 2)]
        else:
            # the same edit to two later runs with near's lists, the last
            # first, on a line inside them
            k = rng.randrange(1, len(ts.runs[near][3]))
            for r in reversed([picked.index(repeat) for repeat in repeats]):
                start, end = starts[r], starts[r + 1]
                if edit == "later tail":
                    head, _, right = lines[start + k].rpartition(" | r: ")
                    r1, r2 = right.split(",")
                    lines[start + k] = f"{head} | r: {fmt_rat(Fraction(r1) + 1)},{r2}"
                elif edit == "append":
                    prefix, _, tail = lines[end - 1].partition(" | l: ")
                    lines.insert(end, f"{prefix} | l: {_bumped(tail)}")
                    tiles += 1
                else:
                    del lines[end - 1]
                    tiles -= 1
        lines[1] = lines[1].replace(f" tiles={len(sub.tiles)}", f" tiles={tiles}")
        text = "\n".join(lines) + "\n"
        got = _outcome(lambda: parse_tileset(text).tiles)
        assert got == _outcome(lambda: reference_tile_lines(lines, header, ts.denominator))
        if edit == "back":
            assert got == f"tileset line {start + k + 1}:"
        elif edit in ("later tail", "append", "drop last"):
            # every near repeat parses, and the two equal blocks read equal lists
            runs = parse_tileset(text).runs
            first, second = (runs[picked.index(r)] for r in repeats)
            assert first[3] == second[3] and first[4] == second[4]
    if edit == "split":  # each block is its own run: the same tiles, the same export
        again = parse_tileset(text)
        assert tuple(again.tiles) == tuple(sub.tiles)
        assert export_tileset(again) == export_tileset(sub)


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_block_after_a_near_repeat_takes_the_lists_of_its_equal(tmp_path, monkeypatch, batch):
    # three runs of one piece with one pair of lists: A, then B with A's
    # first tail and one later tail changed, then A's tails again under
    # other labels.  The block read last with A's first tail is B's, so the
    # third block is read in full, line by line, into lists equal to A's
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    a, b, c = next(group for group in _runs_by_lists(ts.runs) if len(group) > 2)[:3]
    sub = Tileset(ts.params, ts.pam, (ts.runs[a], ts.runs[b], ts.runs[c]))
    lines = export_tileset(sub).splitlines()
    header = 2 + len(ts.pam.pieces)
    k = header + len(ts.runs[a][3]) + 1  # B's second line
    head, _, right = lines[k].rpartition(" | r: ")
    r1, r2 = right.split(",")
    lines[k] = f"{head} | r: {fmt_rat(Fraction(r1) + 1)},{r2}"
    text = "\n".join(lines) + "\n"
    if batch is None:
        ts_read = parse_tileset(text)
    else:
        monkeypatch.setattr(tileset_module, "_BATCH", batch)
        out = tmp_path / "near.tiles"
        out.write_text(text, encoding="utf-8")
        with open(out, encoding="utf-8") as handle:
            ts_read = parse_tileset(handle)
    first, near, again = ts_read.runs
    assert near[3][0] == first[3][0] and near[4][0] == first[4][0]
    assert near[4] != first[4]
    assert again[3] == first[3] and again[4] == first[4]
    assert tuple(ts_read.tiles) == tuple(reference_tile_lines(lines, header, ts.denominator))


def _runs_by_lists(runs) -> list[list[int]]:
    """The indices of the runs, grouped by the color list objects they hold."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, run in enumerate(runs):
        groups.setdefault((id(run[3]), id(run[4])), []).append(k)
    return list(groups.values())


def test_verify_shared_labels_match_fraction_oracle():
    # rotation-22's four pieces have four bottom boxes and four top boxes.
    # Every piece, and a piece the map lacks, takes every pairing of a few
    # bottoms and tops from those boxes (and a bottom with a third color),
    # one tile each whose right - left is its transport right side, so the
    # count and box checks decide: each bottom and top is shared by runs of
    # every piece, in the box of some and beyond the box of others, and
    # is checked once per piece.
    params, pam = load_map(str(ROOT / "maps" / "rotation-22.map"))
    metas = [piece_meta(params, piece) for piece in pam.pieces]
    den = color_denominator(params, pam.pieces)
    rng = Random(59)
    bottoms = [tuple(rng.choice(_color_range(meta.bottom_box)) for _ in range(2)) for meta in metas]
    tops = [tuple(rng.choice(_color_range(meta.top_box)) for _ in range(2)) for meta in metas]
    bottoms.append((*bottoms[0], bottoms[1][0]))
    tiles = []
    for index in range(len(pam.pieces) + 1):
        for bottom, top in product(bottoms, tops):
            right = (0, 0)
            if index < len(pam.pieces):
                right = transport_rhs(_transport(params, pam.pieces[index], den), bottom, top)
            tiles.append((index, bottom, top, (0, 0), right))
    sub = Tileset(params, pam, runs_of(sorted(tiles)))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert {fault.reason for fault in faults} >= {
        "wrong number of edge colors",
        "bottom color outside box",
        "top color outside box",
        f"unknown piece {len(pam.pieces)}",
    }


def test_verify_reasons_on_a_step_two_piece():
    # piece 0 of MIXED_Q_MAP has q = 6 under D = 12, so its colors are the
    # even numerators of its grid box; each broken tile keeps or breaks the
    # transport equation as its reason needs
    ts = enumerate_tileset(P23, MIXED_Q_MAP)
    den, ell = ts.denominator, ts.piece_meta[0].ell
    step = den // ell.q
    assert step == 2
    lo, hi = ell.p1[0] * step, ell.p2[0] * step
    piece0 = [tile for tile in ts.tiles if tile[0] == 0]
    off_grid = next(t for t in piece0 if t[3][0] + 1 <= hi)
    off_box = next(t for t in piece0 if t[4][0] == hi and t[3][0] + step <= hi)
    shifted = next(t for t in piece0 if t not in (off_grid, off_box))
    broken = {
        (*off_grid[:3], _add(off_grid[3], (1, 0)), _add(off_grid[4], (1, 0))):
            "left color off the grid box",
        (*off_box[:3], _add(off_box[3], (step, 0)), _add(off_box[4], (step, 0))):
            "right color off the grid box",
        (2, *piece0[0][1:]): "unknown piece 2",
        (*shifted[:4], _add(shifted[4], (step, 0))): "transport equation violated",
    }
    left = next(tile[3] for tile, why in broken.items() if why.startswith("left"))
    assert lo <= left[0] <= hi and left[0] % step  # in the box, off the grid
    tiles = sorted(Random(54).sample(ts.tiles, 300) + list(broken))
    sub = Tileset(P23, MIXED_Q_MAP, runs_of(tiles))
    faults = verify_tileset(sub)
    assert faults == reference_verify(sub)
    assert {fault.tile: fault.reason for fault in faults} == broken
    lines = export_tileset(sub).splitlines()
    for fault in faults:
        assert lines[fault.line - 1] == tile_to_line(fault.tile, den)
