"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import time
from fractions import Fraction
from random import Random

from bsdomino import balrep
from bsdomino.balrep import average_error, b_k, window, window_sum
from bsdomino.group import (
    BsParams,
    IDENTITY_ELEMENT,
    element_from_text,
    lambda_val,
    phi,
)
from bsdomino.pam import AffinePiece, PiecewiseAffineMap, UnitSquare
from bsdomino.rationals import IDENTITY2, Vec2, vec2
from bsdomino.tileset import edge_colors, enumerate_tileset
from bsdomino.tiling import (
    ExhaustedNoTiling,
    Found,
    build_ball_patch,
    build_patch,
    search_patch,
    simulate_row,
    row_bottom_reading,
    row_top_reading,
)
from support import (
    compose_alpha_check,
    holds_for,
    insert_relator,
    random_piece,
    random_point_in,
    random_rational,
    random_word,
    verify_tile_computes,
)

P23 = BsParams(2, 3)
IDENTITY_PIECE = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(0, 0))
IDENTITY_MAP = PiecewiseAffineMap((IDENTITY_PIECE,))
PARAM_GRID = [BsParams(1, 2), BsParams(2, 3), BsParams(3, 2), BsParams(2, 2)]


def criterion(number, label, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(f"ACCEPTANCE {number} {label}: FAIL (took {elapsed:.2f}s)")
                raise AssertionError(
                    f"criterion {number} exceeded {budget}s budget: {elapsed:.2f}s"
                )
            print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "witness words map to the origin", budget=1.0)
def test_criterion_1():
    assert phi(BsParams(3, 2), "taT a2 t A T A-2") == (0, 0)
    universal = "taT at A T A"
    for m, n in [(2, 3), (3, 2), (2, 2), (3, 5)]:
        assert phi(BsParams(m, n), universal) == (0, 0)


@criterion(2, "plane embedding well-defined", budget=10.0)
def test_criterion_2():
    rng = Random(1002)
    param_cycle = [BsParams(2, 3), BsParams(3, 2), BsParams(2, 2), BsParams(3, 5)]
    for i in range(10_000):
        p = param_cycle[i % 4]
        w = random_word(rng)
        assert phi(p, insert_relator(rng, p, w)) == phi(p, w)
    for i in range(10_000):
        p = param_cycle[i % 4]
        u, v = random_word(rng, 20), random_word(rng, 20)
        assert compose_alpha_check(p, u, v)


@criterion(3, "every constructed tile computes its map", budget=30.0)
def test_criterion_3():
    rng = Random(1003)
    for params in PARAM_GRID:
        for _ in range(1000):
            piece = random_piece(rng)
            x = random_point_in(rng, piece.square)
            lam = random_rational(rng)
            tile = edge_colors(params, piece, lam, x)
            assert verify_tile_computes(params, piece, tile)


@criterion(4, "stitching identities", budget=30.0)
def test_criterion_4():
    rng = Random(1004)
    for _ in range(1000):
        params = PARAM_GRID[rng.randrange(len(PARAM_GRID))]
        piece = random_piece(rng)
        x = random_point_in(rng, piece.square)
        lam = random_rational(rng)
        assert (
            edge_colors(params, piece, lam + 1, x)[3]  # left
            == edge_colors(params, piece, lam, x)[4]  # right
        )
    for _ in range(1000):
        params = PARAM_GRID[rng.randrange(len(PARAM_GRID))]
        if params.m == 1:
            params = BsParams(2, 3)
        piece = random_piece(rng)
        x = random_point_in(rng, piece.square)
        lam = random_rational(rng)
        base = edge_colors(params, piece, lam, x)
        k = rng.randint(1, params.m - 1)
        shifted = edge_colors(params, piece, lam + Fraction(k, params.m), x)
        assert shifted[2][0] == base[2][k]  # top colors
    for _ in range(1000):
        params = PARAM_GRID[rng.randrange(len(PARAM_GRID))]
        piece = random_piece(rng)
        x = random_point_in(rng, piece.square)
        lam = random_rational(rng)
        after_t = edge_colors(params, piece, Fraction(params.n, params.m) * lam, x)
        assert after_t[2][0] == b_k(piece.apply(x), params.n * lam, 1)  # top_1


@criterion(5, "balanced representations", budget=30.0)
def test_criterion_5():
    rng = Random(1005)
    for _ in range(10_000):
        x = Vec2(random_rational(rng), random_rational(rng))
        z = random_rational(rng)
        v = b_k(x, z, rng.randint(-40, 40))
        f1 = x.x1.numerator // x.x1.denominator
        f2 = x.x2.numerator // x.x2.denominator
        assert v[0] in (f1, f1 + 1) and v[1] in (f2, f2 + 1)
    for big_k in (1, 10, 100):
        for _ in range(50):
            x = Vec2(random_rational(rng), random_rational(rng))
            z = random_rational(rng)
            assert average_error(x, z, big_k) < Fraction(1, 2 * big_k + 1)
    for _ in range(2000):
        x = Vec2(random_rational(rng), random_rational(rng))
        z = random_rational(rng)
        p = rng.randint(-25, 25)
        q = p + rng.randint(0, 40)
        total = window_sum(window(x, z, p, q))
        hi = x.scale(z + q).floor()
        lo = x.scale(z + p - 1).floor()
        assert total == (hi[0] - lo[0], hi[1] - lo[1])


@criterion(6, "finite tileset contains all witnesses", budget=60.0)
def test_criterion_6():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    assert len(ts.tiles) > 0
    members = set(ts.tiles)
    rng = Random(1006)
    for _ in range(100):
        g = random_word(rng)
        lam = lambda_val(P23, g)
        x = random_point_in(rng, IDENTITY_PIECE.square)
        assert edge_colors(P23, IDENTITY_PIECE, lam, x) in members
    bounds = ts.piece_meta[0].ell
    for *_, left, right in ts.tiles:
        assert holds_for(bounds, left)
        assert holds_for(bounds, right)


@criterion(7, "patch search matches mortality", budget=65.0)
def test_criterion_7():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    patch = build_ball_patch(P23, 3)
    start = time.perf_counter()
    result = search_patch(ts, patch)
    assert time.perf_counter() - start < 60.0
    assert isinstance(result, Found)

    escape = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(2, 2)),)
    )
    ts_escape = enumerate_tileset(P23, escape)
    vertical_pair = build_patch(
        P23, [IDENTITY_ELEMENT, element_from_text(P23, "T")]
    )
    for patch in (vertical_pair, build_ball_patch(P23, 1), build_ball_patch(P23, 2)):
        start = time.perf_counter()
        result = search_patch(ts_escape, patch)
        assert time.perf_counter() - start < 5.0
        assert isinstance(result, ExhaustedNoTiling)


@criterion(8, "rows spell out balanced representations", budget=30.0)
def test_criterion_8():
    shear = AffinePiece(
        UnitSquare(0, 0),
        IDENTITY2,
        vec2("1/3", "-2/5"),
    )
    cases = [
        (P23, IDENTITY_MAP, 0, vec2("1/2", "1/2"), IDENTITY_ELEMENT),
        (P23, IDENTITY_MAP, 0, vec2("3/7", "5/11"), element_from_text(P23, "ta")),
        (BsParams(3, 2), PiecewiseAffineMap((shear,)), 0, vec2("1/6", "2/3"),
         element_from_text(BsParams(3, 2), "a2T")),
    ]
    for params, pam, piece_idx, x, g0 in cases:
        tiles = simulate_row(params, pam, piece_idx, x, g0, (-50, 50))
        lam0 = lambda_val(params, g0)
        fx = pam.pieces[piece_idx].apply(x)
        top, lo, hi = row_top_reading(params, tiles, -50)
        assert top == list(balrep.window(fx, params.m * lam0, lo, hi).values)
        for phase in range(params.m):
            colors, z_shift, lo, hi = row_bottom_reading(params, tiles, -50, phase)
            assert colors, "every phase is populated over a 101-tile row"
            want = balrep.window(x, params.n * lam0 + z_shift, lo, hi)
            assert colors == list(want.values)
