"""Shared generators for the randomized checks."""

from fractions import Fraction
from random import Random

from bsdomino.group import ALPHABET, BsParams
from bsdomino.pam import AffinePiece, UnitSquare
from bsdomino.rationals import Mat2, Vec2
from bsdomino.tileset import EllBounds, TileFault, Tileset, tile_residual


def random_word(rng: Random, max_len: int = 24) -> tuple[str, ...]:
    return tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def relator_variants(params: BsParams) -> list[tuple[str, ...]]:
    base = tuple("T" + "a" * params.m + "t" + "A" * params.n)
    inv = tuple("a" * params.n + "T" + "A" * params.m + "t")
    variants = []
    for word in (base, inv):
        for cut in range(len(word)):
            variants.append(word[cut:] + word[:cut])
    variants.extend([("a", "A"), ("A", "a"), ("t", "T"), ("T", "t")])
    return variants


def insert_relator(rng: Random, params: BsParams, word) -> tuple[str, ...]:
    word = tuple(word)
    piece = rng.choice(relator_variants(params))
    pos = rng.randint(0, len(word))
    return word[:pos] + piece + word[pos:]


def random_rational(rng: Random, span: int = 12, max_den: int = 10) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_piece(rng: Random, span: int = 2) -> AffinePiece:
    square = UnitSquare(rng.randint(-span, span), rng.randint(-span, span))
    matrix = Mat2(
        random_rational(rng, 4, 4),
        random_rational(rng, 4, 4),
        random_rational(rng, 4, 4),
        random_rational(rng, 4, 4),
    )
    offset = Vec2(random_rational(rng, 4, 4), random_rational(rng, 4, 4))
    return AffinePiece(square, matrix, offset)


def random_point_in(rng: Random, square: UnitSquare, max_den: int = 16) -> Vec2:
    den1 = rng.randint(1, max_den)
    den2 = rng.randint(1, max_den)
    return Vec2(
        square.c1 + Fraction(rng.randint(0, den1 - 1), den1),
        square.c2 + Fraction(rng.randint(0, den2 - 1), den2),
    )


def _on_grid_box(ell: EllBounds, v: Vec2) -> bool:
    scaled = (v.x1 * ell.q, v.x2 * ell.q)
    if any(c.denominator != 1 for c in scaled):
        return False
    return all(ell.p1[i] <= scaled[i] <= ell.p2[i] for i in range(2))


def reference_verify(ts: Tileset) -> list[TileFault]:
    """verify_tileset written directly in Fractions: the exact residual
    of the transport equation and the grid box as multiples of 1/q."""
    faults = []
    header_lines = 2 + len(ts.pam.pieces)
    zero = Vec2(Fraction(0), Fraction(0))
    for offset, tile in enumerate(sorted(ts.tiles)):
        lineno = header_lines + offset + 1
        if not 0 <= tile.piece < len(ts.pam.pieces):
            faults.append(TileFault(lineno, tile, f"unknown piece {tile.piece}"))
            continue
        piece = ts.pam.pieces[tile.piece]
        meta = ts.piece_meta[tile.piece]
        if len(tile.bottom) != ts.params.n or len(tile.top) != ts.params.m:
            reason = "wrong number of edge colors"
        elif tile_residual(ts.params, piece, tile) != zero:
            reason = "transport equation violated"
        elif not all(
            meta.bottom_box[0][i] <= c[i] <= meta.bottom_box[1][i]
            for c in tile.bottom
            for i in range(2)
        ):
            reason = "bottom color outside box"
        elif not all(
            meta.top_box[0][i] <= c[i] <= meta.top_box[1][i]
            for c in tile.top
            for i in range(2)
        ):
            reason = "top color outside box"
        elif not _on_grid_box(meta.ell, tile.left):
            reason = "left color off the grid box"
        elif not _on_grid_box(meta.ell, tile.right):
            reason = "right color off the grid box"
        else:
            continue
        faults.append(TileFault(lineno, tile, reason))
    return faults
