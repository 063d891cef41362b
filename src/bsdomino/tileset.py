"""Wang tiles that compute a rational piecewise affine map on BS(m,n).

A tile carries n bottom colors, m top colors (integer 2-vectors, terms of
balanced representations) and two rational error colors left/right.  For
a piece f(x) = M x + b, a scale value lam and a point x in the piece:

    bottom_k = floor((n lam + k) x)    - floor((n lam + k - 1) x)      k = 1..n
    top_k    = floor((m lam + k) f(x)) - floor((m lam + k - 1) f(x))   k = 1..m
    left     = (1/n) f(floor(n lam x))       - (1/m) floor(m lam f(x))
                                             + floor(lam - 1/2) b
    right    = (1/n) f(floor((n lam + n) x)) - (1/m) floor((m lam + m) f(x))
                                             + floor(lam + 1/2) b

Every such tile satisfies the transport equation

    (top_1 + ... + top_m)/m + right = f((bottom_1 + ... + bottom_n)/n) + left

exactly, so an infinite row of tiles moves the balanced representation of
x (bottom) to the one of f(x) (top) with the rounding error flowing
through the left/right colors.

Substituting fractional parts u = {n lam x}, v = {m lam f(x)},
w = {lam - 1/2} into the left formula cancels both lam and x:

    left = -(1/n) M u + (1/m) v + (1/n - 1/2 - w) b

with u, v in [0,1)^2 and w in [0,1), and the same expression bounds
right.  Interval arithmetic over the unit cube therefore gives finite
bounds, and every value lies on the grid (1/q) Z^2 for the common
denominator q = lcm(m, n * den(M), n * den(b)).  That is what makes the
enumerated tileset finite.

Colors and checks work in integers over one per-piece denominator
d = lcm(m, n * den(M), den(b)), which makes d/m, d M / n and d b
integers (_Transport).  Every floor above is one integer floor
division: for lam = a/c and a component p/q of x,
floor((j lam + k) p/q) = ((j a + k c) p) // (c q).  Each error color is
an integer pair over n d; with F = floor(n lam x), G = floor(m lam f(x))
and floor(lam - 1/2) = (2a - c) // (2c),

    n d left = n (d M / n) F + d b - n (d / m) G + n floor(lam - 1/2) d b,

and right likewise from floor((n lam + n) x), floor((m lam + m) f(x))
and floor(lam + 1/2) = (2a + c) // (2c).  verify_tileset checks the
transport equation multiplied through by d; only error colors off the
lattice need a larger common denominator there.  parse_tileset rejects
a file whose headers disagree with its pieces (grid box, piece count,
tile count) or whose tile lines are not strictly sorted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import EnumerationTooLarge, OutsidePiece, ParseError
from .group import BsParams
from .balrep import differences, scaled_floors
from .pam import AffinePiece, PiecewiseAffineMap, UnitSquare
from .rationals import (
    IntVec2,
    Vec2,
    as_rat,
    fmt_rat,
    lcm_all,
    mat2,
    vec2,
)

DEFAULT_CANDIDATE_CAP = 5_000_000
CAP_ENV_VAR = "BSDOMINO_MAX_TILES"


class Tile(NamedTuple):
    piece: int
    bottom: tuple[IntVec2, ...]  # n colors
    top: tuple[IntVec2, ...]     # m colors
    left: Vec2
    right: Vec2


def _tile_order(tile: Tile):
    """The canonical order of tile lines: the order of the tiles themselves,
    flattened so that comparing skips Vec2's Python-level comparisons."""
    left, right = tile.left, tile.right
    return (tile.piece, tile.bottom, tile.top, left.x1, left.x2, right.x1, right.x2)


def _avg(colors: tuple[IntVec2, ...]) -> Vec2:
    count = len(colors)
    return Vec2(
        Fraction(sum(c[0] for c in colors), count),
        Fraction(sum(c[1] for c in colors), count),
    )


def edge_colors(
    params: BsParams, piece: AffinePiece, lam, x: Vec2, piece_index: int = 0
) -> Tile:
    """Tile of the given piece at scale value lam and point x.

    Every floor is an integer floor division and each error color a pair
    of integer numerators over n d (module docstring); the tile equals
    the one the Fraction formulas give, color for color.
    """
    lam = as_rat(lam)
    return RowColors(params, piece, x, piece_index).tile(lam.numerator, lam.denominator)


class RowColors:
    """The tiles of one piece at one point x, for any scale value.

    All tiles of a row share the piece and x and differ only in lam, so
    the piece's _Transport and f(x) are built once, here; tile(a, c) is
    the color kernel.
    """

    def __init__(
        self, params: BsParams, piece: AffinePiece, x: Vec2, piece_index: int = 0
    ):
        if not piece.square.contains_closed(x):
            raise OutsidePiece(f"{x} is not in square {piece.square}")
        self.params = params
        self.piece_index = piece_index
        self.x = x
        self.fx = piece.apply(x)
        self.eq = _transport(params, piece)

    def tile(self, a: int, c: int) -> Tile:
        """Tile at lam = a/c, c > 0, not necessarily in lowest terms.

        The bottom and top colors are differences of the floors
        floor((n lam + j) x), j = 0..n, and floor((m lam + j) f(x)),
        j = 0..m; the error colors are integer numerators over n d, as in
        the module docstring.
        """
        m, n = self.params.m, self.params.n
        floors_x = scaled_floors(self.x, n * a, c, 0, n)
        floors_f = scaled_floors(self.fx, m * a, c, 0, m)
        k11, k12, k21, k22 = self.eq.matrix
        o1, o2 = self.eq.offset
        nw = n * self.eq.top_weight
        den = n * self.eq.d

        def error(floor_x: IntVec2, floor_f: IntVec2, w: int) -> Vec2:
            f1, f2 = floor_x
            g1, g2 = floor_f
            scale = 1 + n * w
            return Vec2(
                Fraction(n * (k11 * f1 + k12 * f2) + scale * o1 - nw * g1, den),
                Fraction(n * (k21 * f1 + k22 * f2) + scale * o2 - nw * g2, den),
            )

        return Tile(
            self.piece_index,
            differences(floors_x),
            differences(floors_f),
            error(floors_x[0], floors_f[0], (2 * a - c) // (2 * c)),
            error(floors_x[n], floors_f[m], (2 * a + c) // (2 * c)),
        )


def tile_residual(params: BsParams, piece: AffinePiece, tile: Tile) -> Vec2:
    """Left-hand side minus right-hand side of the transport equation."""
    lhs = _avg(tile.top) + tile.right
    rhs = piece.apply(_avg(tile.bottom)) + tile.left
    return lhs - rhs


class _Transport(NamedTuple):
    """The transport equation of one piece multiplied through by d:

        d (right - left) = (d M / n) sum(bottom) + d b - (d / m) sum(top)

    with d = lcm(m, n * den(M), den(b)), so every coefficient is an
    integer.  It depends on m, n, M and b only, never on a file header.
    """

    d: int
    top_weight: int                         # d / m
    matrix: tuple[int, int, int, int]       # d M / n, row-major
    offset: IntVec2                         # d b


def _transport(params: BsParams, piece: AffinePiece) -> _Transport:
    m, n = params.m, params.n
    b = piece.offset
    entries = piece.matrix.entries()
    den_m = lcm_all(e.denominator for e in entries)
    d = lcm_all([m, n * den_m, b.x1.denominator, b.x2.denominator])
    scale = Fraction(d, n)
    k11, k12, k21, k22 = ((e * scale).numerator for e in entries)
    return _Transport(
        d, d // m, (k11, k12, k21, k22), ((b.x1 * d).numerator, (b.x2 * d).numerator)
    )


def _transport_holds(eq: _Transport, tile: Tile) -> bool:
    """Exact transport check in integers, for any rational error colors.

    Both sides are scaled by big = lcm(d, the four error-color
    denominators); s = big / d is 1 when the colors lie on (1/d) Z^2.
    """
    bx = by = tx = ty = 0
    for c1, c2 in tile.bottom:
        bx += c1
        by += c2
    for c1, c2 in tile.top:
        tx += c1
        ty += c2
    k11, k12, k21, k22 = eq.matrix
    w = eq.top_weight
    r1 = k11 * bx + k12 * by + eq.offset[0] - w * tx
    r2 = k21 * bx + k22 * by + eq.offset[1] - w * ty
    left, right = tile.left, tile.right
    ln1, ld1 = left.x1.numerator, left.x1.denominator
    ln2, ld2 = left.x2.numerator, left.x2.denominator
    rn1, rd1 = right.x1.numerator, right.x1.denominator
    rn2, rd2 = right.x2.numerator, right.x2.denominator
    big = math.lcm(eq.d, ld1, ld2, rd1, rd2)
    s = big // eq.d
    return (
        rn1 * (big // rd1) - ln1 * (big // ld1) == s * r1
        and rn2 * (big // rd2) - ln2 * (big // ld2) == s * r2
    )


def verify_tile_computes(params: BsParams, piece: AffinePiece, tile: Tile) -> bool:
    """True when the tile has n bottom and m top colors and satisfies the
    transport equation of the piece exactly."""
    return (
        len(tile.bottom) == params.n
        and len(tile.top) == params.m
        and _transport_holds(_transport(params, piece), tile)
    )


# ---------------------------------------------------------------------------
# finiteness: label boxes, error-color bounds, enumeration

@dataclass(frozen=True)
class EllBounds:
    """All realizable left/right colors lie in [p1/q, p2/q] on the 1/q grid."""

    p1: IntVec2
    p2: IntVec2
    q: int

    def holds_for(self, v: Vec2) -> bool:
        q = self.q
        d1, d2 = v.x1.denominator, v.x2.denominator
        return (
            q % d1 == 0
            and q % d2 == 0
            and self.p1[0] <= v.x1.numerator * (q // d1) <= self.p2[0]
            and self.p1[1] <= v.x2.numerator * (q // d2) <= self.p2[1]
        )


def _interval_mul(c: Fraction, lo: Fraction, hi: Fraction):
    return (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)


def ell_bounds(params: BsParams, piece: AffinePiece) -> EllBounds:
    """Grid box bounding every left (and right) color of the piece.

    Works on the fractional-part form of the error color, interval over
    u, v in [0,1]^2 and w in [0,1]; the same box is valid for right
    colors because shifting lam by 1 turns left into right.
    """
    m, n = params.m, params.n
    matrix, b = piece.matrix, piece.offset
    dens = [e.denominator for e in matrix.entries()]
    db = [piece.offset.x1.denominator, piece.offset.x2.denominator]
    q = lcm_all([m, n * lcm_all(dens), n * lcm_all(db)])

    one = Fraction(1)
    p1 = []
    p2 = []
    for comp in range(2):
        row = matrix.row(comp)
        b_c = b.x1 if comp == 0 else b.x2
        # -(1/n) (M u)_c over u in [0,1]^2
        lo = hi = Fraction(0)
        for entry in row:
            t_lo, t_hi = _interval_mul(-Fraction(1, n) * entry, Fraction(0), one)
            lo, hi = lo + t_lo, hi + t_hi
        # + (1/m) v_c over v_c in [0,1]
        hi += Fraction(1, m)
        # + (1/n - 1/2 - w) b_c over w in [0,1]
        c_lo = Fraction(1, n) - Fraction(3, 2)
        c_hi = Fraction(1, n) - Fraction(1, 2)
        t_lo, t_hi = _interval_mul(b_c, c_lo, c_hi)
        lo, hi = lo + t_lo, hi + t_hi
        p1.append(math.ceil(lo * q))
        p2.append(math.floor(hi * q))
    return EllBounds((p1[0], p1[1]), (p2[0], p2[1]), q)


def bottom_label_box(piece: AffinePiece) -> tuple[IntVec2, IntVec2]:
    """Inclusive per-component ranges of bottom colors over the square."""
    sq = piece.square
    return ((sq.c1, sq.c2), (sq.c1 + 1, sq.c2 + 1))


def _label_range(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    # terms of balanced representations of v in [lo, hi]: floor(lo) up to
    # floor(hi)+1, except that an integer hi is attained exactly
    top = hi.numerator // hi.denominator if hi.denominator == 1 else math.floor(hi) + 1
    return (math.floor(lo), top)


def top_label_box(piece: AffinePiece) -> tuple[IntVec2, IntVec2]:
    """Inclusive per-component ranges of top colors over the image of the square."""
    sq = piece.square
    corners = [
        Vec2(Fraction(sq.c1 + dx), Fraction(sq.c2 + dy))
        for dx in (0, 1)
        for dy in (0, 1)
    ]
    images = [piece.apply(c) for c in corners]
    lo1, hi1 = _label_range(min(v.x1 for v in images), max(v.x1 for v in images))
    lo2, hi2 = _label_range(min(v.x2 for v in images), max(v.x2 for v in images))
    return ((lo1, lo2), (hi1, hi2))


@dataclass(frozen=True)
class PieceMeta:
    index: int
    bottom_box: tuple[IntVec2, IntVec2]
    top_box: tuple[IntVec2, IntVec2]
    ell: EllBounds


@dataclass(frozen=True)
class Tileset:
    params: BsParams
    pam: PiecewiseAffineMap
    piece_meta: tuple[PieceMeta, ...]
    tiles: tuple[Tile, ...]


def _color_range(box: tuple[IntVec2, IntVec2]):
    (lo1, lo2), (hi1, hi2) = box
    return [
        (v1, v2) for v1 in range(lo1, hi1 + 1) for v2 in range(lo2, hi2 + 1)
    ]


def _sequences(colors, length):
    if length == 0:
        return [()]
    shorter = _sequences(colors, length - 1)
    return [seq + (c,) for seq in shorter for c in colors]


def candidate_count(params: BsParams, f: PiecewiseAffineMap) -> int:
    total = 0
    for piece in f.pieces:
        blo, bhi = bottom_label_box(piece)
        tlo, thi = top_label_box(piece)
        eb = ell_bounds(params, piece)
        n_bottom = ((bhi[0] - blo[0] + 1) * (bhi[1] - blo[1] + 1)) ** params.n
        n_top = ((thi[0] - tlo[0] + 1) * (thi[1] - tlo[1] + 1)) ** params.m
        n_ell = (eb.p2[0] - eb.p1[0] + 1) * (eb.p2[1] - eb.p1[1] + 1)
        total += n_bottom * n_top * n_ell
    return total


def enumerate_tileset(
    params: BsParams, f: PiecewiseAffineMap, max_candidates: int | None = None
) -> Tileset:
    """All tiles with labels in the piece boxes that satisfy the transport
    equation with both error colors on the bounds grid.

    The set over-approximates the tiles realizable from actual (lam, x)
    pairs but contains every one of them, which is the direction the
    reduction needs.
    """
    if max_candidates is None:
        max_candidates = int(os.environ.get(CAP_ENV_VAR, DEFAULT_CANDIDATE_CAP))
    total = candidate_count(params, f)
    if total > max_candidates:
        raise EnumerationTooLarge(total, max_candidates)

    m, n = params.m, params.n
    metas = []
    tiles: list[Tile] = []
    frac_cache: dict[tuple[int, int], Fraction] = {}

    def grid_frac(p: int, q: int) -> Fraction:
        key = (p, q)
        if key not in frac_cache:
            frac_cache[key] = Fraction(p, q)
        return frac_cache[key]

    for index, piece in enumerate(f.pieces):
        bbox = bottom_label_box(piece)
        tbox = top_label_box(piece)
        eb = ell_bounds(params, piece)
        metas.append(PieceMeta(index, bbox, tbox, eb))
        q = eb.q

        bottoms = _sequences(_color_range(bbox), n)
        tops = _sequences(_color_range(tbox), m)
        for bottom in bottoms:
            shift = piece.apply(_avg(bottom))  # f(average of bottoms)
            for top in tops:
                base = shift - _avg(top)       # right = base + left
                bq1 = base.x1 * q
                bq2 = base.x2 * q
                if bq1.denominator != 1 or bq2.denominator != 1:
                    continue
                lo1 = max(eb.p1[0], eb.p1[0] - bq1.numerator)
                hi1 = min(eb.p2[0], eb.p2[0] - bq1.numerator)
                lo2 = max(eb.p1[1], eb.p1[1] - bq2.numerator)
                hi2 = min(eb.p2[1], eb.p2[1] - bq2.numerator)
                for e1 in range(lo1, hi1 + 1):
                    left1 = grid_frac(e1, q)
                    right1 = grid_frac(e1 + bq1.numerator, q)
                    for e2 in range(lo2, hi2 + 1):
                        left = Vec2(left1, grid_frac(e2, q))
                        right = Vec2(right1, grid_frac(e2 + bq2.numerator, q))
                        tiles.append(Tile(index, bottom, top, left, right))
    # the loops run in _tile_order and right follows from left: no sort needed
    return Tileset(params, f, tuple(metas), tuple(tiles))


# ---------------------------------------------------------------------------
# line-oriented export

def _fmt_ivec(v: IntVec2) -> str:
    return f"({v[0]},{v[1]})"


def _fmt_vec_pair(v: Vec2) -> str:
    return f"{fmt_rat(v.x1)},{fmt_rat(v.x2)}"


def tile_to_line(tile: Tile) -> str:
    bottom = " ".join(_fmt_ivec(c) for c in tile.bottom)
    top = " ".join(_fmt_ivec(c) for c in tile.top)
    return (
        f"{tile.piece} | bottom: {bottom} | top: {top}"
        f" | l: {_fmt_vec_pair(tile.left)} | r: {_fmt_vec_pair(tile.right)}"
    )


def export_tileset(ts: Tileset) -> str:
    lines = ["# bsdomino tileset v1"]
    lines.append(
        f"# m={ts.params.m} n={ts.params.n} pieces={len(ts.pam.pieces)}"
        f" tiles={len(ts.tiles)}"
    )
    for meta, piece in zip(ts.piece_meta, ts.pam.pieces):
        mx = piece.matrix
        lines.append(
            f"# piece {meta.index}"
            f" square=({piece.square.c1},{piece.square.c2})"
            f" M=({fmt_rat(mx.a11)},{fmt_rat(mx.a12)};{fmt_rat(mx.a21)},{fmt_rat(mx.a22)})"
            f" b=({fmt_rat(piece.offset.x1)},{fmt_rat(piece.offset.x2)})"
            f" q={meta.ell.q}"
            f" p1=({meta.ell.p1[0]},{meta.ell.p1[1]})"
            f" p2=({meta.ell.p2[0]},{meta.ell.p2[1]})"
        )
    for tile in sorted(ts.tiles, key=_tile_order):
        lines.append(tile_to_line(tile))
    return "\n".join(lines) + "\n"


def _parse_ivec(text: str) -> IntVec2:
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad integer vector {text!r}")
    a, b = text[1:-1].split(",")
    return (int(a), int(b))


def _parse_vec_pair(text: str) -> Vec2:
    a, b = text.split(",")
    return vec2(a, b)


def _parse_colors(text: str) -> tuple[IntVec2, ...]:
    return tuple(_parse_ivec(tok) for tok in text.split())


def _header_fields(line: str) -> dict[str, str]:
    fields = {}
    for token in line.split()[1:]:
        if "=" in token:
            key, value = token.split("=", 1)
            fields[key] = value
    return fields


def _interned(memo: dict, part: str, label: str, parse):
    """parse(part without its label), computed once per distinct part.

    The labels are prefix-free and checked on every call, so a memo hit
    always comes from a part with the same label.
    """
    if not part.startswith(label):
        raise ValueError(f"expected {label!r} in {part!r}")
    value = memo.get(part)
    if value is None:
        value = memo[part] = parse(part[len(label):])
    return value


def _parse_piece(
    params: BsParams, fields: dict[str, str]
) -> tuple[AffinePiece, EllBounds]:
    """The piece of a header line, after checking its grid box against it."""
    square = _parse_ivec(fields["square"])
    rows = fields["M"][1:-1].split(";")
    piece = AffinePiece(
        UnitSquare(*square),
        mat2([r.split(",") for r in rows]),
        _parse_vec_pair(fields["b"][1:-1]),
    )
    ell = ell_bounds(params, piece)
    declared = EllBounds(
        _parse_ivec(fields["p1"]), _parse_ivec(fields["p2"]), int(fields["q"])
    )
    if declared != ell:
        raise ParseError(
            f"header has q={declared.q} p1={_fmt_ivec(declared.p1)}"
            f" p2={_fmt_ivec(declared.p2)}, the piece gives q={ell.q}"
            f" p1={_fmt_ivec(ell.p1)} p2={_fmt_ivec(ell.p2)}"
        )
    return piece, ell


def parse_tileset(text: str) -> Tileset:
    """Read an exported tileset, rejecting malformed lines, tile lines out
    of canonical order or repeated, and any header that disagrees with its
    pieces: a grid box other than ell_bounds gives, or a pieces=/tiles=
    count other than the lines that follow."""
    params = None
    counts = None  # (line number, declared pieces, declared tiles)
    pieces: list[AffinePiece] = []
    metas: list[PieceMeta] = []
    tiles: list[Tile] = []
    last_key = None  # _tile_order of the previous tile line
    memo: dict[str, object] = {}  # tile line part -> its parsed value
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                fields = _header_fields(line)
                if "m" in fields and "n" in fields:
                    params = BsParams(int(fields["m"]), int(fields["n"]))
                    counts = (lineno, int(fields["pieces"]), int(fields["tiles"]))
                if line.startswith("# piece "):
                    idx = int(line.split()[2])
                    if idx != len(pieces):
                        raise ParseError(f"piece {idx} out of order")
                    if params is None:
                        raise ParseError("piece header before m/n header")
                    piece, ell = _parse_piece(params, fields)
                    pieces.append(piece)
                    metas.append(
                        PieceMeta(
                            idx, bottom_label_box(piece), top_label_box(piece), ell
                        )
                    )
                continue
            head, bottom_part, top_part, l_part, r_part = line.split(" | ")
            tile = Tile(
                int(head),
                _interned(memo, bottom_part, "bottom: ", _parse_colors),
                _interned(memo, top_part, "top: ", _parse_colors),
                _interned(memo, l_part, "l: ", _parse_vec_pair),
                _interned(memo, r_part, "r: ", _parse_vec_pair),
            )
            key = _tile_order(tile)
            if tiles and key <= last_key:
                raise ParseError("tile line out of order or repeated")
            tiles.append(tile)
            last_key = key
        except (ValueError, KeyError, IndexError, ParseError) as exc:
            raise ParseError(f"tileset line {lineno}: {exc}") from None
    if params is None or not pieces:
        raise ParseError("tileset file lacks m/n or piece headers")
    lineno, n_pieces, n_tiles = counts
    if (n_pieces, n_tiles) != (len(pieces), len(tiles)):
        raise ParseError(
            f"tileset line {lineno}: header says pieces={n_pieces} tiles={n_tiles},"
            f" the file has {len(pieces)} pieces and {len(tiles)} tiles"
        )
    return Tileset(
        params, PiecewiseAffineMap(tuple(pieces)), tuple(metas), tuple(tiles)
    )


@dataclass(frozen=True)
class TileFault:
    line: int
    tile: Tile
    reason: str


def _in_box(colors: tuple[IntVec2, ...], box: tuple[IntVec2, IntVec2]) -> bool:
    (lo1, lo2), (hi1, hi2) = box
    for c1, c2 in colors:
        if not (lo1 <= c1 <= hi1 and lo2 <= c2 <= hi2):
            return False
    return True


def verify_tileset(ts: Tileset) -> list[TileFault]:
    """Recheck every tile: transport equation, label boxes, grid boxes.

    The transport equation is checked in integers over each piece's
    denominator d (see _Transport), exactly for any rational colors.
    Line numbers refer to the canonical export layout (header lines
    first, tiles in sorted order).
    """
    faults = []
    m, n = ts.params.m, ts.params.n
    equations = [_transport(ts.params, piece) for piece in ts.pam.pieces]
    header_lines = 2 + len(ts.pam.pieces)
    for offset, tile in enumerate(sorted(ts.tiles, key=_tile_order)):
        lineno = header_lines + offset + 1
        if not 0 <= tile.piece < len(equations):
            faults.append(TileFault(lineno, tile, f"unknown piece {tile.piece}"))
            continue
        meta = ts.piece_meta[tile.piece]
        if len(tile.bottom) != n or len(tile.top) != m:
            faults.append(TileFault(lineno, tile, "wrong number of edge colors"))
            continue
        if not _transport_holds(equations[tile.piece], tile):
            faults.append(TileFault(lineno, tile, "transport equation violated"))
            continue
        if not _in_box(tile.bottom, meta.bottom_box):
            faults.append(TileFault(lineno, tile, "bottom color outside box"))
            continue
        if not _in_box(tile.top, meta.top_box):
            faults.append(TileFault(lineno, tile, "top color outside box"))
            continue
        if not meta.ell.holds_for(tile.left):
            faults.append(TileFault(lineno, tile, "left color off the grid box"))
            continue
        if not meta.ell.holds_for(tile.right):
            faults.append(TileFault(lineno, tile, "right color off the grid box"))
    return faults
