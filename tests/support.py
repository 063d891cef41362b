"""Shared generators for the randomized checks, and the proof-step
helpers the tests check exactly."""

import math
from collections import deque
from fractions import Fraction
from functools import cache, lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import product
from random import Random

from hypothesis import strategies as st

from bsdomino.errors import ParseError
from bsdomino.group import (
    ALPHABET,
    IDENTITY_ELEMENT,
    BsParams,
    GroupElement,
    _runs,
    alpha,
    beta,
    multiply,
)
from bsdomino.pam import (
    AffinePiece,
    AliveUpTo,
    CycleDetected,
    EscapedAfter,
    OrbitReport,
    PiecewiseAffineMap,
    UnitSquare,
    locate_piece,
)
from bsdomino.rationals import IDENTITY2, IntVec2, Mat2, Vec2, as_rat
from bsdomino.tileset import (
    EllBounds,
    PieceMeta,
    Tile,
    TileFault,
    Tileset,
    _color_range,
    _fmt_ivec,
    _fmt_over,
    _parse_colors,
    _parse_error,
    _Transport,
    _unlabel,
    color_denominator,
    edge_colors,
)
from bsdomino.tiling import (
    BudgetExceeded,
    ExhaustedNoTiling,
    Found,
    Patch,
    SearchResult,
    TilingAssignment,
    build_patch,
    constraints_for,
)


# (m, n) over [1, 4]^2, so that BS(1, n), BS(m, 1) and pinches of both
# stable letters all occur.
ALL_PARAMS = st.builds(BsParams, st.integers(1, 4), st.integers(1, 4))


def random_word(rng: Random, max_len: int = 24) -> str:
    """A string of up to max_len letters, one per generator step."""
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def relator_variants(params: BsParams) -> list[str]:
    base = "T" + "a" * params.m + "t" + "A" * params.n
    inv = "a" * params.n + "T" + "A" * params.m + "t"
    variants = []
    for word in (base, inv):
        for cut in range(len(word)):
            variants.append(word[cut:] + word[:cut])
    variants.extend(["aA", "Aa", "tT", "Tt"])
    return variants


def insert_relator(rng: Random, params: BsParams, word: str) -> str:
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


def reference_apply(piece: AffinePiece, x: Vec2) -> Vec2:
    """AffinePiece.apply in Fractions: M x + b by the matrix product."""
    return piece.matrix.apply(x) + piece.offset


def reference_grid_q(params: BsParams, piece: AffinePiece) -> int:
    """tileset.grid_q from the Fractions: lcm(m, n den(e)) over every
    entry e of M and b."""
    dens = [e.denominator for e in piece.matrix.entries()]
    dens += [piece.offset.x1.denominator, piece.offset.x2.denominator]
    return math.lcm(params.m, *(params.n * d for d in dens))


def reference_transport(params: BsParams, piece: AffinePiece, d: int) -> _Transport:
    """tileset._transport from the Fractions: e d / n for each entry e of
    M and e d for each of b, with d a multiple of the piece's q."""

    def times(e: Fraction, scale: int) -> int:  # e d / scale, an integer
        return e.numerator * (d // (scale * e.denominator))

    n = params.n
    matrix = tuple(times(e, n) for e in piece.matrix.entries())
    offset = (times(piece.offset.x1, 1), times(piece.offset.x2, 1))
    return _Transport(d // params.m, matrix, offset)


def _ell_bounds(params: BsParams, piece: AffinePiece) -> EllBounds:
    """Grid box bounding every left (and right) color of the piece.

    Works on the fractional-part form of the error color, interval over
    u, v in [0,1]^2 and w in [0,1]; the same box is valid for right
    colors because shifting lam by 1 turns left into right.
    """
    m, n = params.m, params.n
    q = reference_grid_q(params, piece)
    c = Fraction(1, n) - Fraction(1, 2)  # 1/n - 1/2 - w at w = 0
    p1, p2 = [], []
    for comp, b_c in enumerate((piece.offset.x1, piece.offset.x2)):
        # the two ends of each term: -(1/n) M_cj u_j, (1/m) v_c and
        # (1/n - 1/2 - w) b_c, over u_j, v_c, w in [0, 1]
        ends = [(0, -entry / n) for entry in piece.matrix.row(comp)]
        ends += [(0, Fraction(1, m)), (b_c * (c - 1), b_c * c)]
        p1.append(math.ceil(sum(min(pair) for pair in ends) * q))
        p2.append(math.floor(sum(max(pair) for pair in ends) * q))
    return EllBounds((p1[0], p1[1]), (p2[0], p2[1]), q)


def _bottom_label_box(piece: AffinePiece) -> tuple[IntVec2, IntVec2]:
    """Inclusive per-component ranges of bottom colors over the square."""
    sq = piece.square
    return ((sq.c1, sq.c2), (sq.c1 + 1, sq.c2 + 1))


def _label_range(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    # terms of balanced representations of v in [lo, hi]: floor(lo) up to
    # floor(hi)+1, except that an integer hi is attained exactly
    top = hi.numerator // hi.denominator if hi.denominator == 1 else math.floor(hi) + 1
    return (math.floor(lo), top)


def _top_label_box(piece: AffinePiece) -> tuple[IntVec2, IntVec2]:
    """Inclusive per-component ranges of top colors over the image of the square."""
    sq = piece.square
    corners = [
        Vec2(Fraction(sq.c1 + dx), Fraction(sq.c2 + dy))
        for dx in (0, 1)
        for dy in (0, 1)
    ]
    images = [reference_apply(piece, c) for c in corners]
    lo1, hi1 = _label_range(min(v.x1 for v in images), max(v.x1 for v in images))
    lo2, hi2 = _label_range(min(v.x2 for v in images), max(v.x2 for v in images))
    return ((lo1, lo2), (hi1, hi2))


def reference_piece_meta(params: BsParams, piece: AffinePiece) -> PieceMeta:
    """tileset.piece_meta in Fractions: interval sums over the unit cube
    for the grid box, and the images of the square's corners for the
    top box."""
    return PieceMeta(
        _bottom_label_box(piece), _top_label_box(piece), _ell_bounds(params, piece)
    )


def reference_orbit(f: PiecewiseAffineMap, x: Vec2, max_steps: int) -> OrbitReport:
    """pam.orbit iterating reference_apply, its states seen keyed by Vec2."""
    idx = locate_piece(f, x)
    states: list[tuple[int, Vec2]] = [(idx, x)]
    seen: dict[Vec2, int] = {x: 0}
    current = x
    for step in range(1, max_steps + 1):
        current = reference_apply(f.pieces[states[-1][0]], current)
        if current in seen:
            return OrbitReport(tuple(states), CycleDetected(seen[current], step))
        nxt = locate_piece(f, current)
        if nxt is None:
            return OrbitReport(tuple(states), EscapedAfter(step))
        states.append((nxt, current))
        seen[current] = step
    return OrbitReport(tuple(states), AliveUpTo(max_steps))


def ivec_to_vec2(v: IntVec2) -> Vec2:
    return Vec2(Fraction(v[0]), Fraction(v[1]))


def color_value(color: IntVec2, denominator: int) -> Vec2:
    """The rational pair an error color over denominator stands for."""
    return Vec2(Fraction(color[0], denominator), Fraction(color[1], denominator))


def scaled_color(v: Vec2, denominator: int) -> IntVec2:
    """The numerators of v over denominator; v must lie on (1/denominator) Z^2."""
    s1, s2 = v.x1 * denominator, v.x2 * denominator
    assert s1.denominator == s2.denominator == 1, f"{v} is off the 1/{denominator} grid"
    return (s1.numerator, s2.numerator)


def transport_rhs(eq: _Transport, bottom, top) -> IntVec2:
    """d (right - left) as the transport equation over d fixes it, in
    integers: (d M / n) sum(bottom) + d b - (d / m) sum(top)."""
    bx, by = sum(c[0] for c in bottom), sum(c[1] for c in bottom)
    tx, ty = sum(c[0] for c in top), sum(c[1] for c in top)
    k11, k12, k21, k22 = eq.matrix
    w = eq.top_weight
    return (
        k11 * bx + k12 * by + eq.offset[0] - w * tx,
        k21 * bx + k22 * by + eq.offset[1] - w * ty,
    )


def _avg(colors: tuple[IntVec2, ...]) -> Vec2:
    count = len(colors)
    return Vec2(
        Fraction(sum(c[0] for c in colors), count),
        Fraction(sum(c[1] for c in colors), count),
    )


def tile_residual(
    params: BsParams, piece: AffinePiece, tile: Tile, denominator: int | None = None
) -> Vec2:
    """Left-hand side minus right-hand side of the transport equation, in
    Fractions, the error colors over denominator (by default the piece's q)."""
    if denominator is None:
        denominator = reference_grid_q(params, piece)
    _, bottom, top, left, right = tile
    lhs = _avg(top) + color_value(right, denominator)
    rhs = reference_apply(piece, _avg(bottom)) + color_value(left, denominator)
    return lhs - rhs


def verify_tile_computes(
    params: BsParams, piece: AffinePiece, tile: Tile, denominator: int | None = None
) -> bool:
    """True when the tile has n bottom and m top colors and satisfies the
    transport equation of the piece exactly."""
    zero = Vec2(Fraction(0), Fraction(0))
    _, bottom, top, _, _ = tile
    return (
        len(bottom) == params.n
        and len(top) == params.m
        and tile_residual(params, piece, tile, denominator) == zero
    )


def on_grid_box(ell: EllBounds, v: Vec2) -> bool:
    """v is a multiple of 1/q inside [p1/q, p2/q]."""
    scaled = (v.x1 * ell.q, v.x2 * ell.q)
    if any(c.denominator != 1 for c in scaled):
        return False
    return all(ell.p1[i] <= scaled[i] <= ell.p2[i] for i in range(2))


def holds_for(ell: EllBounds, color: IntVec2, step: int = 1) -> bool:
    """color, as numerators over step * q, lies on the grid and in the box."""
    c1, c2 = color
    return (
        ell.p1[0] * step <= c1 <= ell.p2[0] * step
        and ell.p1[1] * step <= c2 <= ell.p2[1] * step
        and not (c1 % step or c2 % step)
    )


def runs_of(tiles) -> tuple:
    """The tiles as runs, in the order given: each stretch of consecutive
    tiles that share (piece, bottom, top) is one run."""
    runs = []
    for piece, bottom, top, left, right in tiles:
        if runs and runs[-1][:3] == (piece, bottom, top):
            runs[-1][3].append(left)
            runs[-1][4].append(right)
        else:
            runs.append((piece, bottom, top, [left], [right]))
    return tuple(runs)


def reference_enumerate(params: BsParams, f: PiecewiseAffineMap) -> tuple[Tile, ...]:
    """The tiles enumerate_tileset gives, built one at a time: for every
    bottom and top in the piece's label boxes, every left on its grid box
    whose right = left + the transport right side is on it too."""
    m, n = params.m, params.n
    den = color_denominator(params, f.pieces)
    tiles: list[Tile] = []
    for index, piece in enumerate(f.pieces):
        meta = reference_piece_meta(params, piece)
        eb = meta.ell
        eq = reference_transport(params, piece, eb.q)
        step = den // eb.q
        (p11, p12), (p21, p22) = eb.p1, eb.p2
        w1, w2 = p21 - p11, p22 - p12
        grid = [
            [((p11 + i) * step, (p12 + j) * step) for j in range(w2 + 1)]
            for i in range(w1 + 1)
        ]
        tops = list(product(_color_range(meta.top_box), repeat=m))
        for bottom in product(_color_range(meta.bottom_box), repeat=n):
            for top in tops:
                b1, b2 = transport_rhs(eq, bottom, top)
                for i in range(max(0, -b1), min(w1, w1 - b1) + 1):
                    lefts, rights = grid[i], grid[i + b1]
                    for j in range(max(0, -b2), min(w2, w2 - b2) + 1):
                        tiles.append((index, bottom, top, lefts[j], rights[j + b2]))
    return tuple(tiles)


def reference_export_lines(tiles, denominator: int) -> list[str]:
    """The tiles' lines, each with its newline, every line formatted on
    its own from the tile's five parts."""
    labels = cache(lambda colors: " ".join(_fmt_ivec(c) for c in colors))
    errors = cache(lambda color: ",".join(_fmt_over(p, denominator) for p in color))
    return [
        f"{piece} | bottom: {labels(bottom)} | top: {labels(top)}"
        f" | l: {errors(left)} | r: {errors(right)}\n"
        for piece, bottom, top, left, right in tiles
    ]


def reference_tile_lines(lines: list[str], start: int, denominator: int) -> list[Tile]:
    """The tiles of a file's tile lines, lines[start:], each line split
    into its five parts on its own (each distinct part parsed once), in
    strictly increasing order; a malformed line raises ParseError naming
    its line in the file."""
    bottoms = cache(lambda part: _parse_colors(_unlabel(part, "bottom: ")))
    tops = cache(lambda part: _parse_colors(_unlabel(part, "top: ")))
    lefts = cache(lambda part: _parse_error(_unlabel(part, "l: "), denominator))
    rights = cache(lambda part: _parse_error(_unlabel(part, "r: "), denominator))
    tiles: list[Tile] = []
    for i in range(start, len(lines)):
        try:
            head, bottom, top, left, right = lines[i].split(" | ")
            tile = (int(head), bottoms(bottom), tops(top), lefts(left), rights(right))
            if tiles and tile <= tiles[-1]:
                raise ParseError("tile line out of order or repeated")
        except (ValueError, ParseError) as exc:
            raise ParseError(f"tileset line {i + 1}: {exc}") from None
        tiles.append(tile)
    return tiles


def reference_verify(ts: Tileset) -> list[TileFault]:
    """verify_tileset written directly in Fractions: the exact residual
    of the transport equation and the grid box as multiples of 1/q, each
    error color taken as its value over the tileset's D."""
    faults = []
    header_lines = 2 + len(ts.pam.pieces)
    zero = Vec2(Fraction(0), Fraction(0))
    den = ts.denominator
    for offset, tile in enumerate(sorted(ts.tiles)):
        lineno = header_lines + offset + 1
        index, bottom, top, left, right = tile
        if not 0 <= index < len(ts.pam.pieces):
            faults.append(TileFault(lineno, tile, f"unknown piece {index}"))
            continue
        piece = ts.pam.pieces[index]
        meta = ts.piece_meta[index]
        if len(bottom) != ts.params.n or len(top) != ts.params.m:
            reason = "wrong number of edge colors"
        elif tile_residual(ts.params, piece, tile, den) != zero:
            reason = "transport equation violated"
        elif not all(
            meta.bottom_box[0][i] <= c[i] <= meta.bottom_box[1][i]
            for c in bottom
            for i in range(2)
        ):
            reason = "bottom color outside box"
        elif not all(
            meta.top_box[0][i] <= c[i] <= meta.top_box[1][i]
            for c in top
            for i in range(2)
        ):
            reason = "top color outside box"
        elif not on_grid_box(meta.ell, color_value(left, den)):
            reason = "left color off the grid box"
        elif not on_grid_box(meta.ell, color_value(right, den)):
            reason = "right color off the grid box"
        else:
            continue
        faults.append(TileFault(lineno, tile, reason))
    return faults


def reference_b_k(x: Vec2, z, k: int) -> tuple[int, int]:
    """balrep.b_k written directly in Fractions."""
    z = as_rat(z)
    hi = x.scale(z + k).floor()
    lo = x.scale(z + k - 1).floor()
    return (hi[0] - lo[0], hi[1] - lo[1])


def reference_edge_colors(
    params: BsParams,
    piece: AffinePiece,
    lam,
    x: Vec2,
    piece_index: int = 0,
    denominator: int | None = None,
) -> Tile:
    """tileset.edge_colors written directly in Fractions, formula by
    formula as in the tileset module docstring (no containment check),
    then each error color scaled to its numerators over denominator (by
    default the piece's q), which must be integers."""
    if denominator is None:
        denominator = reference_grid_q(params, piece)
    lam = as_rat(lam)
    m, n = params.m, params.n
    fx = reference_apply(piece, x)
    bottom = tuple(reference_b_k(x, n * lam, k) for k in range(1, n + 1))
    top = tuple(reference_b_k(fx, m * lam, k) for k in range(1, m + 1))
    left = (
        reference_apply(piece, ivec_to_vec2(x.scale(n * lam).floor())).scale(Fraction(1, n))
        - ivec_to_vec2(fx.scale(m * lam).floor()).scale(Fraction(1, m))
        + piece.offset.scale(math.floor(lam - Fraction(1, 2)))
    )
    right = (
        reference_apply(piece, ivec_to_vec2(x.scale(n * lam + n).floor())).scale(Fraction(1, n))
        - ivec_to_vec2(fx.scale(m * lam + m).floor()).scale(Fraction(1, m))
        + piece.offset.scale(math.floor(lam + Fraction(1, 2)))
    )
    return (
        piece_index,
        bottom,
        top,
        scaled_color(left, denominator),
        scaled_color(right, denominator),
    )


def reference_row_top_reading(
    params: BsParams, tiles: list[Tile], k_lo: int
) -> tuple[list[IntVec2], int, int]:
    """tiling.row_top_reading edge by edge: each top edge s from the set
    of the colors every tile covering it gives, which must be one."""
    if not tiles:
        return [], k_lo + 1, k_lo
    m = params.m
    k_hi = k_lo + len(tiles) - 1
    colors: list[IntVec2] = []
    for s in range(k_lo + 1, k_hi + m + 1):
        seen = set()
        for k in range(max(k_lo, s - m), min(k_hi, s - 1) + 1):
            seen.add(tiles[k - k_lo][2][s - k - 1])  # top colors
        if len(seen) != 1:
            raise AssertionError(f"overlapping top colors disagree at edge {s}")
        colors.append(seen.pop())
    return colors, k_lo + 1, k_hi + m


def reference_row_bottom_reading(
    params: BsParams, tiles: list[Tile], k_lo: int, phase: int
) -> tuple[list[IntVec2], Fraction, int, int]:
    """tiling.row_bottom_reading by filtering: every k of the row at
    k = phase (mod m), as s with k = phase + s m, each tile's bottoms
    at s n + 1 .. s n + n."""
    m, n = params.m, params.n
    k_hi = k_lo + len(tiles) - 1
    z_shift = Fraction(n * phase, m)
    s_values = [
        (k - phase) // m for k in range(k_lo, k_hi + 1) if (k - phase) % m == 0
    ]
    if not s_values:
        return [], z_shift, 1, 0
    colors: list[IntVec2] = []
    for s in s_values:
        k = phase + s * m
        colors.extend(tiles[k - k_lo][1])  # bottom colors
    return colors, z_shift, s_values[0] * n + 1, s_values[-1] * n + n


def compose_alpha_check(params: BsParams, u, v) -> bool:
    """alpha(u v) == alpha(u) + (m/n)^(-beta(u)) alpha(v), exactly, for
    words u and v in text."""
    lhs = alpha(params, f"{u} {v}")
    ratio = Fraction(params.m, params.n)
    rhs = alpha(params, u) + ratio ** (-beta(u)) * alpha(params, v)
    return lhs == rhs


def floor_half_identity_check(z) -> bool:
    """floor(z + 1/2) - floor(z - 1/2) == 1; holds for every rational z."""
    z = as_rat(z)
    half = Fraction(1, 2)
    return math.floor(z + half) - math.floor(z - half) == 1


def affine_scaled_difference_check(piece: AffinePiece, c, y: Vec2, z: Vec2) -> bool:
    """f(c y - c z) == c f(y) - c f(z) + b, the lemma behind the residual chain."""
    c = as_rat(c)
    f = partial(reference_apply, piece)
    lhs = f(y.scale(c) - z.scale(c))
    rhs = f(y).scale(c) - f(z).scale(c) + piece.offset
    return lhs == rhs


def residual_stages(params: BsParams, piece: AffinePiece, lam, x: Vec2):
    """The transport residual and its successive simplifications.

    Stage 0 evaluates the tile equation directly; stages 1-3 are the
    telescoped, cancelled, and affine-expanded forms; stage 4 is
    floor(lam + 1/2) b - b - floor(lam - 1/2) b.  All five agree exactly
    and vanish, which is the regression this function exists for.
    """
    lam = as_rat(lam)
    m, n = params.m, params.n
    half = Fraction(1, 2)
    f = partial(reference_apply, piece)
    fx = f(x)
    b = piece.offset

    lo_x = ivec_to_vec2(x.scale(n * lam).floor())          # floor(n lam x)
    hi_x = ivec_to_vec2(x.scale(n * lam + n).floor())      # floor((n lam + n) x)
    lo_f = ivec_to_vec2(fx.scale(m * lam).floor())         # floor(m lam f(x))
    hi_f = ivec_to_vec2(fx.scale(m * lam + m).floor())     # floor((m lam + m) f(x))
    wl = math.floor(lam - half)
    wr = math.floor(lam + half)

    tile = edge_colors(params, piece, lam, x)
    s0 = tile_residual(params, piece, tile)

    s1 = (
        hi_f.scale(Fraction(1, m))
        - lo_f.scale(Fraction(1, m))
        + f(hi_x).scale(Fraction(1, n))
        - hi_f.scale(Fraction(1, m))
        + b.scale(wr)
        - f(hi_x.scale(Fraction(1, n)) - lo_x.scale(Fraction(1, n)))
        - f(lo_x).scale(Fraction(1, n))
        + lo_f.scale(Fraction(1, m))
        - b.scale(wl)
    )

    s2 = (
        f(hi_x).scale(Fraction(1, n))
        + b.scale(wr)
        - f(hi_x.scale(Fraction(1, n)) - lo_x.scale(Fraction(1, n)))
        - f(lo_x).scale(Fraction(1, n))
        - b.scale(wl)
    )

    s3 = (
        f(hi_x).scale(Fraction(1, n))
        + b.scale(wr)
        - f(hi_x).scale(Fraction(1, n))
        + f(lo_x).scale(Fraction(1, n))
        - b
        - f(lo_x).scale(Fraction(1, n))
        - b.scale(wl)
    )

    s4 = b.scale(wr) - b - b.scale(wl)
    return (s0, s1, s2, s3, s4)


def reference_phi(params: BsParams, w) -> tuple[Fraction, int]:
    """(alpha(w), beta(w)) by their definition, in one Fraction walk:
    each a-run adds its exponent times (m/n)^(-beta(prefix))."""
    ratio = Fraction(params.m, params.n)
    power = Fraction(1)  # (m/n) ** (-beta(prefix))
    a_val = Fraction(0)
    b_val = 0
    for kind, value in _runs(w):
        if kind == "a":
            a_val += value * power
        else:
            b_val -= value
            power = power * ratio if value > 0 else power / ratio
    return a_val, b_val


def reference_lambda(params: BsParams, w) -> Fraction:
    """lambda_val from the phi formula, (1/m) (n/m)^(-beta) alpha."""
    a_val, b_val = reference_phi(params, w)
    return Fraction(1, params.m) * Fraction(params.n, params.m) ** (-b_val) * a_val


def is_britton_reduced(params: BsParams, exps, stables) -> bool:
    """(exps, stables) is a canonical form: each exponent before a t is
    in [0, m), each before a t^-1 in [0, n), and no t^-1 a^0 t or
    t a^0 t^-1 is left to pinch."""
    if len(exps) != len(stables) + 1:
        return False
    for i, sign in enumerate(stables):
        if not 0 <= exps[i] < (params.m if sign > 0 else params.n):
            return False
        if i and exps[i] == 0 and stables[i - 1] == -sign:
            return False
    return True


def reference_ball(params: BsParams, radius: int) -> Patch:
    """build_ball_patch as a breadth-first search of multiply steps."""
    seen = {IDENTITY_ELEMENT}
    frontier = [IDENTITY_ELEMENT]
    for _ in range(radius):
        new_frontier = []
        for g in frontier:
            for gen in ALPHABET:
                h = multiply(params, g, gen)
                if h not in seen:
                    seen.add(h)
                    new_frontier.append(h)
        frontier = new_frontier
    return build_patch(params, (g for g in seen if g.length() <= radius))


def reference_constraints(params: BsParams, patch: Patch) -> tuple[tuple, ...]:
    """constraints_for with every neighbor multiplied out from a word, each
    constraint as (kind, cell a, cell b, top_pos, bottom_pos) on elements."""
    m, n = params.m, params.n
    out = []
    for g in patch.cells:
        h = multiply(params, g, "a" * m)
        if h in patch:
            out.append(("H", g, h, 0, 0))
        h = multiply(params, g, "a")
        if h in patch:
            out.append(("I", g, h, 0, 0))
        for j in range(1, m + 1):
            for k in range(n):
                shift = j - 1 - k
                word = ("a" if shift > 0 else "A") * abs(shift) + "T"
                upper = multiply(params, g, word)
                if upper in patch:
                    out.append(("V", g, upper, j, k + 1))
    return tuple(out)


def constraint_satisfied(con, tile_a: Tile, tile_b: Tile) -> bool:
    """Whether two tiles keep one constraint; a tile is
    (piece, bottom, top, left, right)."""
    if con.kind == "H":
        return tile_a[4] == tile_b[3]
    if con.kind == "V":
        return tile_a[2][con.top_pos - 1] == tile_b[1][con.bottom_pos - 1]
    return tile_a[0] == tile_b[0]


def reference_violations(constraints, tiles) -> list:
    """check_assignment's answer from a constraint list: the constraints
    that tiles, indexed by cell position, violate, in list order."""
    return [
        con for con in constraints
        if not constraint_satisfied(con, tiles[con.a], tiles[con.b])
    ]


def constraints_on_cells(patch: Patch, constraints) -> tuple[tuple, ...]:
    """Positional constraints mapped back through patch.cells, in the
    form reference_constraints gives."""
    cells = patch.cells
    return tuple(
        (con.kind, cells[con.a], cells[con.b], con.top_pos, con.bottom_pos)
        for con in constraints
    )


def reference_text(g: GroupElement) -> str:
    """GroupElement.to_text by way of letters: g spelled out one letter
    per generator, then printed as runs of equal letters."""
    word = []
    for kind, value in g.runs():
        word.extend((kind if value > 0 else kind.upper()) * abs(value))
    if not word:
        return "e"
    parts: list[str] = []
    idx = 0
    while idx < len(word):
        letter = word[idx]
        run = 1
        while idx + run < len(word) and word[idx + run] == letter:
            run += 1
        parts.append(letter if run == 1 else f"{letter}{run}")
        idx += run
    return " ".join(parts)


# two pieces on BS(2,3) with different grids: q = 6 for the identity on
# (0,0), q = 12 for (1/4) x on (1,0); D = 12
MIXED_Q_MAP = PiecewiseAffineMap(
    (
        AffinePiece(UnitSquare(0, 0), IDENTITY2, Vec2(Fraction(0), Fraction(0))),
        AffinePiece(
            UnitSquare(1, 0),
            Mat2(Fraction(1, 4), Fraction(0), Fraction(0), Fraction(1, 4)),
            Vec2(Fraction(0), Fraction(0)),
        ),
    )
)


def reference_edge_masks(params: BsParams, tiles: tuple[Tile, ...]):
    """(left, right, piece, top, bottom) edge masks, tile by tile: bit i
    of a key's mask is set when tile i carries that key."""
    groups = [{} for _ in range(3 + params.m + params.n)]
    nbytes = (len(tiles) + 7) // 8
    for i, tile in enumerate(tiles):
        byte, bit = i >> 3, 1 << (i & 7)
        piece, bottom, top, left, right = tile
        keys = (left, right, piece, *top, *bottom)
        for by_key, key in zip(groups, keys):
            buf = by_key.get(key)
            if buf is None:
                buf = by_key[key] = bytearray(nbytes)
            buf[byte] |= bit
    groups = [
        {key: int.from_bytes(buf, "little") for key, buf in by_key.items()}
        for by_key in groups
    ]
    left, right, piece = groups[:3]
    return left, right, piece, groups[3 : 3 + params.m], groups[3 + params.m :]


# reference_edge_masks of a tileset's tiles view, which hashes by identity:
# the cache holds each view it keys, so no other view can take its id
tileset_reference_masks = lru_cache(maxsize=8)(reference_edge_masks)


def reference_search(
    tileset: Tileset, patch: Patch, budget: int = 1_000_000
) -> SearchResult:
    """search_patch with every arc revision run as the plain pairs loop:
    no one-tile lookup and no table of supports, each size counted and
    pushed on the heap at every narrow and undo, the edge masks built
    tile by tile (reference_edge_masks), not by _edge_masks, and the arcs
    taken from the constraint list, cell by cell.  The same node order,
    budget count and re-check, so results must be equal, node counts and
    assignments included."""
    params = tileset.params
    cells = patch.cells
    if not cells:
        return Found(TilingAssignment(()), 0)
    tiles = tileset.tiles
    if not tiles:
        return ExhaustedNoTiling(0)

    constraints = constraints_for(params, patch)

    # a V constraint top_j = bottom_k that no two tiles meet refutes the
    # patch outright; the runs carry each tile's labels
    for j, k in {(con.top_pos, con.bottom_pos) for con in constraints if con.kind == "V"}:
        tops = {top[j - 1] for _, _, top, _, _ in tileset.runs}
        bottoms = {bottom[k - 1] for _, bottom, _, _, _ in tileset.runs}
        if not tops & bottoms:
            return ExhaustedNoTiling(0)

    left, right, piece, top, bottom = tileset_reference_masks(params, tileset.tiles)
    # arcs[y]: (x, pairs) for every cell x to revise when domain[y] narrows
    arcs: list[list[tuple[int, tuple]]] = [[] for _ in cells]
    relations: dict[tuple, tuple] = {}
    for con in constraints:
        kind = (con.kind, con.top_pos, con.bottom_pos)
        if kind not in relations:
            # the masks of the colors con compares, on cell a and on cell b
            if con.kind == "H":
                a_side, b_side = right, left
            elif con.kind == "V":
                a_side, b_side = top[con.top_pos - 1], bottom[con.bottom_pos - 1]
            else:
                a_side = b_side = piece
            # (a mask, b mask) for every key both sides share
            shared = {key: (a_side[key], b_side[key]) for key in a_side if key in b_side}
            relations[kind] = (
                tuple(shared.values()),
                tuple((b_mask, a_mask) for a_mask, b_mask in shared.values()),
            )
        to_a, to_b = relations[kind]
        arcs[con.b].append((con.a, to_a))
        arcs[con.a].append((con.b, to_b))

    ncells = len(cells)
    domain = [(1 << len(tiles)) - 1] * ncells
    size = [len(tiles)] * ncells
    assigned = [False] * ncells
    trail: list[tuple[int, int, int]] = []  # (cell, old domain, old size)
    # (size, cell) entries, stale once the cell is assigned or resized;
    # every unassigned cell always has a current entry
    heap = [(len(tiles), i) for i in range(ncells)]

    def narrow(x: int, dom: int) -> None:
        trail.append((x, domain[x], size[x]))
        domain[x] = dom
        size[x] = dom.bit_count()
        heappush(heap, (size[x], x))

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x, dom, count = trail.pop()
            domain[x] = dom
            size[x] = count
            heappush(heap, (count, x))

    def propagate(start: int) -> bool:
        """AC-3 from a newly assigned cell; False on an emptied domain.
        Assigned cells are skipped: their neighbors were revised
        against them when they were assigned."""
        queue = deque([start])
        queued = {start}
        while queue:
            y = queue.popleft()
            queued.discard(y)
            dom_y = domain[y]
            for x, pairs in arcs[y]:
                if assigned[x]:
                    continue
                support = 0
                for x_mask, y_mask in pairs:
                    if y_mask & dom_y:
                        support |= x_mask
                dom_x = domain[x]
                revised = dom_x & support
                if revised != dom_x:
                    if not revised:
                        return False
                    narrow(x, revised)
                    if x not in queued:
                        queued.add(x)
                        queue.append(x)
        return True

    def pick() -> int:
        nonlocal heap
        if len(heap) > 4 * ncells:  # drop stale entries, amortized O(1)
            heap = [(size[x], x) for x in range(ncells) if not assigned[x]]
            heapify(heap)
        while True:
            count, x = heappop(heap)
            if count == size[x] and not assigned[x]:
                return x

    nodes = 0
    first = pick()
    frames = [[first, domain[first], 0]]  # [cell, untried tiles, trail mark]
    while frames:
        frame = frames[-1]
        cell, untried, mark = frame
        if not untried:
            frames.pop()
            heappush(heap, (size[cell], cell))
            if frames:
                parent, _, parent_mark = frames[-1]
                undo(parent_mark)
                assigned[parent] = False
            continue
        tile_bit = untried & -untried
        frame[1] = untried ^ tile_bit
        nodes += 1
        if nodes > budget:
            return BudgetExceeded(nodes)
        assigned[cell] = True
        if domain[cell] != tile_bit:
            narrow(cell, tile_bit)
        if not propagate(cell):
            undo(mark)
            assigned[cell] = False
            continue
        if len(frames) == ncells:
            chosen = [tiles[dom.bit_length() - 1] for dom in domain]
            if reference_violations(constraints, chosen):
                raise AssertionError("search produced an invalid assignment")
            return Found(TilingAssignment(tuple(zip(cells, chosen))), nodes)
        nxt = pick()
        frames.append([nxt, domain[nxt], len(trail)])
    return ExhaustedNoTiling(nodes)
