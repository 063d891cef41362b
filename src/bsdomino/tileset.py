"""Wang tiles that compute a rational piecewise affine map on BS(m,n).

A tile carries n bottom colors, m top colors (integer 2-vectors, terms of
balanced representations) and two rational error colors left/right, as
a plain tuple (piece, bottom, top, left, right).  For a piece
f(x) = M x + b, a scale value lam and a point x in the piece:

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
right.  Every value lies on the grid (1/q) Z^2 for the common
denominator q = lcm(m, n * den(M), n * den(b)).  With M = k/d and
b = o/d over the lcm d of their denominators, and s = q / (n d), an
integer,

    2 q left_c = -2 s (k_c1 u1 + k_c2 u2) + (2 q / m) v_c
                 + s o_c (2 - n - 2 n w),

whose least value L and greatest U (each term at an end of [0, 1])
give the grid box p1_c = ceil(L / 2), p2_c = floor(U / 2), in integers.
That is what makes the enumerated tileset finite.

Error colors are integer pairs: numerators over one denominator per
map, D = lcm of its pieces' q, so that equal colors of different pieces
are equal tuples.  D / m, D M / n and D b / n are integers, and so is
everything below (_Transport).  Every floor above is one integer floor
division: for lam = a/c and a component p/q of x,
floor((j lam + k) p/q) = ((j a + k c) p) // (c q).  With
F = floor(n lam x), G = floor(m lam f(x)) and
floor(lam - 1/2) = (2a - c) // (2c),

    D left = (D M / n) F + (1 + n floor(lam - 1/2)) (D b / n) - (D / m) G,

and right likewise from floor((n lam + n) x), floor((m lam + m) f(x))
and floor(lam + 1/2) = (2a + c) // (2c).

A Tileset stores runs in tile order, not a tuple per tile: a run
(piece, bottom, top, lefts, rights) holds the tiles (piece, bottom, top,
lefts[i], rights[i]), and tile id k is the k-th of them laid end to end.
A run's right - left is one vector b over q; enumerate makes one pair of
lists per grid box and b (the grid colors left with left + b on the grid
box, and those rights), shared by every run with that grid box and b,
of any piece, and one row of runs per bottom term.  A tile file is
the title, the m= n= pieces= tiles= header, one header per piece, then
the runs as stored, one line per tile, each color as its reduced p/q:
tile k is on line 3 + pieces + k.  One writer, export_lines, yields the
headers, then each run's label prefix 'piece | bottom: ... | top: ...
| l: ' before each of its tails 'left | r: right' (a shared pair of
lists has its tails formatted once).  One reader, parse_tileset, reads
the text or an open file forward in batches of whole lines through one
cursor, which takes the headers and the first line of each block (the
lines that repeat one label prefix), over D, rejecting any line out of
place, a color off (1/D) Z^2 and headers that disagree with their
pieces; one rule orders the tile lines: each line's key (labels, left,
right) is greater than the line above's.  Each block is one run: the
block its first tail last started in a piece of its grid box, checked
with one string compare, whose lists it then shares, as enumerated runs
do, or read line by line.
verify_tileset numbers tiles as stored and gives each tile the first
check it fails of one chain, in integers over D: piece and edge color
count, transport equation, label boxes, left grid box, right grid box.
Each distinct (piece, bottom) and (piece, top) is checked once, and the
chain runs once per run shape (the piece, the list objects, the
transport right side and the label checks' reasons); a later run of
that shape reuses its faults.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .errors import EnumerationTooLarge, OutsidePiece, ParseError
from .group import BsParams
from .balrep import differences, parts
from .pam import AffinePiece, PiecewiseAffineMap, UnitSquare
from .rationals import (
    IntVec2,
    Vec2,
    as_rat,
    fmt_rat,
    mat2,
    vec2,
)

DEFAULT_CANDIDATE_CAP = 5_000_000
CAP_ENV_VAR = "BSDOMINO_MAX_TILES"
TITLE = "# bsdomino tileset v1"  # line 1 of every tileset file


# (piece, bottom, top, left, right): bottom holds n colors, top m, and
# left/right are the error colors as numerators over the map's D.  A
# plain tuple, not a NamedTuple, which runs a Python-level __new__ per
# tile and stays tracked by the collector, which untracks exact tuples.
Tile = tuple[int, tuple[IntVec2, ...], tuple[IntVec2, ...], IntVec2, IntVec2]
# (piece, bottom, top, lefts, rights); runs share color lists, never mutated
Run = tuple[int, tuple[IntVec2, ...], tuple[IntVec2, ...], Sequence[IntVec2], Sequence[IntVec2]]


def grid_q(params: BsParams, piece: AffinePiece) -> int:
    """q = lcm(m, n den(M), n den(b)): the piece's error colors lie on
    (1/q) Z^2.  It is lcm(m, n d) for d, the lcm of the denominators of
    M and b, over which the piece's integer form holds them."""
    return math.lcm(params.m, params.n * piece.integer_form[6])


def color_denominator(params: BsParams, pieces: Iterable[AffinePiece]) -> int:
    """D, the lcm of the pieces' q: the tiles of a map carry their error
    colors as integer numerators over the D of its pieces."""
    return math.lcm(*(grid_q(params, piece) for piece in pieces))


def edge_colors(
    params: BsParams,
    piece: AffinePiece,
    lam,
    x: Vec2,
    piece_index: int = 0,
    denominator: int | None = None,
) -> Tile:
    """Tile of the given piece at scale value lam and point x.

    The error colors are numerators over denominator, by default the
    piece's own q (the D of a one-piece map); the tile stands for the
    one the Fraction formulas give, color for color.
    """
    lam = as_rat(lam)
    if denominator is None:
        denominator = grid_q(params, piece)
    row = RowColors(params, piece, x, piece_index, denominator)
    return row.run([(lam.numerator, lam.denominator, 1)])[0]


class RowColors:
    """The tiles of one piece at one point x, for any scale value.

    All tiles of a row share the piece and x and differ only in lam, so
    the piece's transport coefficients over the map's D, and x and f(x)
    as integer parts, are worked out once, here; run(runs) is the color
    kernel, in integers only.  fx, when given, must be f(x) for this
    piece (an orbit already holds it); otherwise it is computed.
    """

    def __init__(
        self,
        params: BsParams,
        piece: AffinePiece,
        x: Vec2,
        piece_index: int,
        denominator: int,
        fx: Vec2 | None = None,
    ):
        p1, q1, p2, q2 = parts(x)
        c1, c2 = piece.square.c1, piece.square.c2
        if not (c1 * q1 <= p1 <= (c1 + 1) * q1 and c2 * q2 <= p2 <= (c2 + 1) * q2):
            raise OutsidePiece(f"{x} is not in square {piece.square}")
        if denominator % grid_q(params, piece):
            raise ValueError(f"{denominator} is not a multiple of the piece's q")
        m, n = params.m, params.n
        self.m, self.n = m, n
        self.piece_index = piece_index
        self.x_over_m = (p1, m * q1, p2, m * q2)
        self.fx = parts(piece.apply(x) if fx is None else fx)
        eq = _transport(params, piece, denominator)
        # D M / n row-major, D b / n, D / m
        self.coefs = (*eq.matrix, *(o // n for o in eq.offset), eq.top_weight)

    def run(self, runs) -> list[Tile]:
        """Tiles at lam_k = a/c + k/m for k = 0 .. count-1, run after run,
        for each (a, c, count) of runs, c > 0: a run is the cells g a^k
        of one a-row when lambda(g) = a/c.

        Every lam is put over L, the lcm of the runs' c, as lam_k =
        s_k / (m L) with s_k = m a (L / c) + k L.  Tile k's top colors
        are differences of the floors floor((s_k + j L) f(x) / L), j =
        0..m, so one sweep over k + j serves a run.  Its bottom floors
        are floor((n s_k + t L) x / (m L)) for t = n k + m j, j = 0..n,
        so one sweep over t serves them too: tile k's bottoms are the
        differences m apart from t = n k.  The sweeps of all the runs
        are one comprehension per point, x or f(x); a run's x sweep is
        n times as long as its f sweep, so tile k's x-floors start at
        n k.  The error colors are integer numerators over D, as in the
        module docstring.
        """
        m, n, piece = self.m, self.n, self.piece_index
        k11, k12, k21, k22, o1, o2, w = self.coefs
        big = math.lcm(*(c for _, c, _ in runs))
        spans = [(m * a * (big // c), max(count, 0)) for a, c, count in runs]  # (s_0, count)
        (p1, q1, p2, q2), (r1, u1, r2, u2) = self.fx, self.x_over_m
        floors_f = [((s * p1) // (big * q1), (s * p2) // (big * q2))
                    for s0, count in spans for s in range(s0, s0 + (count + m) * big, big)]
        floors_x = [((s * r1) // (big * u1), (s * r2) // (big * u2))
                    for s0, count in spans for s in range(n * s0, n * (s0 + (count + m) * big), big)]
        tops = differences(floors_f)
        bottoms = differences(floors_x, m)
        mn, ml = m * n, m * big
        tiles = []
        first = 0  # the run's first f-floor, n first its first x-floor
        for s, count in spans:
            for k in range(first, first + count):
                lo = n * k
                f1, f2 = floors_x[lo]
                g1, g2 = floors_f[k]
                h1, h2 = floors_x[lo + mn]
                i1, i2 = floors_f[k + m]
                # 1 + n floor(lam_k - 1/2) for lam_k = s_k / (m L);
                # floor(lam_k + 1/2) is one more
                scale = 1 + n * ((2 * s - ml) // (2 * ml))
                tiles.append((
                    piece,
                    bottoms[lo : lo + mn : m],
                    tops[k : k + m],
                    (k11 * f1 + k12 * f2 + scale * o1 - w * g1,
                     k21 * f1 + k22 * f2 + scale * o2 - w * g2),
                    (k11 * h1 + k12 * h2 + (scale + n) * o1 - w * i1,
                     k21 * h1 + k22 * h2 + (scale + n) * o2 - w * i2),
                ))
                s += big
            first += count + m
        return tiles


class _Transport(NamedTuple):
    """The transport equation of one piece multiplied through by d:

        d (right - left) = (d M / n) sum(bottom) + d b - (d / m) sum(top)

    with d a multiple of the piece's q, so every coefficient is an
    integer.  It depends on m, n, M, b and d, never on a file header.
    """

    top_weight: int                         # d / m
    matrix: tuple[int, int, int, int]       # d M / n, row-major
    offset: IntVec2                         # d b


def _transport(params: BsParams, piece: AffinePiece, d: int) -> _Transport:
    """The transport equation over d, scaled from the piece's integer form
    (M and b as numerators k and o over their lcm e): d M / n is
    k (d // (n e)) and d b is o (d // e), both exact since n e divides
    the piece's q and so d."""
    k11, k12, k21, k22, o1, o2, e = piece.integer_form
    km, ko = d // (params.n * e), d // e
    matrix = (k11 * km, k12 * km, k21 * km, k22 * km)
    return _Transport(d // params.m, matrix, (o1 * ko, o2 * ko))


# ---------------------------------------------------------------------------
# finiteness: label boxes, error-color bounds, enumeration

@dataclass(frozen=True)
class EllBounds:
    """All realizable left/right colors lie in [p1/q, p2/q] on the 1/q grid."""

    p1: IntVec2
    p2: IntVec2
    q: int


@dataclass(frozen=True)
class PieceMeta:
    bottom_box: tuple[IntVec2, IntVec2]
    top_box: tuple[IntVec2, IntVec2]
    ell: EllBounds


def piece_meta(params: BsParams, piece: AffinePiece) -> PieceMeta:
    """The piece's label boxes and grid box, the bounds its tiles lie in,
    in integers from its integer form (M = k/d, b = o/d) and its square.
    The bottom box is the square.  For f(x)_c in [lo, hi] over it, the
    top box runs from floor(lo) to ceil(hi): the terms of balanced
    representations of v in [lo, hi], an integer hi attained exactly.
    The grid box is the module docstring's.  Each ceiling is a negated
    floor division, exact below zero too."""
    m, n = params.m, params.n
    k11, k12, k21, k22, o1, o2, d = piece.integer_form
    q = grid_q(params, piece)
    s = q // (n * d)
    c1, c2 = piece.square.c1, piece.square.c2
    bounds = []  # (top lo, top hi, p1, p2) of each component
    for k1, k2, o in ((k11, k12, o1), (k21, k22, o2)):
        # d f(x)_c is corner at (c1, c2); the other corners add k1, k2 or
        # both, so the least adds the negative entries, the greatest the positive
        neg, pos = min(k1, 0) + min(k2, 0), max(k1, 0) + max(k2, 0)
        corner = k1 * c1 + k2 * c2 + o
        ends = (s * o * (2 - 3 * n), s * o * (2 - n))  # w = 1 and w = 0
        bounds.append((
            (corner + neg) // d,
            -(-(corner + pos) // d),
            -(-(min(ends) - 2 * s * pos) // 2),
            (max(ends) - 2 * s * neg + 2 * q // m) // 2,
        ))
    lo, hi, p1, p2 = zip(*bounds)
    return PieceMeta(((c1, c2), (c1 + 1, c2 + 1)), (lo, hi), EllBounds(p1, p2, q))


class Tiles(Sequence):
    """The tiles of runs laid end to end, read-only: tile k is built when
    read, from the run r that bisecting starts (run r's first id) finds.
    A run with no tiles, or with more lefts than rights or fewer, is
    refused."""

    def __init__(self, runs: Sequence[Run]):
        self._runs = runs
        self.starts = starts = [0]
        for r, (_, _, _, lefts, rights) in enumerate(runs):
            if not lefts or len(lefts) != len(rights):
                raise ValueError(f"run {r} has {len(lefts)} lefts and {len(rights)} rights")
            starts.append(starts[-1] + len(lefts))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, k: int) -> Tile:
        if not -self.starts[-1] <= k < self.starts[-1]:
            raise IndexError(f"tile {k} of {len(self)}")
        k %= self.starts[-1]
        r = bisect_right(self.starts, k) - 1
        piece, bottom, top, lefts, rights = self._runs[r]
        i = k - self.starts[r]
        return (piece, bottom, top, lefts[i], rights[i])

    def __iter__(self) -> Iterator[Tile]:
        return chain.from_iterable(
            zip(repeat(piece), repeat(bottom), repeat(top), lefts, rights)
            for piece, bottom, top, lefts, rights in self._runs
        )


@dataclass(frozen=True)
class Tileset:
    """A map's tiles as runs in tile order, none empty and each with as
    many lefts as rights (Tiles checks); each piece's meta, D and the
    tiles view are derived once, here, however the runs were built."""

    params: BsParams
    pam: PiecewiseAffineMap
    runs: tuple[Run, ...]
    piece_meta: tuple[PieceMeta, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    tiles: Tiles = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params, pieces = self.params, self.pam.pieces
        object.__setattr__(self, "tiles", Tiles(self.runs))
        object.__setattr__(self, "piece_meta", tuple(piece_meta(params, piece) for piece in pieces))
        object.__setattr__(self, "denominator", color_denominator(params, pieces))


def _color_range(box: tuple[IntVec2, IntVec2]):
    (lo1, lo2), (hi1, hi2) = box
    return [
        (v1, v2) for v1 in range(lo1, hi1 + 1) for v2 in range(lo2, hi2 + 1)
    ]


def _candidate_cap() -> int:
    """The cap CAP_ENV_VAR sets, DEFAULT_CANDIDATE_CAP when it is unset."""
    text = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CANDIDATE_CAP))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {text!r}") from None


def candidate_count(params: BsParams, f: PiecewiseAffineMap) -> int:
    """The (bottom, top, left) candidates of every piece's boxes."""
    total = 0
    for meta in (piece_meta(params, piece) for piece in f.pieces):
        (blo, bhi), (tlo, thi), eb = meta.bottom_box, meta.top_box, meta.ell
        n_bottom = ((bhi[0] - blo[0] + 1) * (bhi[1] - blo[1] + 1)) ** params.n
        n_top = ((thi[0] - tlo[0] + 1) * (thi[1] - tlo[1] + 1)) ** params.m
        n_ell = (eb.p2[0] - eb.p1[0] + 1) * (eb.p2[1] - eb.p1[1] + 1)
        total += n_bottom * n_top * n_ell
    return total


def _labels(box: tuple[IntVec2, IntVec2], count: int):
    """(colors, s1, s2) for every tuple of count colors in box, in
    product order, with the sums of their first and second components."""
    colors = _color_range(box)
    sums = (map(sum, product(coordinates, repeat=count)) for coordinates in zip(*colors))
    return zip(product(colors, repeat=count), *sums)


def _grid_lists(ell: EllBounds, denominator: int) -> Callable[[int, int], tuple]:
    """lists(b1, b2): (lefts, rights), the colors of the grid box ell
    over denominator left, row by row, for which right = left + (b1, b2)
    is on the grid too, and those rights; a shift wider than the grid
    leaves no pair, and two empty lists.  grid[i][j] is the color
    (p1 + (i, j)) / q, one tuple for all its tiles.  Each shift's pair
    is made once, a rectangle cut from the rows sliced to one column
    range, and each range's slices once for every shift."""
    step = denominator // ell.q
    (p11, p12), (p21, p22) = ell.p1, ell.p2
    w1, w2 = p21 - p11, p22 - p12
    grid = [[((p11 + i) * step, (p12 + j) * step) for j in range(w2 + 1)] for i in range(w1 + 1)]
    columns = cache(lambda lo, hi: [row[lo:hi] for row in grid])

    @cache
    def lists(b1: int, b2: int) -> tuple[list, list]:
        if abs(b1) > w1 or abs(b2) > w2:
            return [], []
        lo, hi = max(0, -b2), min(w2, w2 - b2) + 1
        first, stop = max(0, -b1), min(w1, w1 - b1) + 1
        lefts = list(chain.from_iterable(columns(lo, hi)[first:stop]))
        rights = list(chain.from_iterable(columns(lo + b2, hi + b2)[first + b1 : stop + b1]))
        return lefts, rights

    return lists


def enumerate_tileset(params: BsParams, f: PiecewiseAffineMap) -> Tileset:
    """All tiles with labels in the piece boxes that satisfy the transport
    equation with both error colors on the bounds grid.

    The set over-approximates the tiles realizable from actual (lam, x)
    pairs but contains every one of them, which is the direction the
    reduction needs.

    The run of (bottom, top) has right - left = b over q, the bottom's
    transport term u minus the top's t.  Its lists depend only on the
    grid box and b, so each distinct grid box keeps one pair of lists
    per b, shared by every piece with that box; a bottom's runs depend
    only on u, so each distinct u of a piece makes one row of (top,
    lefts, rights), from each distinct t once, and every bottom with
    that u takes the row.
    """
    max_candidates = _candidate_cap()
    total = candidate_count(params, f)
    if total > max_candidates:
        raise EnumerationTooLarge(
            f"tile enumeration needs {total} candidates, cap is {max_candidates}"
        )

    m, n = params.m, params.n
    den = color_denominator(params, f.pieces)
    runs: list[Run] = []
    grids = cache(lambda ell: _grid_lists(ell, den))  # one per grid box
    for index, piece in enumerate(f.pieces):
        meta = piece_meta(params, piece)
        eb = meta.ell
        lists = grids(eb)
        # over q the transport equation has integer coefficients
        eq = _transport(params, piece, eb.q)
        k11, k12, k21, k22 = eq.matrix
        o1, o2 = eq.offset
        w = eq.top_weight
        tops = [(top, w * s1, w * s2) for top, s1, s2 in _labels(meta.top_box, m)]
        terms = dict.fromkeys((t1, t2) for _, t1, t2 in tops)
        rows: dict[IntVec2, list] = {}  # u -> [(top, lefts, rights)], one per run
        for bottom, s1, s2 in _labels(meta.bottom_box, n):
            u1, u2 = k11 * s1 + k12 * s2 + o1, k21 * s1 + k22 * s2 + o2
            row = rows.get((u1, u2))
            if row is None:
                pairs = {(t1, t2): lists(u1 - t1, u2 - t2) for t1, t2 in terms}
                row = rows[u1, u2] = [
                    (top, *pair) for top, t1, t2 in tops if (pair := pairs[t1, t2])[0]
                ]
            runs += [(index, bottom, top, lefts, rights) for top, lefts, rights in row]
    # bottoms, tops and each run's lefts come in order, and right follows
    # from left: the runs are in tile order, no sort needed
    return Tileset(params, f, tuple(runs))


# ---------------------------------------------------------------------------
# line-oriented export

def _fmt_ivec(v: IntVec2) -> str:
    return f"({v[0]},{v[1]})"


def _fmt_over(p: int, denominator: int) -> str:
    """p / denominator in lowest terms, as fmt_rat prints it."""
    g = math.gcd(p, denominator)
    return f"{p // g}/{denominator // g}"


def _run_lines(runs: Iterable[Run], denominator: int) -> Iterator[list[str]]:
    """Each run's lines as [prefix, tail, prefix, tail, ...]: its label
    prefix 'piece | bottom: ... | top: ... | l: ' before each tail
    'left | r: right' and its newline, the error colors over denominator.
    The tails of a pair of color lists are formatted once for all the
    runs that share that pair, and each distinct color once."""
    labels = cache(lambda colors: " ".join(_fmt_ivec(c) for c in colors))
    errors = cache(lambda color: ",".join(_fmt_over(p, denominator) for p in color))
    # (id(lefts), id(rights)) -> (lefts, rights, tails); holding the lists
    # keeps their ids from being reused by others
    shared: dict[tuple[int, int], tuple] = {}
    for piece, bottom, top, lefts, rights in runs:
        key = (id(lefts), id(rights))
        if key not in shared:
            tails = [f"{errors(left)} | r: {errors(right)}\n" for left, right in zip(lefts, rights)]
            shared[key] = (lefts, rights, tails)
        tails = shared[key][2]
        lines = [f"{piece} | bottom: {labels(bottom)} | top: {labels(top)} | l: "] * len(tails) * 2
        lines[1::2] = tails
        yield lines


def tile_to_line(tile: Tile, denominator: int) -> str:
    """The tile's line in a tileset file, its error colors over denominator."""
    piece, bottom, top, left, right = tile
    return "".join(next(_run_lines([(piece, bottom, top, (left,), (right,))], denominator)))[:-1]


def _header_lines(ts: Tileset) -> list[str]:
    """The title, the m= n= pieces= tiles= header and the piece headers,
    each with its newline."""
    headers = [
        TITLE,
        f"# m={ts.params.m} n={ts.params.n} pieces={len(ts.pam.pieces)}"
        f" tiles={len(ts.tiles)}",
    ]
    for index, (meta, piece) in enumerate(zip(ts.piece_meta, ts.pam.pieces)):
        mx = piece.matrix
        headers.append(
            f"# piece {index}"
            f" square=({piece.square.c1},{piece.square.c2})"
            f" M=({fmt_rat(mx.a11)},{fmt_rat(mx.a12)};{fmt_rat(mx.a21)},{fmt_rat(mx.a22)})"
            f" b=({fmt_rat(piece.offset.x1)},{fmt_rat(piece.offset.x2)})"
            f" q={meta.ell.q}"
            f" p1=({meta.ell.p1[0]},{meta.ell.p1[1]})"
            f" p2=({meta.ell.p2[0]},{meta.ell.p2[1]})"
        )
    return [f"{line}\n" for line in headers]


def export_lines(ts: Tileset) -> Iterator[str]:
    """The tileset's file as the strings it is joined from, each run
    formatted only when it is taken: the header lines, then each run's
    prefix and tail strings (_run_lines), never a run joined into one
    block, so that a join of them holds one copy of the text."""
    return chain(_header_lines(ts), chain.from_iterable(_run_lines(ts.runs, ts.denominator)))


def export_tileset(ts: Tileset) -> str:
    """The text of the tileset's file, export_lines joined."""
    return "".join(export_lines(ts))


def _inner(text: str) -> str:
    """The text inside the parentheses that enclose it."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected a value in parentheses, got {text!r}")
    return text[1:-1]


def _parse_ivec(text: str) -> IntVec2:
    a, b = _inner(text).split(",")
    return (int(a), int(b))


def _parse_colors(text: str) -> tuple[IntVec2, ...]:
    return tuple(_parse_ivec(tok) for tok in text.split())


def _parse_error(text: str, denominator: int) -> IntVec2:
    """An error color p/q,p/q as numerators over denominator."""
    x1, x2 = (as_rat(part) * denominator for part in text.split(","))
    if x1.denominator != 1 or x2.denominator != 1:
        raise ParseError(f"error color {text} is off the grid (1/{denominator}) Z^2")
    return (x1.numerator, x2.numerator)


def _unlabel(part: str, label: str) -> str:
    if not part.startswith(label):
        raise ValueError(f"expected {label!r} in {part!r}")
    return part[len(label):]


def _header_values(line: str, head: str, keys: str) -> list[str]:
    """The values of header line head + 'k1=v1 k2=v2 ...', keys in export's order."""
    if not line.startswith(head):
        raise ParseError(f"expected a line starting {head!r}")
    pairs = [token.partition("=") for token in line[len(head):].split(" ")]
    if [key for key, _, _ in pairs] != keys.split():
        raise ParseError(f"expected the fields {keys}")
    return [value for _, _, value in pairs]


def _parse_piece(params: BsParams, line: str, index: int) -> AffinePiece:
    """The piece of the header line of piece index, after checking the
    line's grid box against the one the piece gives."""
    square, matrix, offset, q, p1, p2 = _header_values(
        line, f"# piece {index} ", "square M b q p1 p2"
    )
    b1, b2 = _inner(offset).split(",")
    piece = AffinePiece(
        UnitSquare(*_parse_ivec(square)),
        mat2([row.split(",") for row in _inner(matrix).split(";")]),
        vec2(b1, b2),
    )
    ell = piece_meta(params, piece).ell
    declared = EllBounds(_parse_ivec(p1), _parse_ivec(p2), int(q))
    if declared != ell:
        raise ParseError(
            f"header has q={declared.q} p1={_fmt_ivec(declared.p1)}"
            f" p2={_fmt_ivec(declared.p2)}, the piece gives q={ell.q}"
            f" p1={_fmt_ivec(ell.p1)} p2={_fmt_ivec(ell.p2)}"
        )
    return piece


_BATCH = 1 << 16  # the characters of whole lines a file is read in at a time


def _reader(source: str | TextIO) -> Callable[[int], str]:
    """read(size), the next whole lines of source, the text or an open
    file: size characters and the rest of their line (the text at once),
    '' past the end, each line ended by '\\n'.  Lines read without a last
    '\\n' or with any other line boundary of str.splitlines (a CR among
    them) are joined again, so that they are the lines str.splitlines gives."""
    texts = iter([source]) if isinstance(source, str) else None

    def read(size: int) -> str:
        text = next(texts, "") if texts is not None else source.read(size) + source.readline()
        if not text.endswith("\n") or not text.isascii() or any(
            c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"
        ):
            text = "".join(f"{line}\n" for line in text.splitlines())
        return text

    return read


def parse_tileset(source: str | TextIO) -> Tileset:
    """Read a tileset file in the layout export_tileset writes, each line
    in its place: the title, the m= n= pieces= tiles= header, one
    '# piece i' header per piece in order, then only tile lines, read
    over the D of the pieces.  Any other line, a blank one included, is
    malformed; so are colors off the grid (1/D) Z^2, a tile line whose
    (labels, left, right) is not greater than the line above's (out of
    order or repeated), and a header that disagrees with its pieces: a
    grid box other than piece_meta gives, or a pieces=/tiles= count
    other than the lines that follow (reported at line 2).

    source is the text or an open file, read once, forward, in whole
    lines (_reader), through one cursor: line() takes the headers and
    the first line of each block, and the error names the line taken
    last, or the block's line at fault.  A block, a line and the lines
    after it that repeat its label prefix, is one run.  It is first
    tried, with one string compare, as the block read last with its
    first tail by a piece of its grid box: that block's tails under this
    prefix, then a line off the prefix.  If it matches, it takes that
    block's lists, so the runs share lists as enumerate's do, and only
    its first line is compared with the line above; else it is read
    line by line.  A block that reaches the end of what is read is read
    again with more text after it, so that no block is split."""
    read = _reader(source)
    text = ""
    pos = 0  # the end of line i in text, past its newline
    i = -1  # the index of the line taken last

    def line() -> str | None:
        """The next line, taken; None past the end."""
        nonlocal text, pos, i
        i += 1
        if pos >= len(text):
            text, pos = read(_BATCH), 0
            if not text:
                return None
        at, pos = pos, text.find("\n", pos) + 1
        return text[at : pos - 1]

    try:
        if line() != TITLE:
            raise ParseError(f"expected {TITLE!r}")
        counts = _header_values(line() or "", "# ", "m n pieces tiles")
        m, n, n_pieces, n_tiles = map(int, counts)
        params = BsParams(m, n)
        pieces: list[AffinePiece] = []
        # the piece headers; the line after them is the first tile line
        while (first := line()) is not None and first.startswith("#"):
            pieces.append(_parse_piece(params, first, len(pieces)))
        pam = PiecewiseAffineMap(tuple(pieces))
        den = color_denominator(params, pieces)
        bottoms = cache(lambda part: _parse_colors(_unlabel(part, "bottom: ")))
        tops = cache(lambda part: _parse_colors(_unlabel(part, "top: ")))
        colors = cache(lambda part: _parse_error(part, den))
        # every tile line must sort after the line above by (labels, left,
        # right); the empty tuple sorts before any key
        last: tuple = ()
        runs: list[Run] = []
        # (grid box, first tail) -> (tails, (lefts, rights)) of the block
        # read last with that first tail by a piece of that grid box
        boxes = {index: piece_meta(params, piece).ell for index, piece in enumerate(pieces)}
        firsts: dict[tuple, tuple] = {}
        while first is not None:
            # the block of line i, first, from start to stop; its label
            # prefix, up to and including the first ' | l: ', is read once
            start = pos - len(first) - 1
            try:
                cut = first.index(" | l: ") + 6
                head, bottom_text, top_text = first[: cut - 6].split(" | ")
            except ValueError:
                raise ParseError(f"expected a tile line, got {first!r}") from None
            prefix = first[:cut]
            labels = (int(head), bottoms(bottom_text), tops(top_text))
            known = firsts.get((boxes.get(labels[0]), first[cut:]))
            if (
                known
                and text.startswith(whole := prefix + f"\n{prefix}".join(known[0]) + "\n", start)
                and not text.startswith(prefix, stop := start + len(whole))
            ):
                tails, block = known
            else:
                # the block's lines, up to the first off its prefix: the next block's
                tails, block = [first[cut:]], None
                stop = pos
                while text.startswith(prefix, stop):
                    end = text.find("\n", stop)
                    tails.append(text[stop + cut : end])
                    stop = end + 1
            if stop == len(text) and (more := read(max(_BATCH, len(text) - start))):
                # the block may go on: read it again, after its first line
                text, pos = text[start:] + more, pos - start
                continue
            after = i + len(tails) - 1  # the block's last line
            if block is None:
                lefts, rights = [], []
                for i, tail in enumerate(tails, i):
                    left, sep, right = tail.partition(" | r: ")
                    if not sep:
                        raise ParseError(f"expected a tile line, got {prefix + tail!r}")
                    key = (labels, colors(left), colors(right))
                    if key <= last:
                        raise ParseError("tile line out of order or repeated")
                    last = key
                    lefts.append(key[1])
                    rights.append(key[2])
                block = (lefts, rights)
                firsts[boxes.get(labels[0]), tails[0]] = (tails, block)
            elif (labels, block[0][0], block[1][0]) <= last:
                # an equal block read before has its lines in order, so its
                # first line alone is compared with the line above
                raise ParseError("tile line out of order or repeated")
            last = (labels, block[0][-1], block[1][-1])
            runs.append((*labels, *block))
            i, pos = after, stop
            first = line()
    except (ValueError, IndexError, ParseError) as exc:
        raise ParseError(f"tileset line {i + 1}: {exc}") from None
    ts = Tileset(params, pam, tuple(runs))
    if (n_pieces, n_tiles) != (len(pieces), len(ts.tiles)):
        raise ParseError(
            f"tileset line 2: header says pieces={n_pieces} tiles={n_tiles},"
            f" the file has {len(pieces)} pieces and {len(ts.tiles)} tiles"
        )
    return ts


@dataclass(frozen=True)
class TileFault:
    line: int
    tile: Tile
    reason: str


def _edge_checks(colors, count: int, box, side: str, matrix, offset) -> tuple:
    """One edge's labels checked, and their term of the transport right
    side: (the count reason, the box reason, matrix (sum of colors) +
    offset as two ints), each reason None where its check holds."""
    (lo1, lo2), (hi1, hi2) = box
    inside = all(lo1 <= c1 <= hi1 and lo2 <= c2 <= hi2 for c1, c2 in colors)
    s1, s2 = sum(c1 for c1, _ in colors), sum(c2 for _, c2 in colors)
    k11, k12, k21, k22 = matrix
    return (
        None if len(colors) == count else "wrong number of edge colors",
        None if inside else f"{side} color outside box",
        k11 * s1 + k12 * s2 + offset[0],
        k21 * s1 + k22 * s2 + offset[1],
    )


def verify_tileset(ts: Tileset) -> list[TileFault]:
    """Recheck every tile: transport equation, label boxes, grid boxes.

    All in integers over the tileset's D: the transport equation
    multiplied through by D (see _Transport), and each error color as a
    multiple of D / q inside its piece's grid box.  A tile's reason is
    the first check it fails of one chain: unknown piece or wrong number
    of edge colors, transport equation, label boxes, left grid box,
    right grid box.  The label checks and the transport right side e of
    a run are two lookups: each distinct (piece, bottom) is checked once,
    with its term (D M / n) sum(bottom) + D b, and each distinct (piece,
    top) once, with its term (D / m) sum(top); e is their difference.
    The chain runs once per run shape (piece, color list objects, e,
    label reasons), and a later run of that shape has the same tiles at
    fault, at its own lines.  Line numbers follow the export layout, the
    only one parse_tileset accepts: tile k, as stored, is on line
    3 + pieces + k.
    """
    faults = []
    m, n = ts.params.m, ts.params.n
    den = ts.denominator
    metas = ts.piece_meta
    # each piece's _edge_checks arguments after the colors, bottom and top
    below, above = [], []
    for piece, meta in zip(ts.pam.pieces, metas):
        eq = _transport(ts.params, piece, den)
        w = eq.top_weight
        below.append((n, meta.bottom_box, "bottom", eq.matrix, eq.offset))
        above.append((m, meta.top_box, "top", (w, 0, 0, w), (0, 0)))
    # (piece, bottom) and (piece, top) -> their _edge_checks, each once
    bottom_checks = cache(lambda piece, bottom: _edge_checks(bottom, *below[piece]))
    top_checks = cache(lambda piece, top: _edge_checks(top, *above[piece]))
    # run shape -> the (index, reason) of its tiles at fault; the runs hold
    # the lists, so no id is reused while this call runs
    shapes: dict[tuple, list[tuple[int, str]]] = {}
    for (piece, bottom, top, lefts, rights), start in zip(ts.runs, ts.tiles.starts):
        # the reasons of faults before and after transport
        if not 0 <= piece < len(metas):
            before, e, after = f"unknown piece {piece}", None, None
        else:
            b, t = bottom_checks(piece, bottom), top_checks(piece, top)
            before, e, after = b[0] or t[0], (b[2] - t[2], b[3] - t[3]), b[1] or t[1]
        key = (piece, id(lefts), id(rights), e, before, after)
        reasons = shapes.get(key)
        if reasons is None:
            reasons = shapes[key] = []
            if before is None:
                e1, e2 = e
                meta = metas[piece]
                step = den // meta.ell.q
                # the grid box over D: multiples of step in [lo, hi]
                lo1, lo2, hi1, hi2 = (p * step for p in (*meta.ell.p1, *meta.ell.p2))
            for i, ((l1, l2), (r1, r2)) in enumerate(zip(lefts, rights)):
                if before:
                    reason = before
                elif r1 - l1 != e1 or r2 - l2 != e2:
                    reason = "transport equation violated"
                elif after:
                    reason = after
                # with step 1 (the piece's q is D) every numerator is on the grid
                elif not (lo1 <= l1 <= hi1 and lo2 <= l2 <= hi2) or (
                    step > 1 and (l1 % step or l2 % step)
                ):
                    reason = "left color off the grid box"
                elif not (lo1 <= r1 <= hi1 and lo2 <= r2 <= hi2) or (
                    step > 1 and (r1 % step or r2 % step)
                ):
                    reason = "right color off the grid box"
                else:
                    continue
                reasons.append((i, reason))
        lineno = 3 + len(metas) + start  # the line of the run's first tile
        for i, reason in reasons:
            faults.append(TileFault(lineno + i, (piece, bottom, top, lefts[i], rights[i]), reason))
    return faults
