"""Cells of the BS(m,n) Cayley complex, adjacency constraints, and search.

A cell based at g is the relator face with corners g, g a^m, g t and
g t a^n: m a-edges on top (level beta(g)), n a-edges at the bottom
(level beta(g) - 1), t-edges on the sides.  A tiling assigns a tile to
every cell; two cells that share a geometric edge must agree on its
color.  Working out which cells share edges gives three local rules:

  (H)  right(g) = left(g a^m)                      shared side t-edge
  (V)  top_j(g) = bottom_{k+1}(g a^(j-1-k) t^-1)   j in [1,m], k in [0,n-1]
  (I)  piece(g) = piece(g a)                       shared function index

The V rule is forced by the corner computation
(g a^(j-1-k) t^-1) t a^k = g a^(j-1): both tiles color the edge from
g a^(j-1) to g a^j.  Moving up (t^-1) is one forward application of the
encoded map.  All of this runs on canonical forms in integers, one
a-row at a time: build_patch refuses a cell that is not canonical, so a
patch holds each group element once.  The cells h a^e of one head h
form a row (an H-chain of the reduction); the patch maps each head to
{e: position}.  The rules are written once, in _rules.  A patch keeps
its row walk, Patch.partners, each rule's cells and their partners,
built from its own params on first use.  Within a row the H and I
partners are entries e + m and e + 1, and the V partners lie in the
rows h a^r t^-1 above, r < n, each canonical as it stands but for the
pinch t a^0 t^-1 (g a^s t^-1 is then one divmod away).  Every call on
a patch checks its group first (_partners), then iterates the rules and
their part of the walk: constraints_for lists them, search_patch takes
its arcs from them, and every re-check of an assignment
(check_assignment, a found search, an orbit witness) compares each
rule's keys as whole columns, building a Constraint only for a broken
rule.  lambda steps by 1/m along a row, from the lambda of its head,
so Patch.cover splits each level's distinct lambdas into runs,
and one RowColors.run tiles a level: RowColors holds x and f(x) as
integers (a witness reads f(x) from the orbit), so a run is integer
floor divisions only.  A cell is named by its position in the patch:
constraints, search domains and re-checks index cells by position.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from operator import add, and_, itemgetter, mul, ne, or_
from typing import NamedTuple

from .errors import OrbitTooShort
from .group import BsParams, GroupElement, lambda_parts
from .pam import CycleDetected, OrbitReport, PiecewiseAffineMap
from .rationals import IntVec2, Vec2
from .tileset import RowColors, Run, Tile, Tileset, color_denominator


@dataclass(frozen=True)
class Patch:
    """Cells sorted canonically; a cell is named by its position in cells.

    Every cell is canonical (build_patch refuses one that is not), so
    each cell is a distinct group element.  rows groups the cells by
    a-row: the cells g = h a^e of one head h share (exps[:-1], stables)
    and differ in e = exps[-1], so rows maps each head to {e: position}.
    The row walk, partners, and the lambda cover of the levels, cover,
    are built from params on first use and read by every later call;
    they are not fields, so ==, hash and repr see params and cells.
    """

    params: BsParams
    cells: tuple[GroupElement, ...]
    rows: dict[tuple, dict[int, int]] = field(compare=False, repr=False)

    def position(self, g: GroupElement) -> int | None:
        """The position of g in cells, None if g is not a cell."""
        row = self.rows.get((g.exps[:-1], g.stables))
        return None if row is None else row.get(g.exps[-1])

    def __contains__(self, g: GroupElement) -> bool:
        return self.position(g) is not None

    @cached_property
    def cover(self) -> tuple[dict[int, tuple[tuple[int, int, int], ...]], tuple[int, ...]]:
        """(levels, index), the lambda cover: levels maps each beta, in
        ascending order, to the maximal runs (a, c, count) of the distinct
        lambda = a/c + k/m, k < count, of its cells, and index[i] is cell
        i's tile among the levels' runs laid end to end, so cells of equal
        (beta, lambda) share one.  m lambda(h a^e) = m lambda(h) + e for a
        head h, so a level's cells group by m lambda(h) mod 1, r/c in lowest
        terms, and each group's integer parts split into runs of
        consecutive ones: no tile stands for a lambda that no cell has."""
        params, m = self.params, self.params.m
        cosets: dict[tuple, dict[int, list[int]]] = {}  # (beta, r, c): {int part: cells}
        for (head, stables), row in self.rows.items():
            num, den = lambda_parts(params, GroupElement(head + (0,), stables))
            whole, r = divmod(Fraction(m * num, den), 1)
            coset = cosets.setdefault((-sum(stables), r.numerator, r.denominator), {})
            for e, i in row.items():
                coset.setdefault(whole + e, []).append(i)
        levels: dict[int, list] = {}
        index = [0] * len(self.cells)
        tile = 0
        for (beta, r, c), wholes in sorted(cosets.items()):
            ints = sorted(wholes)
            levels.setdefault(beta, []).extend(
                (first * c + r, m * c, count) for first, count in _consecutive(ints))
            for w in ints:
                for i in wholes[w]:
                    index[i] = tile
                tile += 1
        return {beta: tuple(runs) for beta, runs in levels.items()}, tuple(index)

    @cached_property
    def partners(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(cells, partners) for each rule of _rules: the positions of the
        cells g = h a^e whose partner g a^s t^-up (s = rule.shift) is in
        the patch and, pairwise, the partners' positions, row by row.
        With up = 0 (H, I) it is entry e + s of g's own row; with up = 1
        (V) it is h a^r t^-1 a^(m q) for (q, r) = divmod(e + s, n), entry
        offset_r + m q of the row of h a^r t^-1.  Each distinct (s, up)
        is walked once, and its rules share the one pair of tuples.
        """
        m, n = self.params.m, self.params.n
        rows = self.rows
        keys = [(rule.shift, rule.up) for rule in _rules(self.params)]
        walk = [(shift, up, [], []) for shift, up in dict.fromkeys(keys)]
        for (head, stables), row in rows.items():
            # above[r]: (row of h a^r t^-1, its offset).  r < n is a coset
            # representative before t^-1, so h a^r t^-1 is canonical as it
            # stands (row (head + (r,), stables + (-1,)), offset 0) except
            # for the pinch t a^0 t^-1, which lands in the row below h
            above = [(rows.get((head + (r,), stables + (-1,)), {}), 0) for r in range(n)]
            if stables and stables[-1] == 1:
                above[0] = (rows.get((head[:-1], stables[:-1]), {}), head[-1])
            for e, i in row.items():
                for shift, up, cells, partners in walk:
                    if up:
                        q, r = divmod(e + shift, n)
                        line, offset = above[r]
                        j = line.get(offset + m * q)
                    else:
                        j = row.get(e + shift)
                    if j is not None:
                        cells.append(i)
                        partners.append(j)
        pairs = {(s, up): (tuple(cells), tuple(partners)) for s, up, cells, partners in walk}
        return tuple(pairs[key] for key in keys)


def build_patch(params: BsParams, elements) -> Patch:
    """Deduplicate and sort a set of cell base elements, one cell per
    group element: each must be canonical (Britton-reduced) for params,
    and ValueError names the first that is not."""
    cells = tuple(sorted(set(elements), key=GroupElement.sort_key))
    m, n = params.m, params.n
    rows: dict[tuple, dict[int, int]] = {}
    for i, g in enumerate(cells):
        exps, stables = g.exps, g.stables
        if len(exps) != len(stables) + 1:
            raise ValueError(f"cell {g!r} is not canonical in BS({m},{n})")
        # e stands before t^sign and after t^last (0: none)
        for e, sign, last in zip(exps, stables, (0, *stables)):
            if not 0 <= e < (m if sign > 0 else n) or (e == 0 and last == -sign):
                raise ValueError(f"cell {g.to_text()} is not canonical in BS({m},{n})")
        rows.setdefault((exps[:-1], stables), {})[exps[-1]] = i
    return Patch(params, cells, rows)


def build_ball_patch(params: BsParams, radius: int) -> Patch:
    """All cells whose base has canonical word length at most radius.

    A canonical form is a head a^e_0 s_1 ... a^e_(k-1) s_k followed by
    a^e; the head's interior exponents are coset representatives
    (0 <= e_i < m before t, < n before t^-1, never 0 between opposite
    stable letters, which would be a pinch).  A head of length l carries
    the row |e| <= radius - l, so the ball is written down row by row.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    m, n = params.m, params.n
    cells = []
    heads = [((), (), 0)]  # (interior exponents, stables, length)
    for exps, stables, length in heads:  # grows as heads are extended
        span = radius - length
        cells.extend(GroupElement(exps + (e,), stables) for e in range(-span, span + 1))
        for sign, mod in ((1, m), (-1, n)):
            # e = 0 between opposite stable letters would be a pinch
            first = 1 if stables and stables[-1] == -sign else 0
            for e in range(first, min(mod, span)):
                heads.append((exps + (e,), stables + (sign,), length + e + 1))
    return build_patch(params, cells)


def _consecutive(values: list[int]):
    """(first, count) for each run of consecutive integers in sorted values."""
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] != values[stop - 1] + 1:
            yield values[start], stop - start
            start = stop


class Rule(NamedTuple):
    """Cell g and its partner g a^shift t^-up agree on a_side's key of
    g's tile and b_side's of the partner's.  A side, (field, label index
    or None), reads a tile and a run alike, in their field order (piece,
    bottom, top, left(s), right(s)), and names an edge family: the edge
    masks are keyed by side (_edge_masks)."""

    kind: str
    top_pos: int
    bottom_pos: int
    shift: int
    up: int
    a_side: tuple[int, int | None]
    b_side: tuple[int, int | None]
    label: str

    def constraints(self, a, b):  # one Constraint per pair of positions
        fields = zip(repeat(self.kind), a, b, repeat(self.top_pos), repeat(self.bottom_pos))
        return map(tuple.__new__, repeat(Constraint), fields)  # no Python-level __new__


@lru_cache(maxsize=16)
def _rules(params: BsParams) -> tuple[Rule, ...]:
    """H, I, then V top_j(g) = bottom_k(g a^(j - k) t^-1) by (j, k), k
    1-based: the order of a cell's constraints."""
    m, n = params.m, params.n
    return (
        Rule("H", 0, 0, m, 0, (4, None), (3, None), "H"),
        Rule("I", 0, 0, 1, 0, (0, None), (0, None), "I"),
        *(Rule("V", j, k, j - k, 1, (2, j - 1), (1, k - 1), f"V {j}->{k}")
          for j in range(1, m + 1) for k in range(1, n + 1)),
    )


class Constraint(NamedTuple):
    """One rule of _rules between two cells, a and b by position in the
    patch: kind 'H': right(a) = left(b); 'I': piece(a) = piece(b); 'V':
    top_j(a) = bottom_k(b) with j = top_pos, k = bottom_pos (1-based)."""

    kind: str
    a: int
    b: int
    top_pos: int = 0
    bottom_pos: int = 0


def _partners(params: BsParams, patch: Patch) -> tuple[tuple, ...]:
    """patch.partners, the walk of the patch's own group; ValueError,
    before anything is read or built, when params is not that group."""
    if params != patch.params:
        own = patch.params
        raise ValueError(f"patch is in BS({own.m},{own.n}), not BS({params.m},{params.n})")
    return patch.partners


def constraints_for(params: BsParams, patch: Patch) -> tuple[Constraint, ...]:
    """The H, I and V constraints between cells, in cell order: for each
    cell its H, its I, then its V constraints by (top_pos, bottom_pos).
    ValueError when params is not the group the patch was built in."""
    out: list[Constraint] = []
    for rule, (a, b) in zip(_rules(params), _partners(params, patch)):
        out += rule.constraints(a, b)
    out.sort(key=itemgetter(1))  # stable: a cell's constraints stay in rule order
    return tuple(out)


@dataclass(frozen=True)
class TilingAssignment:
    pairs: tuple[tuple[GroupElement, Tile], ...]


def check_assignment(
    params: BsParams, patch: Patch, assignment: TilingAssignment
) -> list[Constraint]:
    """Constraints the assignment violates (empty list means valid).
    The assignment must give exactly one tile to each cell of the patch;
    ValueError names the first cell where it does not."""
    partners = _partners(params, patch)
    return _violations(params, partners, _tiles_by_position(patch, assignment))


def _tiles_by_position(patch: Patch, assignment: TilingAssignment) -> list[Tile]:
    tiles: list = [None] * len(patch.cells)
    for g, tile in assignment.pairs:
        i = patch.position(g)
        if i is None:
            raise ValueError(f"assignment cell {g.to_text()} is not in the patch")
        if tiles[i] is not None:
            raise ValueError(f"assignment cell {g.to_text()} has two tiles")
        tiles[i] = tile
    if None in tiles:
        g = patch.cells[tiles.index(None)]
        raise ValueError(f"patch cell {g.to_text()} has no tile in the assignment")
    return tiles


def _violations(params: BsParams, partners: tuple[tuple, ...], tiles) -> list[Constraint]:
    """The constraints that tiles, indexed by cell position, violate, in
    the order constraints_for lists them.  Each rule compares its two
    sides' keys over all its cells at once, each side one list
    comprehension; only a rule that breaks is walked pair by pair,
    building a Constraint for each broken pair."""
    bad: list[Constraint] = []
    for rule, (a, b) in zip(_rules(params), partners):
        (f, j), (g, k) = rule.a_side, rule.b_side
        a_keys = [tiles[i][f] for i in a] if j is None else [tiles[i][f][j] for i in a]
        b_keys = [tiles[i][g] for i in b] if k is None else [tiles[i][g][k] for i in b]
        if a_keys != b_keys:
            bad += rule.constraints(*zip(*compress(zip(a, b), map(ne, a_keys, b_keys))))
    bad.sort(key=itemgetter(1))  # stable: by cell, then rule
    return bad


# ---------------------------------------------------------------------------
# rows

def simulate_row(
    params: BsParams,
    f: PiecewiseAffineMap,
    piece_index: int,
    x: Vec2,
    g0: GroupElement,
    k_range: tuple[int, int],
) -> list[Tile]:
    """Tiles at g0 a^k for k_lo <= k <= k_hi, all encoding the point x.

    The scale value steps by 1/m per a, so tile k uses
    lambda(g0) + k/m.
    """
    k_lo, k_hi = k_range
    if not 0 <= piece_index < len(f.pieces):
        raise ValueError(f"piece index {piece_index} out of range")
    den = color_denominator(params, f.pieces)
    row = RowColors(params, f.pieces[piece_index], x, piece_index, den)
    # lambda(g0) + k_lo/m over the common denominator m c
    m, (a, c) = params.m, lambda_parts(params, g0)
    return row.run([(m * a + k_lo * c, m * c, k_hi - k_lo + 1)])


def row_top_reading(
    params: BsParams, tiles: list[Tile], k_lo: int
) -> tuple[list[IntVec2], int, int]:
    """Colors of the geometric top edges covered by a simulated row.

    Edge s runs from g0 a^(s-1) to g0 a^s and tile k covers edges
    k+1 .. k+m, so the row reads tile k_lo's m tops, then the last top
    of each later tile.  Neighbouring tiles must agree on the m-1 edges
    they share (checked); by transitivity every tile covering an edge
    then agrees.  Returns the colors with the covered index range
    [k_lo+1, k_hi+m]; against the balanced representation of f(x) these
    are indices at phase m * lambda(g0).  An empty row covers no edges:
    ([], k_lo+1, k_lo).
    """
    if not tiles:
        return [], k_lo + 1, k_lo
    for k, (tile, nxt) in enumerate(zip(tiles, tiles[1:]), k_lo):
        if tile[2][1:] != nxt[2][:-1]:  # top colors
            raise AssertionError(f"top colors of tiles {k} and {k + 1} disagree")
    colors = [*tiles[0][2], *(tile[2][-1] for tile in tiles[1:])]
    return colors, k_lo + 1, k_lo + len(tiles) - 1 + params.m


def row_bottom_reading(
    params: BsParams, tiles: list[Tile], k_lo: int, phase: int
) -> tuple[list[IntVec2], Fraction, int, int]:
    """Bottom colors on the phase-th lower line under a simulated row.

    The tiles at k = phase (mod m), every m-th tile of the row from
    position (phase - k_lo) mod m on, hang into the same lower sheet:
    tile k = phase + s m holds indices s n + 1 .. s n + n of the
    balanced representation at z = n lambda(g0 a^phase), so their
    bottoms, concatenated, are the window from s0 n + 1, s0 being the s
    of the first of them.  Returns (colors, phase offset n*phase/m
    relative to n lambda(g0), first index, last index); empty ranges
    yield no colors.
    """
    m, n = params.m, params.n
    z_shift = Fraction(n * phase, m)
    first = (phase - k_lo) % m  # the row position of the first such tile
    stack = tiles[first::m]
    if not stack:
        return [], z_shift, 1, 0
    s0 = (k_lo + first - phase) // m
    colors = [color for tile in stack for color in tile[1]]  # bottom colors
    return colors, z_shift, s0 * n + 1, (s0 + len(stack)) * n


# ---------------------------------------------------------------------------
# search: bitset domains kept arc consistent

@dataclass(frozen=True)
class Found:
    assignment: TilingAssignment
    nodes: int


@dataclass(frozen=True)
class ExhaustedNoTiling:
    nodes: int


@dataclass(frozen=True)
class BudgetExceeded:
    nodes: int


SearchResult = Found | ExhaustedNoTiling | BudgetExceeded


def _label_keys(params: BsParams, runs: tuple[Run, ...]) -> dict:
    """{side: its keys} for the label families of runs, a side (field,
    index) as a Rule reads it: piece (0, None), top_j (2, j - 1) and
    bottom_k (1, k - 1), and the whole bottom (1, None) and top
    (2, None) tuples.  A side's keys are dict.fromkeys of its key over
    the runs, in run order; a label within a tuple is read from the
    side's distinct tuples, the same keys in the same order, since runs
    share few bottoms and tops."""
    labels = {(field, None): dict.fromkeys(map(itemgetter(field), runs)) for field in (0, 1, 2)}
    for field, count in ((2, params.m), (1, params.n)):
        for index in range(count):
            labels[field, index] = dict.fromkeys(map(itemgetter(index), labels[field, None]))
    return labels


def _planes(text: bytes, width: int, bits: int) -> list[int]:
    """Planes 0 to bits - 1 of text, a code of width bytes (little-endian)
    per tile, tile 0 first: bit t of plane b is bit b of tile t's code.
    Byte lane l of tile t = 8 q + r is text[t width + l], so a lane is
    read as eight ints, int.from_bytes of every 8th tile from r, and
    plane 8 l + c takes bit c of each of their bytes, byte q of read r
    to bit 8 q + r."""
    if not bits:
        return []
    step = 8 * width
    ones = int.from_bytes(b"\1" * -(-len(text) // step), "little")  # 0x0101...01
    planes = []
    for lane in range(-(-bits // 8)):
        reads = [int.from_bytes(text[r * width + lane :: step], "little") for r in range(8)]
        planes += [reduce(or_, [(v >> c & ones) << r for r, v in enumerate(reads)])
                   for c in range(min(8, bits - 8 * lane))]
    return planes


def _key_masks(keys: dict, planes: list[int], full: int) -> dict:
    """{key: bitset} for one edge family, bit t standing for tile t: key
    i of the K keys, in their order, is coded by i, bit b of i read from
    planes[b], so its mask is the AND, within full (every tile's bit),
    of its ceil(log2 K) bits' planes or their complements."""
    pairs = [(full ^ plane, plane) for plane in planes]  # (bit clear, bit set)
    # an AND result keeps its shorter operand's size; | 0 trims it
    return {key: reduce(and_, [pair[i >> b & 1] for b, pair in enumerate(pairs)], full) | 0
            for i, key in enumerate(keys)}


def _edge_masks(runs: tuple[Run, ...], sides: set, labels: dict) -> dict:
    """{side: {key: bitset}} for each Rule side (field, index) in sides:
    one bitset per edge key of the runs' tiles, bit i standing for tile
    i.  A family numbers its K keys once and codes each tile by its
    key's index, ceil(log2 K) bits, read as planes (_planes) from byte
    strings in tile order.  A color family (lefts, rights) joins one
    string per shared color list object; the label families (piece,
    top_j, bottom_k, their keys from labels, _label_keys) share one code
    per run, each family's bits above the one before's, repeated over
    the run's length.  No other family is built: no side, no plane.
    """
    lengths = [len(run[3]) for run in runs]
    full = (1 << sum(lengths)) - 1
    masks = {}
    for side in ((3, None), (4, None)):
        if side not in sides:
            continue
        lists = list(map(itemgetter(side[0]), runs))
        ids = list(map(id, lists))
        chunks = dict(zip(ids, lists))
        keys = dict.fromkeys(chain.from_iterable(chunks.values()))
        bits = max(len(keys) - 1, 0).bit_length()  # ceil(log2 K)
        width = -(-bits // 8)
        code = {key: i.to_bytes(width, "little") for i, key in enumerate(keys)}
        strings = {c: b"".join(map(code.__getitem__, chunk)) for c, chunk in chunks.items()}
        text = b"".join(map(strings.__getitem__, ids))
        masks[side] = _key_masks(keys, _planes(text, width, bits), full)
    label_sides = [side for side in labels if side in sides]  # piece, top_j, bottom_k
    if label_sides:
        spans = []  # (side, keys, first plane, end plane) per label family
        index = {}  # per label family, {key: its index shifted to its first plane}
        bits = 0
        for side in label_sides:
            keys = labels[side]
            end = bits + max(len(keys) - 1, 0).bit_length()
            spans.append((side, keys, bits, end))
            index[side] = {key: i << bits for i, key in enumerate(keys)}
            bits = end
        # a run's code is its piece's, its top's and its bottom's, each
        # distinct top or bottom coded once, the sum of its labels' codes
        pieces = index.get((0, None))
        codes = map(pieces.__getitem__, map(itemgetter(0), runs)) if pieces else repeat(0)
        for field in (2, 1):
            code = {key: sum(index[field, j][label] for j, label in enumerate(key)
                             if (field, j) in index) for key in labels[field, None]}
            codes = map(add, codes, map(code.__getitem__, map(itemgetter(field), runs)))
        width = -(-bits // 8)
        encoded = map(int.to_bytes, codes, repeat(width), repeat("little"))
        text = b"".join(map(mul, encoded, lengths))
        planes = _planes(text, width, bits)
        for side, keys, lo, hi in spans:
            masks[side] = _key_masks(keys, planes[lo:hi], full)
    return masks


def search_patch(
    tileset: Tileset, patch: Patch, budget: int = 1_000_000
) -> SearchResult:
    """Depth-first search for a constraint-satisfying tile assignment.

    Each cell keeps a domain, the tile ids still possible there, as the
    bits of an int.  Assigning a tile to a cell runs AC-3 (Mackworth
    1977) over the H/V/I rules: a neighbor loses every tile that no
    tile left in the cell's domain matches, each narrowed domain is
    propagated in turn, and an emptied domain means backtrack.  A
    revision against a one-tile domain is one lookup, the mask of that
    tile's key on the shared edge (the key read from the tile's run, a
    bisect of the run starts); a larger domain's support on the
    neighbor is the union over the pairs loop, kept in one table per
    domain (looked up once per dequeue) by relation direction.  The
    tables are emptied when there are len(cells) of them, so they hold
    at most 2 (2 + m n) len(cells) supports.  A domain's size is
    counted only when pick reads it: pick first counts the unassigned
    cells narrowed or restored since the last pick and pushes their
    (size, cell) entries, so the heap grows only there.  The next cell
    is the unassigned one with the smallest domain (canonical order
    breaking ties; the first unassigned cell when no domain has
    narrowed), and its tiles are tried in ascending id, one node each,
    so the search is deterministic.  A choice is a frame [cell, untried
    tiles, trail mark] on one stack, and only its frame undoes it: back
    at a frame (its tile failed, or the frame above ran out of tiles),
    the loop rewinds the trail to the frame's mark and unassigns its
    cell, then tries its next tile or drops it.  Propagation only drops
    tiles that no tiling extending the current assignment can use, so an
    ExhaustedNoTiling result is a complete refutation; a Found result is
    re-checked on the row walk that gave the arcs.  A patch is refuted
    at 0 nodes when it uses a rule between two run labels (I, or a V
    rule) whose sides share no key over the runs; not H, whose color key
    sets cost more than a whole 0-node refutation of escape.  The label
    key sets are read once, before that check, and the edge masks, built
    per call and only past it, reuse them (_edge_masks); only the families
    of the used rules' sides are built, none for a patch with no pair,
    and each arc reads its two families by side.
    """
    params = tileset.params
    partners = _partners(params, patch)
    cells = patch.cells
    tiles, runs = tileset.tiles, tileset.runs
    used = [(rule, walk) for rule, walk in zip(_rules(params), partners) if walk[0]]

    # a rule of the patch between two run labels (fields 0 to 2) that no
    # two tiles meet refutes the patch outright; the masks read the same keys
    labels = _label_keys(params, runs)
    if any(
        max(rule.a_side[0], rule.b_side[0]) < 3
        and labels[rule.a_side].keys().isdisjoint(labels[rule.b_side])
        for rule, _ in used
    ):
        return ExhaustedNoTiling(0)

    sides = {side for rule, _ in used for side in (rule.a_side, rule.b_side)}
    masks = _edge_masks(runs, sides, labels)
    # arcs[y]: (x, x masks, side of y's tile, pairs, d) for every cell x to
    # revise when domain[y] narrows; all but x shared per rule direction d.
    # pairs holds (x mask, y mask) for each key both sides share: the tiles
    # of x that a domain of y supports are the union of the x masks whose
    # y mask meets that domain
    arcs: list[list[tuple]] = [[] for _ in cells]
    for d, (rule, (a, b)) in enumerate(used):
        a_masks, b_masks = masks[rule.a_side], masks[rule.b_side]
        pairs = [(a_masks[key], b_masks[key]) for key in a_masks if key in b_masks]
        to_a = (a_masks, rule.b_side, tuple(pairs), 2 * d)
        to_b = (b_masks, rule.a_side, tuple((y, x) for x, y in pairs), 2 * d + 1)
        for x, y in zip(a, b):
            arcs[y].append((x, *to_a))
            arcs[x].append((y, *to_b))
    tables: dict[int, list] = {}  # domain: its support per direction d, or None

    ncells = len(cells)
    domain = [(1 << len(tiles)) - 1] * ncells
    size = [len(tiles)] * ncells  # 0 until pick counts the domain
    assigned = [False] * ncells
    trail: list[tuple[int, int, int]] = []  # (cell, old domain, old size)
    # (size, cell) entries, stale once the cell is assigned or resized;
    # pick gives each unassigned cell of stale a current entry first
    heap = [(len(tiles), i) for i in range(ncells)]
    stale: set[int] = set()

    def narrow(x: int, dom: int) -> None:
        trail.append((x, domain[x], size[x]))
        domain[x] = dom
        size[x] = 0
        stale.add(x)

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
            run = None
            if dom_y & (dom_y - 1):
                table = tables.get(dom_y)
                if table is None:
                    if len(tables) == ncells:
                        tables.clear()
                    table = tables[dom_y] = [None] * (2 * len(used))
            else:  # one tile, tile i of run r
                t = dom_y.bit_length() - 1
                r = bisect_right(tiles.starts, t) - 1
                run, i = runs[r], t - tiles.starts[r]
            for x, x_masks, y_side, pairs, d in arcs[y]:
                if assigned[x]:
                    continue
                if run is not None:  # the piece, a label by index, a color by tile
                    field, index = y_side
                    key = run[field][i if field > 2 else index] if field else run[0]
                    support = x_masks.get(key, 0)
                else:
                    support = table[d]
                    if support is None:
                        support = 0
                        for x_mask, y_mask in pairs:
                            if y_mask & dom_y:
                                support |= x_mask
                        table[d] = support
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
        for x in stale:
            if not assigned[x]:
                size[x] = size[x] or domain[x].bit_count()
                heappush(heap, (size[x], x))
        stale.clear()
        if len(heap) > 4 * ncells:  # drop stale entries, amortized O(1)
            heap = [(size[x], x) for x in range(ncells) if not assigned[x]]
            heapify(heap)
        while True:
            count, x = heappop(heap)
            if count == size[x] and not assigned[x]:
                return x

    nodes = 0
    frames: list[list] = []  # [cell, untried tiles, trail mark] per choice
    while len(frames) < ncells:
        cell = pick()
        frames.append([cell, domain[cell], len(trail)])
        while frames:
            cell, untried, mark = frame = frames[-1]
            while len(trail) > mark:
                x, domain[x], size[x] = trail.pop()
                stale.add(x)
            assigned[cell] = False
            if not untried:
                frames.pop()
                continue
            tile_bit = untried & -untried
            frame[1] = untried ^ tile_bit
            nodes += 1
            if nodes > budget:
                return BudgetExceeded(nodes)
            assigned[cell] = True
            narrow(cell, tile_bit)  # on the trail even if unchanged: a rewind marks it stale
            if propagate(cell):
                break
        else:
            return ExhaustedNoTiling(nodes)
    chosen = []
    for dom in domain:  # one tile each, tile i of run r
        t = dom.bit_length() - 1
        r = bisect_right(tiles.starts, t) - 1
        run, i = runs[r], t - tiles.starts[r]
        chosen.append((run[0], run[1], run[2], run[3][i], run[4][i]))
    if _violations(params, partners, chosen):
        raise AssertionError("search produced an invalid assignment")
    return Found(TilingAssignment(tuple(zip(cells, chosen))), nodes)


# ---------------------------------------------------------------------------
# witness assignments from orbits

def assignment_from_orbit(
    params: BsParams,
    f: PiecewiseAffineMap,
    report: OrbitReport,
    patch: Patch,
) -> TilingAssignment:
    """Tile each cell with the orbit state of its level.

    Level 0 is the lowest row of the patch (minimal beta); moving one
    row up applies the map once.  Cyclic orbits repeat their loop, other
    orbits must reach every level the patch spans.  report must be the
    orbit of f: the image f(x) of a state is read from it wherever it
    holds one.  Each level is one RowColors.run over its runs in
    patch.cover, one tile per distinct lambda, gathered to the cells.
    ValueError when params is not the group the patch was built in.
    """
    partners = _partners(params, patch)
    levels, index = patch.cover
    base_level = min(levels, default=0)
    depth = max(levels, default=0) - base_level

    states = report.states

    def state_at(level: int) -> int:
        """The index in states of the orbit state of a level."""
        if level < len(states):
            return level
        if isinstance(report.outcome, CycleDetected):
            j, k = report.outcome.j, report.outcome.k
            period = k - j
            return j + (level - j) % period
        raise OrbitTooShort(
            f"patch spans {depth + 1} levels, orbit provides {len(states)}"
        )

    den = color_denominator(params, f.pieces)
    ats = [state_at(beta - base_level) for beta in levels]
    colors: dict[int, RowColors] = {}  # one per distinct state
    made: list = []  # the levels' tiles, laid end to end
    for at, runs in zip(ats, levels.values()):
        if at not in colors:
            piece_idx, point = states[at]
            # f(x) is the state one level up; only the last state of an
            # orbit that does not cycle has no image here
            last = at + 1 == len(states) and not isinstance(report.outcome, CycleDetected)
            fx = None if last else states[state_at(at + 1)][1]
            colors[at] = RowColors(params, f.pieces[piece_idx], point, piece_idx, den, fx)
        made += colors[at].run(runs)
    tiles = list(map(made.__getitem__, index))
    bad = _violations(params, partners, tiles)
    if bad:
        raise AssertionError(f"orbit assignment violates {len(bad)} constraints")
    return TilingAssignment(tuple(zip(patch.cells, tiles)))


# ---------------------------------------------------------------------------
# exports

def export_dot(
    params: BsParams,
    patch: Patch,
    assignment: TilingAssignment | None = None,
    tileset: Tileset | None = None,
) -> str:
    """DOT graph of the patch: one node per cell, one edge per pair of
    partners, labelled by their rules.  ValueError when params is not
    the group the patch was built in."""
    partners = _partners(params, patch)
    names = [g.to_text() for g in patch.cells]
    tile_ids = [None] * len(names)
    if assignment is not None and tileset is not None:
        tile_ids = _tile_ids(tileset, _tiles_by_position(patch, assignment))
    lines = ["graph patch {", "  node [shape=box];"]
    for name, tile_id in zip(names, tile_ids):
        label = name if tile_id is None else f"{name}\\ntile {tile_id}"
        lines.append(f'  "{name}" [label="{label}"];')
    edge_labels: dict[tuple[str, str], list[str]] = {}
    for rule, (a, b) in zip(_rules(params), partners):
        for x, y in zip(a, b):
            edge_labels.setdefault((names[x], names[y]), []).append(rule.label)
    for (a, b), labels in sorted(edge_labels.items()):
        joined = ", ".join(sorted(set(labels)))
        lines.append(f'  "{a}" -- "{b}" [label="{joined}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_tiling_text(assignment: TilingAssignment, tileset: Tileset) -> str:
    ids = _tile_ids(tileset, [tile for _, tile in assignment.pairs])
    lines = [
        f"{g.to_text()} -> {-1 if tid is None else tid}"
        for (g, _), tid in zip(assignment.pairs, ids)
    ]
    return "\n".join(lines) + "\n"


def _tile_ids(tileset: Tileset, tiles) -> list[int | None]:
    """Each tile's id in the tileset, None for a tile it lacks: the first
    id of a run with the tile's labels (tiles.starts) plus its position
    in it, found by its left color (the first such run and position)."""
    runs: dict = {}  # (piece, bottom, top) -> [(offset, lefts, rights)]
    for (piece, bottom, top, lefts, rights), offset in zip(tileset.runs, tileset.tiles.starts):
        runs.setdefault((piece, bottom, top), []).append((offset, lefts, rights))

    def tile_id(tile) -> int | None:
        piece, bottom, top, left, right = tile
        for offset, lefts, rights in runs.get((piece, bottom, top), ()):
            i = -1  # a run read from a file may hold a left color twice
            try:
                while True:
                    i = lefts.index(left, i + 1)
                    if rights[i] == right:
                        return offset + i
            except ValueError:
                pass
        return None

    return [tile_id(tile) for tile in tiles]
