import hashlib
import itertools
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsdomino import balrep, group, tiling
from bsdomino.errors import OrbitTooShort
from bsdomino.group import (
    BsParams,
    GroupElement,
    IDENTITY_ELEMENT,
    britton_reduce,
    element_from_text,
    lambda_val,
    multiply,
)
from bsdomino.pam import (
    AffinePiece,
    AliveUpTo,
    CycleDetected,
    EscapedAfter,
    PiecewiseAffineMap,
    UnitSquare,
    load_map,
    orbit,
)
from bsdomino.rationals import IDENTITY2, Mat2, Vec2, mat2, vec2
from bsdomino.tileset import (
    RowColors,
    Tiles,
    Tileset,
    _color_range,
    color_denominator,
    edge_colors,
    enumerate_tileset,
)
from bsdomino.tiling import (
    BudgetExceeded,
    Constraint,
    ExhaustedNoTiling,
    Found,
    Patch,
    TilingAssignment,
    _edge_masks,
    _label_keys,
    _tile_ids,
    assignment_from_orbit,
    build_ball_patch,
    build_patch,
    check_assignment,
    constraints_for,
    export_dot,
    export_tiling_text,
    row_bottom_reading,
    row_top_reading,
    search_patch,
    simulate_row,
)
from support import (
    ALL_PARAMS,
    MIXED_Q_MAP,
    color_value,
    constraint_satisfied,
    constraints_on_cells,
    is_britton_reduced,
    random_point_in,
    random_rational,
    reference_ball,
    reference_constraints,
    reference_edge_colors,
    reference_edge_masks,
    reference_row_bottom_reading,
    reference_row_top_reading,
    reference_search,
    reference_violations,
    runs_of,
)

ROOT = Path(__file__).resolve().parents[1]
P23 = BsParams(2, 3)
IDENTITY_PIECE = AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(0, 0))
IDENTITY_MAP = PiecewiseAffineMap((IDENTITY_PIECE,))
ESCAPE_MAP = PiecewiseAffineMap(
    (AffinePiece(UnitSquare(0, 0), IDENTITY2, vec2(2, 2)),)
)


def rotation_setup():
    params = BsParams(2, 2)
    m = mat2([["0", "-1"], ["1", "0"]])
    zero = vec2(0, 0)
    pam = PiecewiseAffineMap(
        tuple(
            AffinePiece(UnitSquare(c1, c2), m, zero)
            for c1, c2 in [(0, 0), (-1, 0), (-1, -1), (0, -1)]
        )
    )
    return params, pam


def test_ball_patch_sizes():
    assert [g.to_text() for g in build_ball_patch(P23, 0).cells] == ["e"]
    r1 = build_ball_patch(P23, 1)
    assert sorted(g.to_text() for g in r1.cells) == ["A", "T", "a", "e", "t"]


def test_ball_patch_z2_degenerate_count():
    # BS(1,1) is the free abelian group on a and t, so ball sizes match
    # the taxicab diamond |i| + |j| <= r
    for radius in range(4):
        patch = build_ball_patch(BsParams(1, 1), radius)
        expected = len(
            [
                (i, j)
                for i in range(-radius, radius + 1)
                for j in range(-radius, radius + 1)
                if abs(i) + abs(j) <= radius
            ]
        )
        assert len(patch.cells) == expected


def test_constraints_single_cell():
    patch = build_ball_patch(P23, 0)
    assert constraints_for(P23, patch) == ()


def test_constraints_horizontal_pair():
    patch = build_patch(
        P23, [IDENTITY_ELEMENT, element_from_text(P23, "a2")]
    )
    cons = constraints_for(P23, patch)
    assert len(cons) == 1
    (con,) = cons
    assert con.kind == "H"
    assert patch.cells[con.a] == IDENTITY_ELEMENT
    assert patch.cells[con.b] == element_from_text(P23, "a2")


def test_constraints_vertical_pair():
    upper = element_from_text(P23, "T")
    patch = build_patch(P23, [IDENTITY_ELEMENT, upper])
    cons = constraints_for(P23, patch)
    vs = [c for c in cons if c.kind == "V"]
    assert len(cons) == len(vs) == 2
    # partner e a^(j-1-k) T lands on T exactly when k = j - 1
    assert {(c.top_pos, c.bottom_pos) for c in vs} == {(1, 1), (2, 2)}
    assert all(
        patch.cells[c.a] == IDENTITY_ELEMENT and patch.cells[c.b] == upper for c in vs
    )


WORDS = st.lists(st.sampled_from("aAtT"), max_size=12).map("".join)


@settings(max_examples=100, deadline=None)
@given(params=ALL_PARAMS, radius=st.integers(0, 5))
def test_ball_and_constraints_match_reference(params, radius):
    patch = build_ball_patch(params, radius)
    assert patch == reference_ball(params, radius)
    assert all(is_britton_reduced(params, g.exps, g.stables) for g in patch.cells)
    constraints = constraints_for(params, patch)
    assert constraints_on_cells(patch, constraints) == reference_constraints(params, patch)


@settings(max_examples=100, deadline=None)
@given(params=ALL_PARAMS, words=st.lists(WORDS, max_size=8), radius=st.integers(0, 3))
def test_patch_rows_partition_cells(params, words, radius):
    random_patch = build_patch(params, (britton_reduce(params, w) for w in words))
    for patch in (build_ball_patch(params, radius), random_patch):
        positions = [i for row in patch.rows.values() for i in row.values()]
        assert sorted(positions) == list(range(len(patch.cells)))
        for (head, stables), row in patch.rows.items():
            for e, i in row.items():
                assert patch.cells[i] == GroupElement(head + (e,), stables)
        assert [patch.position(g) for g in patch.cells] == list(range(len(patch.cells)))
    # outside the ball: a missing exponent of a row it has, and a missing row
    ball = build_ball_patch(params, radius)
    for text in ("a" * (radius + 1), "t" * (radius + 1)):
        g = element_from_text(params, text)
        assert ball.position(g) is None and g not in ball


@settings(max_examples=100, deadline=None)
@given(params=ALL_PARAMS, words=st.lists(WORDS, max_size=8), radius=st.integers(0, 3))
def test_patch_cover_holds_the_beta_and_lambda_of_each_cell(params, words, radius):
    random_patch = build_patch(params, (britton_reduce(params, w) for w in words))
    for patch in (build_ball_patch(params, radius), random_patch):
        levels, index = patch.cover
        assert list(levels) == sorted(levels)
        # the levels' runs laid end to end: lambda = a/c + k/m, k < count
        entries = [
            (beta, Fraction(a, c) + Fraction(k, params.m))
            for beta, runs in levels.items() for a, c, count in runs for k in range(count)
        ]
        assert len(index) == len(patch.cells)
        for g, i in zip(patch.cells, index):
            assert entries[i] == (g.beta(), lambda_val(params, g))
        # one entry per distinct (beta, lambda): none stands for a lambda without a cell
        assert len(entries) == len({(g.beta(), lambda_val(params, g)) for g in patch.cells})


def test_build_patch_refuses_non_canonical_cells():
    cases = [
        # a^2 t is t a^3: beside that canonical form it would be a second cell
        (GroupElement((2, 0), (1,)), "a2 t"),
        # one exponent too few: to_text would print a, so repr names it
        (GroupElement((1,), (1,)), "GroupElement(exps=(1,), stables=(1,))"),
        # t a^0 t^-1 is left to pinch
        (GroupElement((0, 0, 0), (1, -1)), "t T"),
        # 3 is no coset representative mod n = 3 before t^-1
        (GroupElement((3, 1), (-1,)), "a3 T a"),
    ]
    for cell, name in cases:
        message = f"^cell {re.escape(name)} is not canonical in BS\\(2,3\\)$"
        with pytest.raises(ValueError, match=message):
            build_patch(P23, [cell, element_from_text(P23, "a2 t"), IDENTITY_ELEMENT])


# (exps, stables) with k stables and k to k + 2 exponents, most not canonical
RAW_FORMS = st.integers(0, 3).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(-2, 4), min_size=k, max_size=k + 2).map(tuple),
        st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k).map(tuple),
    )
)


@settings(max_examples=300, deadline=None)
@given(params=ALL_PARAMS, form=RAW_FORMS, word=WORDS)
def test_build_patch_accepts_exactly_the_britton_reduced_cells(params, form, word):
    exps, stables = form
    try:
        build_patch(params, [GroupElement(exps, stables)])
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == is_britton_reduced(params, exps, stables)
    g = britton_reduce(params, word)
    assert is_britton_reduced(params, g.exps, g.stables)
    assert build_patch(params, [g]).cells == (g,)


def neighbor_words(params):
    """The steps to a cell's H, I and V partners, and t and t^-1."""
    m, n = params.m, params.n
    partners = [("a" if s > 0 else "A") * abs(s) + "T" for s in range(1 - n, m)]
    return ["a", "a" * m, "t", "T", *partners]


@settings(max_examples=200, deadline=None)
@given(params=ALL_PARAMS, words=st.lists(WORDS, min_size=1, max_size=5), data=st.data())
def test_constraints_match_reference_on_random_patches(params, words, data):
    cells = set()
    for word in words:
        g = britton_reduce(params, word)
        steps = data.draw(st.sets(st.sampled_from(neighbor_words(params))))
        cells.add(g)
        cells.update(multiply(params, g, step) for step in steps)
    patch = build_patch(params, cells)
    constraints = constraints_for(params, patch)
    assert constraints_on_cells(patch, constraints) == reference_constraints(params, patch)
    # each partner's scale, from the runs of its canonical form alone:
    # lambda(g a^m) = lambda(g) + 1, lambda(g a) = lambda(g) + 1/m and
    # lambda(g a^(j-1-k) t^-1) = (m/n) (lambda(g) + (j-1-k)/m)
    m, n = params.m, params.n
    for con in constraints:
        lam = lambda_val(params, patch.cells[con.a])
        want = {
            "H": lam + 1,
            "I": lam + Fraction(1, m),
            "V": Fraction(m, n) * (lam + Fraction(con.top_pos - con.bottom_pos, m)),
        }[con.kind]
        assert lambda_val(params, patch.cells[con.b]) == want


def test_patch_geometry_parses_no_word(monkeypatch):
    def refuse(text):
        raise AssertionError(f"_text_runs({text!r}) called")

    monkeypatch.setattr(group, "_text_runs", refuse)
    patch = build_ball_patch(P23, 3)
    assert constraints_for(P23, patch)
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)
    assignment = assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    assert len(assignment.pairs) == len(patch.cells)


def test_patch_work_hashes_no_element(monkeypatch):
    # cells are named by position: once the patch is built, no step keys
    # a dict or set by a GroupElement
    ts = compiled("identity-23")
    patch = build_ball_patch(P23, 3)
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)

    def refuse(g):
        raise AssertionError(f"hashed {g}")

    monkeypatch.setattr(GroupElement, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(IDENTITY_ELEMENT)
    constraints = constraints_for(P23, patch)
    assert len(constraints) > len(patch.cells)
    result = search_patch(ts, patch)
    assert isinstance(result, Found)
    assignment = assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    assert [g for g, _ in assignment.pairs] == list(patch.cells)
    dot = export_dot(P23, patch, result.assignment, ts)
    assert dot.count(" -- ") > 0 and dot.count("\\ntile ") == len(patch.cells)


def test_row_readings_match_balanced_windows():
    x = vec2("1/2", "1/2")
    tiles = simulate_row(P23, IDENTITY_MAP, 0, x, IDENTITY_ELEMENT, (0, 9))
    assert len(tiles) == 10
    top, lo, hi = row_top_reading(P23, tiles, 0)
    assert (lo, hi) == (1, 11)
    assert top == list(balrep.window(x, 0, lo, hi).values)
    concat = []
    for phase in range(P23.m):
        colors, z_shift, lo, hi = row_bottom_reading(P23, tiles, 0, phase)
        assert colors == list(
            balrep.window(x, P23.n * Fraction(0) + z_shift, lo, hi).values
        )
        concat.extend(colors)
    assert concat == list(balrep.window(x, 0, 1, 30).values)


def test_row_readings_of_an_empty_row():
    for params in (P23, BsParams(3, 2)):
        for k_lo in (-4, 0, 7):
            assert row_top_reading(params, [], k_lo) == ([], k_lo + 1, k_lo)
            for phase in range(params.m):
                colors, _, lo, hi = row_bottom_reading(params, [], k_lo, phase)
                assert colors == [] and hi == lo - 1


# every committed map in its own group, and with the group overridden to
# m = 1 and to n = 1: rows with no overlapping tops, and one bottom per tile
ROW_MAP_FILES = sorted(ROOT.glob("maps/*.map")) + sorted(ROOT.glob("perfbench/maps/*.map"))
ROW_CASES = [
    (group, pam)
    for params, pam in (load_map(str(path)) for path in ROW_MAP_FILES)
    for group in (params, BsParams(1, params.n), BsParams(params.m, 1))
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_readings_match_reference(data):
    params, pam = data.draw(st.sampled_from(ROW_CASES))
    index = data.draw(st.integers(0, len(pam.pieces) - 1))
    square = pam.pieces[index].square
    offsets = []
    for _ in range(2):
        den = data.draw(st.integers(1, 40))
        offsets.append(Fraction(data.draw(st.integers(0, den - 1)), den))
    x = vec2(square.c1 + offsets[0], square.c2 + offsets[1])
    g0 = element_from_text(params, data.draw(WORDS))
    # negative k_lo, rows shorter than m, and empty rows
    k_lo = data.draw(st.integers(-40, 40))
    count = data.draw(st.integers(0, 4 * params.m + 3))
    tiles = simulate_row(params, pam, index, x, g0, (k_lo, k_lo + count - 1))
    assert len(tiles) == count
    top = row_top_reading(params, tiles, k_lo)
    assert top == reference_row_top_reading(params, tiles, k_lo)
    # phases outside [0, m) too
    for phase in range(-2 * params.m, 3 * params.m):
        bottom = row_bottom_reading(params, tiles, k_lo, phase)
        assert bottom == reference_row_bottom_reading(params, tiles, k_lo, phase)


def test_row_top_reading_refuses_an_altered_top():
    # a top color that another tile of the row also covers is checked:
    # altering it must make the reading fail; a top no other tile covers
    # (one at an end of the row) is read as it is
    x = vec2("2/7", "3/5")
    for params in (P23, BsParams(3, 2), BsParams(4, 1)):
        m = params.m
        for k_lo in (-5, 0, 3):
            k_range = (k_lo, k_lo + 6)
            tiles = simulate_row(params, IDENTITY_MAP, 0, x, IDENTITY_ELEMENT, k_range)
            colors, lo, hi = row_top_reading(params, tiles, k_lo)
            for i, (piece, bottom, top, left, right) in enumerate(tiles):
                for j, (c1, c2) in enumerate(top):
                    altered = list(tiles)
                    new_top = top[:j] + ((c1 + 1, c2),) + top[j + 1 :]
                    altered[i] = (piece, bottom, new_top, left, right)
                    # the tiles covering top j of tile i: those at i + j + 1 - m .. i + j
                    covering = range(max(0, i + j + 1 - m), min(len(tiles) - 1, i + j) + 1)
                    if len(covering) > 1:
                        with pytest.raises(AssertionError, match="top colors of tiles"):
                            row_top_reading(params, altered, k_lo)
                    else:
                        edited = list(colors)
                        edited[i + j] = (c1 + 1, c2)
                        assert row_top_reading(params, altered, k_lo) == (edited, lo, hi)


def test_row_constant_at_origin():
    tiles = simulate_row(P23, IDENTITY_MAP, 0, vec2(0, 0), IDENTITY_ELEMENT, (-3, 3))
    zero_tile = tiles[0]
    assert all(t == zero_tile for t in tiles)
    _, bottom, top, _, _ = zero_tile
    assert all(c == (0, 0) for c in bottom + top)


def test_row_internal_constraints():
    x = vec2("2/7", "3/5")
    tiles = simulate_row(P23, IDENTITY_MAP, 0, x, element_from_text(P23, "ta"), (0, 7))
    for i in range(len(tiles) - P23.m):
        assert tiles[i][4] == tiles[i + P23.m][3]  # right meets left
    assert len({piece for piece, *_ in tiles}) == 1


def test_row_feeds_next_row():
    swap = PiecewiseAffineMap(
        (AffinePiece(UnitSquare(0, 0), mat2([[0, 1], [1, 0]]), vec2(0, 0)),)
    )
    x = vec2("1/3", "1/4")
    fx = swap.pieces[0].apply(x)
    row = simulate_row(P23, swap, 0, x, IDENTITY_ELEMENT, (0, 5))
    upper = simulate_row(
        P23, swap, 0, fx, element_from_text(P23, "T"), (0, 9)
    )
    top, lo, hi = row_top_reading(P23, row, 0)
    bottom, _, blo, bhi = row_bottom_reading(P23, upper, 0, 0)
    assert blo <= lo and bhi >= hi
    assert bottom[lo - blo : hi - blo + 1] == top


def test_search_identity_found():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    patch = build_ball_patch(P23, 2)
    result = search_patch(ts, patch)
    assert isinstance(result, Found)
    assert len(result.assignment.pairs) == len(patch.cells)
    assert not check_assignment(P23, patch, result.assignment)


def test_search_escape_exhausted():
    # no tile's top meets any tile's bottom, so a patch with a V pair is
    # refuted before any node
    ts = compiled("escape")
    patch = build_patch(P23, [IDENTITY_ELEMENT, element_from_text(P23, "T")])
    result = search_patch(ts, patch)
    assert isinstance(result, ExhaustedNoTiling) and result.nodes == 0
    # a row has no V pair, so the filter lets it through and it is tiled
    row = build_patch(P23, [element_from_text(P23, w) for w in ("e", "a", "a2")])
    result = search_patch(ts, row)
    assert isinstance(result, Found) and result.nodes == 3
    assert not check_assignment(P23, row, result.assignment)


def test_escape_labels_lie_in_their_piece_boxes():
    # escape's bottom and top boxes are disjoint, and every tile's colors
    # lie in them: that is why no top meets a bottom
    ts = compiled("escape")
    boxes = [
        (set(_color_range(meta.bottom_box)), set(_color_range(meta.top_box)))
        for meta in ts.piece_meta
    ]
    assert all(not bottom_box & top_box for bottom_box, top_box in boxes)
    for piece, bottom, top, _, _ in ts.runs:
        bottom_box, top_box = boxes[piece]
        assert bottom_box.issuperset(bottom) and top_box.issuperset(top)


def test_search_reads_the_tiles_not_the_boxes():
    # one hand-made tile whose colors lie outside escape's boxes: its top
    # meets its bottom, so it tiles a V pair, which no box decides
    lone = (0, ((5, 5),) * 3, ((5, 5),) * 2, (0, 0), (0, 0))
    ts = Tileset(P23, ESCAPE_MAP, runs_of([lone]))
    patch = build_patch(P23, [IDENTITY_ELEMENT, element_from_text(P23, "T")])
    assert any(con.kind == "V" for con in constraints_for(P23, patch))
    result = search_patch(ts, patch)
    assert isinstance(result, Found)
    assert not check_assignment(P23, patch, result.assignment)
    assert result == reference_search(ts, patch)


def spy_on_the_walk(monkeypatch, calls: dict) -> None:
    """Count each build of a patch's partners and cover in calls."""
    for name in ("partners", "cover"):
        build = getattr(Patch, name).func

        def counted(patch, name=name, build=build):
            calls[name] += 1
            return build(patch)

        spy = cached_property(counted)
        spy.__set_name__(Patch, name)
        monkeypatch.setattr(Patch, name, spy)


@pytest.mark.parametrize(
    "name, verdict", [("identity-23", Found), ("escape", ExhaustedNoTiling)]
)
def test_search_walks_the_patch_once(monkeypatch, name, verdict):
    # the walk is built on first use, once per patch: the search (its 0-node
    # refutation, arcs and re-check), two witnesses, their re-checks, the
    # constraint list and the DOT export all read it; neither the search
    # nor the DOT export builds a constraint list; only the witnesses read
    # the lambda cover of the levels, built once for both
    calls = {"partners": 0, "cover": 0, "constraints_for": 0}
    spy_on_the_walk(monkeypatch, calls)
    listing = tiling.constraints_for

    def counted_listing(*args):
        calls["constraints_for"] += 1
        return listing(*args)

    monkeypatch.setattr(tiling, "constraints_for", counted_listing)
    ts = compiled(name)
    patch = build_ball_patch(P23, 2)
    assert calls == {"partners": 0, "cover": 0, "constraints_for": 0}
    assert isinstance(search_patch(ts, patch), verdict)
    assert calls == {"partners": 1, "cover": 0, "constraints_for": 0}
    witnesses = [
        assignment_from_orbit(P23, IDENTITY_MAP, orbit(IDENTITY_MAP, vec2(*x), 10), patch)
        for x in (("1/2", "1/2"), ("1/3", "2/7"))
    ]
    assert witnesses[0] != witnesses[1]
    assert calls == {"partners": 1, "cover": 1, "constraints_for": 0}
    for witness in witnesses:
        assert not check_assignment(P23, patch, witness)
    assert tiling.constraints_for(P23, patch)
    assert export_dot(P23, patch, witnesses[1], ts).startswith("graph patch {")
    assert calls == {"partners": 1, "cover": 1, "constraints_for": 1}


def test_a_wrong_group_call_leaves_the_walk_of_the_patch_alone():
    # calls in the wrong group raise before the walk is read or built, so
    # they cannot leave a walk of that group on the patch for later calls
    params, pam, x = witness_map("rotation-32")
    report = orbit(pam, x, 12)
    patch, fresh = build_ball_patch(params, 4), build_ball_patch(params, 4)
    witness = assignment_from_orbit(params, pam, report, fresh)
    wrong_group = r"patch is in BS\(3,2\), not BS\(2,3\)"
    with pytest.raises(ValueError, match=wrong_group):
        assignment_from_orbit(P23, pam, report, patch)
    with pytest.raises(ValueError, match=wrong_group):
        check_assignment(P23, patch, witness)
    with pytest.raises(ValueError, match=wrong_group):
        search_patch(compiled("identity-23"), patch)
    assert not vars(patch).keys() & {"partners", "cover"}
    assert assignment_from_orbit(params, pam, report, patch) == witness
    assert constraints_for(params, patch) == constraints_for(params, fresh)
    # a patch that keeps its walk is still equal to one that does not
    unwalked = build_ball_patch(params, 4)
    assert "partners" in vars(patch) and "partners" not in vars(unwalked)
    assert patch == unwalked and hash(patch) == hash(unwalked)
    assert repr(patch) == repr(unwalked)


def test_search_empty_tileset():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    empty = Tileset(P23, IDENTITY_MAP, ())
    assert isinstance(
        search_patch(empty, build_ball_patch(P23, 1)), ExhaustedNoTiling
    )
    # no tiles: a row (H and I rules) and a pair one t^-1 apart (a V rule)
    # are both refuted before any node
    for texts in (["e", "a", "a2"], ["e", "T"]):
        patch = build_patch(P23, [element_from_text(P23, text) for text in texts])
        assert search_patch(empty, patch) == ExhaustedNoTiling(nodes=0), texts
        assert reference_search(empty, patch) == ExhaustedNoTiling(nodes=0), texts


def no_edge_masks(*args):
    raise AssertionError("edge masks built for a patch refuted at 0 nodes")


def test_search_refutes_escape_before_any_mask(monkeypatch):
    # no tile's top meets a tile's bottom: the radius-2 ball is refuted
    # on the label key sets, and none of the 254,016-tile masks is built
    monkeypatch.setattr(tiling, "_edge_masks", no_edge_masks)
    ts = enumerate_tileset(*load_map(str(ROOT / "maps" / "escape.map")))
    assert search_patch(ts, build_ball_patch(ts.params, 2)) == ExhaustedNoTiling(0)


def test_search_builds_only_the_masks_its_rules_read(monkeypatch):
    # the one-cell escape ball uses no rule: none of the 254,016-tile masks
    # is built, and its one cell takes the first tile at one node
    calls = []
    for name in ("_key_masks", "_planes"):
        def spy(*args, real=getattr(tiling, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(tiling, name, spy)
    ts = compiled("escape")
    ball = build_ball_patch(ts.params, 0)
    result = search_patch(ts, ball)
    assert calls == []
    assert isinstance(result, Found) and result.nodes == 1
    assert result.assignment.pairs == ((ball.cells[0], ts.tiles[0]),)
    # a row of three cells reads H and I: the left, right and piece masks
    ts = compiled("identity-23")
    row = build_patch(P23, [element_from_text(P23, text) for text in ("e", "a", "a2")])
    assert search_patch(ts, row) == reference_search(ts, row)
    assert calls.count("_key_masks") == 3


def test_search_refutes_a_patch_by_any_label_rule_it_uses(monkeypatch):
    # a hand-made BS(2,3) tileset, one piece and one color on the sides,
    # where exactly V (1, 1), top_1 = bottom_1, has no shared label: tops
    # start with A, bottoms with B, and top_2 takes A or B
    A, B = (0, 0), (1, 0)
    runs = ((0, (B, A, A), (A, A), [A], [A]), (0, (B, A, A), (A, B), [A], [A]))
    ts = Tileset(P23, IDENTITY_MAP, runs)
    disjoint = [
        (j, k) for j in (1, 2) for k in (1, 2, 3)
        if {top[j - 1] for _, _, top, _, _ in runs}.isdisjoint(
            bottom[k - 1] for _, bottom, _, _, _ in runs)
    ]
    assert disjoint == [(1, 1)]

    def patch_of(*texts):
        return build_patch(P23, [element_from_text(P23, text) for text in texts])

    # {e, e a^(j-1-k) t^-1} = {e, T} uses V (1, 1) (and V (2, 2))
    patch = patch_of("e", "T")
    assert ("V", 1, 1) in {(con.kind, con.top_pos, con.bottom_pos)
                           for con in constraints_for(P23, patch)}
    with monkeypatch.context() as patched:  # refuted on the label keys alone
        patched.setattr(tiling, "_edge_masks", no_edge_masks)
        assert search_patch(ts, patch) == ExhaustedNoTiling(0)
    assert reference_search(ts, patch) == ExhaustedNoTiling(0)
    # {e, a T} uses V (2, 1) alone, and a three-cell row uses H and I only:
    # each is searched, not refuted at 0 nodes
    for patch, kinds in ((patch_of("e", "a T"), {("V", 2, 1)}),
                         (patch_of("e", "a", "a2"), {("H", 0, 0), ("I", 0, 0)})):
        assert {(con.kind, con.top_pos, con.bottom_pos)
                for con in constraints_for(P23, patch)} == kinds
        result = search_patch(ts, patch)
        assert result.nodes > 0 and isinstance(result, Found)
        assert result == reference_search(ts, patch)


def test_tileset_refuses_an_empty_or_uneven_run():
    # a run with no tiles would reach the search's mask build as an empty
    # string, or leave its label keys in the masks with bitset 0
    bottom, top = ((0, 0),) * 3, ((0, 0),) * 2
    full = (0, bottom, top, [(0, 0)], [(0, 0)])
    hollow = (0, bottom, ((1, 1),) * 2, [], [])
    with pytest.raises(ValueError, match="run 0 has 0 lefts and 0 rights"):
        Tileset(P23, IDENTITY_MAP, (hollow,))
    with pytest.raises(ValueError, match="run 1 has 0 lefts and 0 rights"):
        Tileset(P23, IDENTITY_MAP, (full, hollow, full))
    uneven = (0, bottom, top, [(0, 0), (1, 1)], [(0, 0)])
    with pytest.raises(ValueError, match="run 1 has 2 lefts and 1 rights"):
        Tileset(P23, IDENTITY_MAP, (full, uneven, hollow))


def test_search_exhausts_by_backtracking():
    # one tile whose right color matches nobody's left color
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    lone = edge_colors(P23, IDENTITY_PIECE, Fraction(1, 2), vec2("1/2", "1/2"))
    assert lone[3] != lone[4]  # left, right
    crippled = Tileset(P23, IDENTITY_MAP, runs_of([lone]))
    patch = build_patch(P23, [IDENTITY_ELEMENT, element_from_text(P23, "a2")])
    result = search_patch(crippled, patch)
    assert isinstance(result, ExhaustedNoTiling)
    assert result.nodes >= 1


def test_search_budget():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    patch = build_ball_patch(P23, 2)
    result = search_patch(ts, patch, budget=5)
    assert isinstance(result, BudgetExceeded)
    assert result.nodes == 6


def test_assignment_from_fixed_point():
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)
    patch = build_ball_patch(P23, 2)
    assignment = assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    assert len(assignment.pairs) == len(patch.cells)
    assert not check_assignment(P23, patch, assignment)
    # the re-check finds each cell's tile by its cell, not by its place
    reordered = TilingAssignment(tuple(reversed(assignment.pairs)))
    assert not check_assignment(P23, patch, reordered)


def test_assignment_on_rows_with_gaps_restricts_the_ball():
    # cells dropped at random leave gaps in the rows; each run of
    # consecutive cells must get the tiles the whole ball gives them
    params, pam = rotation_setup()
    report = orbit(pam, vec2("1/3", "2/5"), 12)
    ball = build_ball_patch(params, 4)
    whole = dict(assignment_from_orbit(params, pam, report, ball).pairs)
    rng = Random(44)
    for _ in range(5):
        lowest = min(ball.cells, key=GroupElement.beta)  # keeps level 0 in place
        cells = [g for g in ball.cells if rng.random() < 0.6] + [lowest]
        patch = build_patch(params, cells)
        assert any(max(row) - min(row) >= len(row) for row in patch.rows.values())
        for g, tile in assignment_from_orbit(params, pam, report, patch).pairs:
            assert tile == whole[g]


def test_check_assignment_names_mismatched_cells():
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)
    patch = build_ball_patch(P23, 2)
    pairs = assignment_from_orbit(P23, IDENTITY_MAP, report, patch).pairs
    last = patch.cells[-1].to_text()
    with pytest.raises(ValueError, match=f"patch cell {last} has no tile"):
        check_assignment(P23, patch, TilingAssignment(pairs[:-1]))
    # a cell outside the patch, in a row the patch has and in one it has not
    for text in ("A3", "t3"):
        extra = (element_from_text(P23, text), pairs[0][1])
        with pytest.raises(ValueError, match=f"cell {text} is not in the patch"):
            check_assignment(P23, patch, TilingAssignment(pairs + (extra,)))
    twice = pairs[3][0].to_text()
    with pytest.raises(ValueError, match=f"cell {twice} has two tiles"):
        check_assignment(P23, patch, TilingAssignment(pairs + (pairs[3],)))


def test_assignment_single_cell():
    report = orbit(IDENTITY_MAP, vec2("1/4", "3/4"), 1)
    patch = build_ball_patch(P23, 0)
    assignment = assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    assert len(assignment.pairs) == 1


def test_assignment_cycle_reuses_states():
    params, pam = rotation_setup()
    report = orbit(pam, vec2("1/2", "1/2"), 8)
    stack = [element_from_text(params, "T" * k) for k in range(5)]
    patch = build_patch(params, stack)
    assignment = assignment_from_orbit(params, pam, report, patch)
    assert not check_assignment(params, patch, assignment)
    top_cell = element_from_text(params, "T" * 4)
    [top_tile] = [tile for g, tile in assignment.pairs if g == top_cell]
    assert top_tile[0] == report.states[0][0]  # piece


def test_assignment_recheck_catches_corrupted_witness(monkeypatch):
    params, pam = rotation_setup()
    report = orbit(pam, vec2("1/2", "1/2"), 8)
    patch = build_ball_patch(params, 2)
    honest = RowColors.run
    made = []  # the tiles each run call makes
    hit = []  # the lambda of the corrupted tile
    den = color_denominator(params, pam.pieces)

    def corrupted(row, runs):
        tiles = honest(row, runs)
        made.append(len(tiles))
        at = 0  # the run's first tile
        for a, c, count in runs:
            if count > 1 and not hit:
                # the first tile of the first run of two or more becomes the
                # tile of the next piece, at the centre of its square, on
                # every cell of its (beta, lambda)
                hit.append(Fraction(a, c))
                other = (row.piece_index + 1) % len(pam.pieces)
                piece = pam.pieces[other]
                y = vec2(piece.square.c1, piece.square.c2) + vec2("1/2", "1/2")
                tiles[at] = reference_edge_colors(params, piece, hit[0], y, other, den)
            at += count
        return tiles

    monkeypatch.setattr(RowColors, "run", corrupted)
    with pytest.raises(AssertionError, match="violates"):
        assignment_from_orbit(params, pam, report, patch)
    assert hit
    # one tile per distinct (beta, lambda): on BS(2,2), lambda(g t) =
    # lambda(g), so cells of one level share tiles
    assert sum(made) == len({(g.beta(), lambda_val(params, g)) for g in patch.cells})
    assert sum(made) < len(patch.cells)


def test_assignment_orbit_too_short():
    report = orbit(ESCAPE_MAP, vec2(0, 0), 10)
    patch = build_ball_patch(P23, 1)  # spans three levels
    with pytest.raises(OrbitTooShort):
        assignment_from_orbit(P23, ESCAPE_MAP, report, patch)


def test_witness_recheck_catches_broken_scale_bookkeeping(monkeypatch):
    # lambda is walked once per row head; a wrong value for the head of the
    # row of t skews the tiles of that row, and the witness re-check finds it
    honest = group.lambda_parts
    t_head = element_from_text(P23, "t")

    def skewed(params, w):
        num, den = honest(params, w)
        return (num + 1, den) if w == t_head else (num, den)

    monkeypatch.setattr(tiling, "lambda_parts", skewed)
    params, pam, x = witness_map("identity-23")
    ball = build_ball_patch(params, 4)
    # the skew reached level -1 of the cover, honestly
    # ((-3, 2, 7), (-1, 4, 5), (9, 8, 1), (2, 6, 1))
    assert ball.cover[0][-1] == ((-5, 4, 7), (9, 8, 1), (2, 6, 1))
    with pytest.raises(AssertionError, match="^orbit assignment violates "):
        assignment_from_orbit(params, pam, orbit(pam, x, 12), ball)
    # at the origin every floor is 0, so the skewed tiles still tile
    assignment_from_orbit(params, pam, orbit(pam, vec2(0, 0), 12), ball)


# the four maps of the witness benchmark, a point each, and the sha256 of
# the orbit witness on the radius-4 ball (horizon 12)
WITNESS_CASES = {
    "identity-23": ("maps/identity-23.map", ("1/3", "2/7"),
                    "ad4da9dfacaa8e3e9efaa04931188111f837e8b0b7895891cd770540b89d656c"),
    "rotation-22": ("maps/rotation-22.map", ("1/3", "2/5"),
                    "d0566a8d91b1fea589e0b3f744370753d6e96813cf2fee41f11bfac3fe5d8769"),
    "half2-23": ("perfbench/maps/half2-23.map", ("1/3", "1/5"),
                 "004e9ba5334851c3481f6fc973a8e54249905dd9909c2fb88d99389c697a7559"),
    "rotation-32": ("perfbench/maps/rotation-32.map", ("-2/7", "3/5"),
                    "93748f555867ae9404f6a5a977e389df4b489a2f1a29e7012a263f56251a10ad"),
}


def witness_map(name):
    path, point, _ = WITNESS_CASES[name]
    params, pam = load_map(str(ROOT / path))
    return params, pam, vec2(*point)


def assert_witness_is_reference(params, pam, report, patch):
    """Every tile of the orbit witness is the Fraction formulas' tile at
    lambda(g) and the orbit state of g's level."""
    pairs = assignment_from_orbit(params, pam, report, patch).pairs
    den = color_denominator(params, pam.pieces)
    base = min(g.beta() for g in patch.cells)
    states, outcome = report.states, report.outcome
    for g, tile in pairs:
        level = g.beta() - base
        if level >= len(states):
            level = outcome.j + (level - outcome.j) % (outcome.k - outcome.j)
        index, x = states[level]
        want = reference_edge_colors(
            params, pam.pieces[index], lambda_val(params, g), x, index, den
        )
        assert tile == want, g.to_text()


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_witness_digest_and_reference_tiles(name):
    params, pam, x = witness_map(name)
    report = orbit(pam, x, 12)
    ball = build_ball_patch(params, 4)
    pairs = assignment_from_orbit(params, pam, report, ball).pairs
    text = "".join(f"{g.to_text()} {tile}\n" for g, tile in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_CASES[name][2]
    assert_witness_is_reference(params, pam, report, ball)


def test_witnesses_on_shared_balls_equal_witnesses_on_fresh_balls():
    # one ball per group, its walk built by the constraint list before any
    # witness: the two BS(2,3) maps share a ball, and every witness is the
    # one a fresh ball gives
    balls = {}
    for name in WITNESS_CASES:
        params, pam, x = witness_map(name)
        if params not in balls:
            balls[params] = build_ball_patch(params, 4)
            assert constraints_for(params, balls[params])
        report = orbit(pam, x, 12)
        pairs = assignment_from_orbit(params, pam, report, balls[params]).pairs
        fresh = assignment_from_orbit(params, pam, report, build_ball_patch(params, 4))
        assert pairs == fresh.pairs, name
    assert len(balls) == 3


def test_witness_on_a_sparse_row_tiles_each_lambda_once(monkeypatch):
    # the row {a^0, a^1000000} and the cell t^-1 above it: the cover
    # splits the row at its gap, so the kernel builds one tile per
    # distinct (beta, lambda), not the million tiles of the row's hull
    params, pam, x = witness_map("identity-23")
    patch = build_patch(params, [element_from_text(params, w) for w in ("", "a1000000", "T")])
    assert patch.cover[0] == {0: ((0, 2, 1), (1000000, 2, 1)), 1: ((0, 2, 1),)}
    honest = RowColors.run
    made = []

    def counted(row, runs):
        tiles = honest(row, runs)
        made.append(len(tiles))
        return tiles

    monkeypatch.setattr(RowColors, "run", counted)
    report = orbit(pam, x, 12)
    assert_witness_is_reference(params, pam, report, patch)
    assert made == [2, 1]
    assert sum(made) == len({(g.beta(), lambda_val(params, g)) for g in patch.cells})


def test_witness_tiles_at_the_last_state():
    # the top level of each patch is the orbit's last state, whose f(x)
    # the report holds only when the orbit cycles; no V rule checks the
    # top row's top colors, so each tile is compared with the formulas
    params, pam, x = witness_map("rotation-22")
    report = orbit(pam, x, 12)
    assert report.outcome == CycleDetected(0, 4)
    stack = [
        element_from_text(params, "T" * k + f"a{e}") for k in range(4) for e in range(-2, 3)
    ]
    assert_witness_is_reference(params, pam, report, build_patch(params, stack))
    # an orbit cut short by its horizon: the last state's f(x) is applied
    params, pam, x = witness_map("half2-23")
    report = orbit(pam, x, 8)
    assert report.outcome == AliveUpTo(8) and len(report.states) == 9
    assert_witness_is_reference(params, pam, report, build_ball_patch(params, 4))
    # an orbit that leaves the domain after three states
    params, pam = load_map(str(ROOT / "maps" / "shift3-23.map"))
    report = orbit(pam, vec2("1/3", "2/5"), 12)
    assert report.outcome == EscapedAfter(3)
    assert_witness_is_reference(params, pam, report, build_ball_patch(params, 1))


@lru_cache(maxsize=None)
def witness_patches(name):
    """(params, [(patch, tiles by position)]): the orbit witness on the
    radius-4 ball and on three patches cut from it with gaps in rows."""
    params, pam, x = witness_map(name)
    report = orbit(pam, x, 12)
    ball = build_ball_patch(params, 4)
    lowest = min(ball.cells, key=GroupElement.beta)
    rng = Random(sum(map(ord, name)))
    patches = [ball]
    while len(patches) < 4:
        patch = build_patch(params, [g for g in ball.cells if rng.random() < 0.6] + [lowest])
        if any(max(row) - min(row) >= len(row) for row in patch.rows.values()):
            patches.append(patch)
    return params, [
        (patch, [tile for _, tile in assignment_from_orbit(params, pam, report, patch).pairs])
        for patch in patches
    ]


FIELDS = ("piece", "bottom", "top", "left", "right")


def positional_reference(params, patch) -> list[Constraint]:
    """reference_constraints, each neighbour multiplied out from a word,
    with its cells mapped to positions: a list that shares no code with
    the rule table check_assignment reads."""
    return [
        Constraint(kind, patch.position(g), patch.position(h), j, k)
        for kind, g, h, j, k in reference_constraints(params, patch)
    ]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(WITNESS_CASES)),
    which=st.integers(0, 3),
    field=st.sampled_from(FIELDS),
    data=st.data(),
)
def test_row_walker_matches_list_check_on_corrupted_witnesses(name, which, field, data):
    # one field of one tile replaced, by a neighbour's value or a shifted
    # one: the walker breaks exactly the rules the list check breaks, in order
    params, witnesses = witness_patches(name)
    patch, tiles = witnesses[which]
    i = data.draw(st.integers(0, len(tiles) - 1))
    donor = tiles[data.draw(st.integers(0, len(tiles) - 1))]
    shift = data.draw(st.booleans())
    tile = list(tiles[i])
    f = FIELDS.index(field)
    if field == "piece":
        tile[f] = tile[f] + 1 if shift else donor[f]
    elif field in ("left", "right"):
        tile[f] = (tile[f][0] + 1, tile[f][1]) if shift else donor[f]
    else:
        colors = list(tile[f])
        at = data.draw(st.integers(0, len(colors) - 1))
        colors[at] = (colors[at][0], colors[at][1] + 1) if shift else donor[f][at]
        tile[f] = tuple(colors)
    corrupted = tiles[:i] + [tuple(tile)] + tiles[i + 1 :]
    assignment = TilingAssignment(tuple(zip(patch.cells, corrupted)))
    got = check_assignment(params, patch, assignment)
    assert got == reference_violations(positional_reference(params, patch), corrupted)
    if shift and field == "piece":
        # a cell whose I partner is in the patch breaks at least that rule
        assert got or patch.position(multiply(params, patch.cells[i], "a")) is None


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(WITNESS_CASES)), which=st.integers(0, 3), data=st.data())
def test_row_walker_matches_list_check_on_several_corrupted_tiles(name, which, data):
    # 2 to 6 tiles each take one field of another tile, so the broken rules
    # span several rules and cells: the walker, which checks rule by rule,
    # lists them by cell and then by rule, as the list check does
    params, witnesses = witness_patches(name)
    patch, tiles = witnesses[which]
    corrupted = list(tiles)
    cells = st.integers(0, len(tiles) - 1)
    for _ in range(data.draw(st.integers(2, 6))):
        i, donor, f = data.draw(cells), data.draw(cells), data.draw(st.integers(0, 4))
        tile = list(corrupted[i])
        tile[f] = tiles[donor][f]
        corrupted[i] = tuple(tile)
    assignment = TilingAssignment(tuple(zip(patch.cells, corrupted)))
    got = check_assignment(params, patch, assignment)
    assert got == reference_violations(positional_reference(params, patch), corrupted)


def test_list_check_on_rules_with_no_pair_or_one():
    # a one-cell patch has no pair in any rule, and g, g a one I pair: a
    # side of no tiles or one tile is read as a list of that many
    params, witnesses = witness_patches("identity-23")
    ball, tiles = witnesses[0]
    by_cell = dict(zip(ball.cells, tiles))
    g = next(g for g in ball.cells if multiply(params, g, "a") in by_cell)
    for cells in ([g], [g, multiply(params, g, "a")]):
        patch = build_patch(params, cells)
        chosen = [by_cell[h] for h in patch.cells]
        assert not check_assignment(params, patch, TilingAssignment(tuple(zip(patch.cells, chosen))))
        chosen[-1] = (chosen[-1][0] + 1, *chosen[-1][1:])
        got = check_assignment(params, patch, TilingAssignment(tuple(zip(patch.cells, chosen))))
        assert got == reference_violations(positional_reference(params, patch), chosen)
        assert len(got) == len(cells) - 1


def test_export_dot_and_tiling_text():
    ts = enumerate_tileset(P23, IDENTITY_MAP)
    patch = build_ball_patch(P23, 1)
    result = search_patch(ts, patch)
    assert isinstance(result, Found)
    dot = export_dot(P23, patch, result.assignment, ts)
    assert dot.startswith("graph patch {")
    assert '"e"' in dot and "tile " in dot and '[label="H"]' in dot
    listing = export_tiling_text(result.assignment, ts)
    lines = listing.strip().splitlines()
    assert len(lines) == len(patch.cells)
    assert all(" -> " in line for line in lines)
    # each node is labelled with its own cell's tile, listed in any order
    report = orbit(IDENTITY_MAP, vec2("1/3", "2/7"), 10)
    witness = assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    ids = {tile: i for i, tile in enumerate(ts.tiles)}
    assert len({ids[tile] for _, tile in witness.pairs}) > 1
    shuffled = TilingAssignment(tuple(reversed(witness.pairs)))
    dot = export_dot(P23, patch, shuffled, ts)
    for g, tile in witness.pairs:
        name = g.to_text()
        assert f'  "{name}" [label="{name}\\ntile {ids[tile]}"];' in dot.splitlines()


def test_tile_ids_come_from_runs():
    # a run read from a file may hold one left color beside two rights:
    # each tile is named by its own position; a tile the tileset lacks is -1
    bottom, top = ((0, 0),) * 3, ((0, 0),) * 2
    lefts, rights = [(0, 0), (0, 0), (1, 1)], [(0, 0), (1, 1), (1, 1)]
    ts = Tileset(P23, IDENTITY_MAP, ((0, bottom, top, lefts, rights),))
    pairs = [((0, 0), (1, 1)), ((1, 1), (1, 1)), ((0, 0), (0, 0)), ((2, 2), (2, 2))]
    cells = [element_from_text(P23, word) for word in ("e", "a", "a2", "a3")]
    tiles = [(0, bottom, top, left, right) for left, right in pairs]
    text = export_tiling_text(TilingAssignment(tuple(zip(cells, tiles))), ts)
    assert text == "e -> 1\na -> 2\na2 -> 0\na3 -> -1\n"


@lru_cache(maxsize=None)
def compiled(name):
    if name == "identity-23":
        return enumerate_tileset(P23, IDENTITY_MAP)
    if name == "escape":
        return enumerate_tileset(P23, ESCAPE_MAP)
    if name == "mixed-q":
        return enumerate_tileset(P23, MIXED_Q_MAP)
    if name in ("shift3-23", "kari-23"):
        return enumerate_tileset(*load_map(str(ROOT / "maps" / f"{name}.map")))
    if name in ("rotation-32", "half2-23"):
        path = ROOT / "perfbench" / "maps" / f"{name}.map"
        return enumerate_tileset(*load_map(str(path)))
    return enumerate_tileset(*rotation_setup())


@pytest.mark.parametrize("radius", [5, 6])
def test_search_rotation_finds_witnessed_balls(radius):
    # an orbit witness tiles these balls; the node budget bounds the effort
    ts = compiled("rotation-22")
    patch = build_ball_patch(ts.params, radius)
    result = search_patch(ts, patch, budget=100_000)
    assert isinstance(result, Found)
    assert not check_assignment(ts.params, patch, result.assignment)


def test_search_identity_radius_8():
    ts = compiled("identity-23")
    patch = build_ball_patch(P23, 8)
    result = search_patch(ts, patch, budget=100_000)
    assert isinstance(result, Found)
    assert not check_assignment(P23, patch, result.assignment)


def test_search_backtracks_on_mortal_map():
    # shift3-23: x -> x + (1,0) on three squares in a row, so every orbit
    # leaves the domain within three steps; the balls of radius 1 to 3
    # are still tileable, but the search reaches a tiling only after
    # backtracking.  At radius 3 the tables of supports, one per domain,
    # fill up and are cleared during the search.
    ts = compiled("shift3-23")
    assert len(ts.tiles) == 112_320
    for radius, nodes in ((1, 23_525), (2, 24_655), (3, 24_678)):
        patch = build_ball_patch(ts.params, radius)
        result = search_patch(ts, patch)
        assert isinstance(result, Found)
        assert result.nodes == nodes
        assert not check_assignment(ts.params, patch, result.assignment)


def test_search_and_witness_on_kari_map():
    # Kari's map scaled by 2 on BS(2,3), x2 fixed: x1 -> 2 x1 on the
    # square [1, 2] x [0, 1], x1 -> 2/3 x1 on the two squares to its
    # right.  These pin the compile, the search on the balls of radius 1
    # to 4 and a 20-step orbit witness; they do not decide whether the
    # map tiles the group
    ts = compiled("kari-23")
    params, f = ts.params, ts.pam
    assert len(ts.tiles) == 184_800
    for radius, nodes in ((1, 5), (2, 39), (3, 86), (4, 185)):
        patch = build_ball_patch(params, radius)
        result = search_patch(ts, patch)
        assert isinstance(result, Found) and result.nodes == nodes, radius
        assert not check_assignment(params, patch, result.assignment)
    report = orbit(f, vec2("3/2", "1/2"), 20)
    assert report.outcome == AliveUpTo(steps=20) and len(report.states) == 21
    ball = build_ball_patch(params, 5)
    witness = assignment_from_orbit(params, f, report, ball)
    assert len(witness.pairs) == 200
    assert not check_assignment(params, ball, witness)
    assert None not in _tile_ids(ts, [tile for _, tile in witness.pairs])


# the seven committed maps; a conjugate of a map has the same dynamics, so
# every verdict on it must agree with the map's own
COMMITTED_MAPS = {
    "identity-23": "maps/identity-23.map",
    "escape": "maps/escape.map",
    "rotation-22": "maps/rotation-22.map",
    "shift3-23": "maps/shift3-23.map",
    "kari-23": "maps/kari-23.map",
    "half2-23": "perfbench/maps/half2-23.map",
    "rotation-32": "perfbench/maps/rotation-32.map",
}


def translated(f, v):
    """f'(x) = f(x - v) + v: each square moved by v, b' = b + v - M v."""
    d = vec2(*v)
    return PiecewiseAffineMap(tuple(
        AffinePiece(
            UnitSquare(p.square.c1 + v[0], p.square.c2 + v[1]),
            p.matrix,
            p.offset + d - p.matrix.apply(d),
        )
        for p in f.pieces
    ))


def swapped(f):
    """f'(x) = P f(P x) for P swapping the coordinates: each square
    mirrored in the diagonal, M' = P M P, b' = P b."""
    return PiecewiseAffineMap(tuple(
        AffinePiece(
            UnitSquare(p.square.c2, p.square.c1),
            Mat2(p.matrix.a22, p.matrix.a21, p.matrix.a12, p.matrix.a11),
            Vec2(p.offset.x2, p.offset.x1),
        )
        for p in f.pieces
    ))


def assert_translated_map_searches_alike(name, v, top):
    """With M = I a translation by an integer vector v keeps b, so the
    tiles keep their colors and ids: on each ball up to radius top the
    search takes the same nodes to the same tiling."""
    ts = compiled(name)
    params, f = ts.params, ts.pam
    assert all(p.matrix == IDENTITY2 for p in f.pieces)
    moved = enumerate_tileset(params, translated(f, v))
    assert len(moved.tiles) == len(ts.tiles)
    for radius in range(top + 1):
        patch = build_ball_patch(params, radius)
        result, again = search_patch(ts, patch), search_patch(moved, patch)
        assert type(again) is type(result) and again.nodes == result.nodes, radius
        if isinstance(result, Found):
            text = export_tiling_text(result.assignment, ts)
            assert export_tiling_text(again.assignment, moved) == text, radius


@pytest.mark.parametrize("name, v, top", [
    ("identity-23", (5, -2), 2),
    ("identity-23", (-3, 4), 2),
    ("escape", (5, -2), 2),
    ("escape", (-3, 4), 2),
    ("shift3-23", (5, -2), 1),
])
def test_translated_map_searches_alike(name, v, top):
    assert_translated_map_searches_alike(name, v, top)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["identity-23", "escape"]),
       v=st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_randomly_translated_map_searches_alike(name, v):
    assert_translated_map_searches_alike(name, v, 3)


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(["rotation-22", "rotation-32", "half2-23", "kari-23"]),
    v=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    swap=st.booleans(),
)
@example(name="kari-23", v=(1, 0), swap=False)
@example(name="kari-23", v=(0, 0), swap=True)
def test_moved_map_with_m_not_i_has_the_same_verdicts(name, v, swap):
    # with M != I a translation changes b and the colors, and the swap
    # mirrors them: the tile count and the node counts may change (kari-23
    # at radius 2: 39 nodes, 15 moved by (1, 0), 33 swapped), the verdict
    # on each ball may not
    ts = compiled(name)
    params, f = ts.params, ts.pam
    assert any(p.matrix != IDENTITY2 for p in f.pieces)
    moved = translated(swapped(f) if swap else f, v)
    conjugate = enumerate_tileset(params, moved)
    for radius in range(4):
        patch = build_ball_patch(params, radius)
        result, again = search_patch(ts, patch), search_patch(conjugate, patch)
        assert type(again) is type(result), radius


@pytest.mark.parametrize("name", COMMITTED_MAPS)
def test_swapped_map_has_the_same_verdicts(name):
    # the swap keeps the tile count and every verdict; node counts may
    # differ (shift3-23 at radius 1: 11,605 swapped against 23,525)
    params, f = load_map(str(ROOT / COMMITTED_MAPS[name]))
    ts, mirrored = enumerate_tileset(params, f), enumerate_tileset(params, swapped(f))
    assert len(mirrored.tiles) == len(ts.tiles)
    for radius in range(2 if name == "shift3-23" else 3):
        patch = build_ball_patch(params, radius)
        result, again = search_patch(ts, patch), search_patch(mirrored, patch)
        assert type(again) is type(result), radius


@pytest.mark.parametrize("name", ["identity-23", "rotation-22", "rotation-32", "half2-23"])
def test_search_matches_reference_on_balls(name):
    # the one-tile lookup and the tables of supports change no result:
    # same verdict, node count and assignment as the plain pairs loop
    ts = compiled(name)
    for radius in range(4):
        patch = build_ball_patch(ts.params, radius)
        assert search_patch(ts, patch) == reference_search(ts, patch), radius


@pytest.mark.parametrize("name", ["identity-23", "rotation-22"])
def test_search_matches_reference_when_backtracking(name):
    # related tile sets on the radius-1 and radius-2 balls, compared with
    # the reference when the search backtracks (more nodes than cells).
    # About a third of those clear the tables of supports, most undo a
    # size that pick never counted (a cell narrowed twice in one
    # propagation), and many end exhausted; at rotation-22, radius 2,
    # seed 145 undo gives back a size whose heap entry a deeper pick
    # dropped.  The lazy sizes, tables and heap change no verdict, node
    # count or assignment
    full = compiled(name)
    verdicts = []
    for radius in (1, 2):
        patch = build_ball_patch(full.params, radius)
        for seed in range(160):
            rng = Random(seed)
            tiles = related_tiles(rng, name, rng.randint(5 * radius, 30 * radius))
            subset = Tileset(full.params, full.pam, runs_of(tiles))
            result = search_patch(subset, patch)
            if result.nodes > len(patch.cells):
                assert result == reference_search(subset, patch), (radius, seed)
                verdicts.append(type(result))
    assert verdicts.count(Found) >= 10
    assert verdicts.count(ExhaustedNoTiling) >= 10


def test_search_refuses_a_patch_of_another_group():
    # the BS(3,2) ball of radius 2 has 36 constraints in its own group; it
    # must not be searched or checked against the 39 BS(2,3) rules give it
    ts = compiled("identity-23")
    patch = build_ball_patch(BsParams(3, 2), 2)
    assert len(constraints_for(patch.params, patch)) == 36
    wrong_group = r"patch is in BS\(3,2\), not BS\(2,3\)"
    with pytest.raises(ValueError, match=wrong_group):
        search_patch(ts, patch)
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)
    witness = assignment_from_orbit(patch.params, IDENTITY_MAP, report, patch)
    with pytest.raises(ValueError, match=wrong_group):
        check_assignment(P23, patch, witness)
    with pytest.raises(ValueError, match=wrong_group):
        assignment_from_orbit(P23, IDENTITY_MAP, report, patch)
    with pytest.raises(ValueError, match=wrong_group):
        export_dot(P23, patch)
    # the group is checked first, also on a patch with no cells
    empty = build_patch(BsParams(3, 2), [])
    with pytest.raises(ValueError, match=wrong_group):
        search_patch(ts, empty)
    with pytest.raises(ValueError, match=wrong_group):
        assignment_from_orbit(P23, IDENTITY_MAP, report, empty)
    with pytest.raises(ValueError, match=wrong_group):
        constraints_for(P23, empty)
    with pytest.raises(ValueError, match=wrong_group):
        check_assignment(P23, empty, TilingAssignment(()))
    with pytest.raises(ValueError, match=wrong_group):
        export_dot(P23, empty)


def test_patch_with_no_cells_in_its_own_group():
    # every kernel takes its general path: nothing to choose, tile or check
    ts = compiled("identity-23")
    empty = build_patch(P23, [])
    none = TilingAssignment(())
    assert search_patch(ts, empty) == Found(none, 0)
    assert reference_search(ts, empty) == Found(none, 0)
    report = orbit(IDENTITY_MAP, vec2("1/2", "1/2"), 10)
    assert assignment_from_orbit(P23, IDENTITY_MAP, report, empty) == none
    assert check_assignment(P23, empty, none) == []
    assert constraints_for(P23, empty) == ()
    assert export_dot(P23, empty) == "graph patch {\n  node [shape=box];\n}\n"


def every_side(params):
    """Every Rule side of BS(m, n): left, right, piece, each top_j and
    each bottom_k."""
    return {(3, None), (4, None), (0, None),
            *((2, j) for j in range(params.m)), *((1, k) for k in range(params.n))}


def masks_of(params, runs, sides=None):
    """_edge_masks of runs for sides (every side by default), their label
    keys read as search_patch reads them."""
    sides = every_side(params) if sides is None else sides
    return _edge_masks(runs, sides, _label_keys(params, runs))


def edge_masks(params, tiles):
    return masks_of(params, runs_of(tiles))


def by_side(params, masks):
    """reference_edge_masks's (left, right, piece, top, bottom) families
    keyed by their Rule sides, as _edge_masks keys them."""
    left, right, piece, top, bottom = masks
    return {(3, None): left, (4, None): right, (0, None): piece,
            **{(2, j): top[j] for j in range(params.m)},
            **{(1, k): bottom[k] for k in range(params.n)}}


# escape is the one committed map with more than 256 color keys a side (324)
@pytest.mark.parametrize("name", ["identity-23", "rotation-22", "mixed-q", "shift3-23", "escape"])
def test_edge_masks_match_reference(name):
    ts = compiled(name)
    masks = masks_of(ts.params, ts.runs)
    assert masks == by_side(ts.params, reference_edge_masks(ts.params, ts.tiles))


@pytest.mark.parametrize("name", ["identity-23", "rotation-32", "mixed-q"])
def test_edge_masks_build_only_the_sides_given(name):
    # no side, each side alone and random halves: the given families are
    # those of the full build, and no other family is there
    ts = compiled(name)
    params = ts.params
    every = sorted(every_side(params), key=str)
    full = masks_of(params, ts.runs, set(every))
    rng = Random(3)
    halves = [set(rng.sample(every, len(every) // 2)) for _ in range(4)]
    for sides in [set(), *({side} for side in every), *halves]:
        masks = masks_of(params, ts.runs, sides)
        assert masks == {side: full[side] for side in sides}


def test_search_reads_the_masks_of_its_rules_sides(monkeypatch):
    # the masks come keyed by the sides of the rules the patch uses:
    # {e, T} uses V (1, 1) and V (2, 2), top_j and bottom_k by 0-based
    # index; the row {e, a, a2} uses H (right, left) and I (piece)
    built = []

    def spy(*args, real=tiling._edge_masks):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(tiling, "_edge_masks", spy)
    ts = compiled("identity-23")
    for texts, sides in ((["e", "T"], {(1, 0), (1, 1), (2, 0), (2, 1)}),
                         (["e", "a", "a2"], {(0, None), (3, None), (4, None)})):
        patch = build_patch(P23, [element_from_text(P23, text) for text in texts])
        assert isinstance(search_patch(ts, patch), Found)
        assert set(built.pop()) == sides, texts


def random_runs(rng, params, colors, labels):
    """Runs whose left and right colors each take `colors` keys and whose
    label families (piece, each top_j, each bottom_k) each take `labels`
    keys.  A run's color lists are earlier list objects of its length or
    new ones, so lists are shared by many runs, one lefts list meets
    several rights lists, and a new list may copy an earlier one's
    colors into an object of its own.  A label key may hold over a few
    runs in a row or recur far apart."""
    def color(i):
        return (i // 32, i % 32 - 16)

    color_keys = [itertools.cycle(rng.sample(range(colors), colors)) for _ in range(2)]
    label_keys = [
        itertools.cycle(rng.sample(range(labels), labels))
        for _ in range(1 + params.m + params.n)
    ]
    color_draws = [0, 0]
    label_draws = 0
    pools: dict[tuple[int, int], list] = {}  # (side, length) -> list objects
    runs = []
    while min(color_draws) < colors or label_draws < labels:
        length = rng.choice([1, 2, 5, rng.randint(1, 12)])
        lists = []
        for side in (0, 1):
            pool = pools.setdefault((side, length), [])
            if pool and rng.random() < 0.5:
                lists.append(rng.choice(pool))
                continue
            if pool and rng.random() < 0.2:
                new = list(rng.choice(pool))
            else:
                new = [color(next(color_keys[side])) for _ in range(length)]
                color_draws[side] += length
            pool.append(new)
            lists.append(new)
        if runs and rng.random() < 0.3:
            label = runs[-1][:3]
        else:
            piece, *keys = [next(keys) for keys in label_keys]
            keys = [color(key) for key in keys]
            label = (piece, tuple(keys[params.m :]), tuple(keys[: params.m]))
            label_draws += 1
        runs.append((*label, *lists))
    return tuple(runs)


# key counts at the binary boundaries: 2^k keys fill k index bits, and
# 2^k + 1 take one bit more
BOUNDARY_KEYS = sorted({2**k + d for k in range(10) for d in (0, 1)})


@settings(max_examples=60, deadline=None)
@given(
    params=ALL_PARAMS,
    colors=st.one_of(st.sampled_from(BOUNDARY_KEYS), st.integers(1, 600)),
    labels=st.one_of(st.sampled_from(BOUNDARY_KEYS), st.integers(1, 600)),
    seed=st.integers(0, 2**32 - 1),
    one_tile_runs=st.booleans(),
)
def test_edge_masks_match_reference_on_random_runs(params, colors, labels, seed, one_tile_runs):
    # the key count sets the index bits, ceil(log2 K) planes: 1 key takes
    # none (its mask is every tile), and past 256 keys the high bits come
    # from a second index byte; each must give the tile-by-tile masks
    rng = Random(seed)
    runs = random_runs(rng, params, colors, labels)
    if one_tile_runs:  # shuffled, each tile a run with lists of its own
        tiles = list(Tiles(runs))
        rng.shuffle(tiles)
        runs = tuple((*head, [left], [right]) for *head, left, right in tiles)
    masks = masks_of(params, runs)
    assert masks == by_side(params, reference_edge_masks(params, Tiles(runs)))
    assert (len(masks[3, None]), len(masks[4, None]), len(masks[0, None])) == (
        colors, colors, labels)


@pytest.mark.parametrize("params", [P23, BsParams(3, 2)])
def test_edge_masks_match_reference_for_every_tile_count_to_17(params):
    # every tile count mod 8, and counts under 8, where some of a lane's
    # eight strided reads are empty; labels drawn from 6 keys take up to
    # 3 bits a family, so the shared label code reaches a second byte and
    # a family straddles the byte boundary (13 bits at 17 tiles)
    rng = Random(17)

    def colors(count):
        return [(rng.randrange(3), rng.randrange(2)) for _ in range(count)]

    for count in range(18):
        runs = []
        while sum(len(run[3]) for run in runs) < count:
            length = rng.randint(1, min(4, count - sum(len(run[3]) for run in runs)))
            label = (rng.randrange(6), tuple(colors(params.n)), tuple(colors(params.m)))
            runs.append((*label, colors(length), colors(length)))
        runs = tuple(runs)
        masks = masks_of(params, runs)
        assert masks == by_side(params, reference_edge_masks(params, Tiles(runs))), count


def test_edge_masks_of_no_runs():
    # no tile: every family is empty, and no plane is read
    for params in (P23, BsParams(3, 2)):
        empty = {side: {} for side in every_side(params)}
        assert masks_of(params, ()) == by_side(params, reference_edge_masks(params, ())) == empty


def test_edge_masks_take_each_list_object_as_it_is():
    # one lefts list with two rights lists, then a copy of it in a new
    # object: the copy's tiles get the same left masks as the shared list's
    bottom, top = ((0, 0),) * 3, ((0, 0),) * 2
    lefts = [(0, 0), (1, 0)]
    runs = (
        (0, bottom, top, lefts, [(1, 0), (2, 0)]),
        (1, bottom, top, lefts, [(5, 5), (1, 0)]),
        (0, bottom, ((1, 1),) * 2, list(lefts), [(1, 0), (2, 0)]),
    )
    masks = masks_of(P23, runs)
    assert masks == by_side(P23, reference_edge_masks(P23, Tiles(runs)))
    assert masks[3, None] == {(0, 0): 0b010101, (1, 0): 0b101010}
    assert masks[4, None] == {(1, 0): 0b011001, (2, 0): 0b100010, (5, 5): 0b000100}


@pytest.mark.parametrize("name", ["identity-23", "rotation-22", "mixed-q"])
def test_edge_masks_match_reference_in_any_order(name):
    # shuffled, the label keys (piece, bottom, top) recur far apart and
    # most runs of shared labels are one tile long
    full = compiled(name)
    params = full.params
    for seed in range(40):
        rng = Random(seed)
        tiles = list(related_tiles(rng, name, rng.randint(1, 12)))
        rng.shuffle(tiles)
        reference = by_side(params, reference_edge_masks(params, tiles))
        assert edge_masks(params, tuple(tiles)) == reference
    tiles = list(full.tiles)
    Random(7).shuffle(tiles)
    labels = [tile[:3] for tile in tiles]
    assert sum(a != b for a, b in zip(labels, labels[1:])) > len(tiles) // 2
    assert edge_masks(params, tuple(tiles)) == by_side(params, reference_edge_masks(params, tiles))


def test_edge_masks_one_tile():
    tile = compiled("identity-23").tiles[7]
    masks = edge_masks(P23, (tile,))
    assert masks == by_side(P23, reference_edge_masks(P23, (tile,)))
    assert masks[0, None] == {tile[0]: 1}  # piece


@lru_cache(maxsize=None)
def edge_index(name):
    """Tiles of a compiled tileset grouped by (edge, color)."""
    index = {}
    for tile in compiled(name).tiles:
        piece, bottom, top, left, right = tile
        keys = [("left", left), ("right", right), ("piece", piece)]
        keys += [("top", j, c) for j, c in enumerate(top)]
        keys += [("bottom", k, c) for k, c in enumerate(bottom)]
        for key in keys:
            index.setdefault(key, []).append(tile)
    return index


def related_tiles(rng, name, count):
    """Up to count tiles, each after the first matching an edge of an
    earlier one, so that small patches are sometimes tileable."""
    tiles = compiled(name).tiles
    params = compiled(name).params
    index = edge_index(name)
    chosen = [rng.choice(tiles)]
    while len(chosen) < count:
        piece, bottom, top, left, right = rng.choice(chosen)
        j, k = rng.randrange(params.m), rng.randrange(params.n)
        keys = [
            ("left", right),
            ("right", left),
            ("piece", piece),
            ("bottom", k, top[j]),
            ("top", j, bottom[k]),
        ]
        # a color of one piece's box may be on no tile of the other side
        key = rng.choice([key for key in keys if key in index])
        chosen.append(rng.choice(index[key]))
    return tuple(sorted(set(chosen)))


def random_small_patch(rng, params):
    """At most four cells, each added as an H, V or I partner of one
    already in the patch (or the ball of radius 0 or 1)."""
    if rng.random() < 0.25:
        return build_ball_patch(params, rng.randrange(2))
    steps = ["a" * params.m, "A" * params.m, "a", "A"]
    for shift in range(1 - params.n, params.m):
        up, down = ("a", "A") if shift > 0 else ("A", "a")
        steps += [up * abs(shift) + "T", "t" + down * abs(shift)]
    cells = [IDENTITY_ELEMENT]
    for _ in range(rng.randrange(1, 4)):
        cells.append(multiply(params, rng.choice(cells), rng.choice(steps)))
    return build_patch(params, cells)


def brute_force_tileable(params, patch, tiles) -> bool:
    constraints = constraints_for(params, patch)
    return any(
        all(constraint_satisfied(con, choice[con.a], choice[con.b]) for con in constraints)
        for choice in itertools.product(tiles, repeat=len(patch.cells))
    )


@pytest.mark.parametrize("name", ["identity-23", "rotation-22", "mixed-q"])
def test_search_agrees_with_brute_force(name):
    full = compiled(name)
    params = full.params
    verdicts = set()
    for seed in range(150):
        rng = Random(seed)
        tiles = related_tiles(rng, name, rng.randint(1, 6))
        patch = random_small_patch(rng, params)
        subset = Tileset(params, full.pam, runs_of(tiles))
        result = search_patch(subset, patch)
        assert result == reference_search(subset, patch), seed
        expected = brute_force_tileable(params, patch, tiles)
        assert isinstance(result, Found if expected else ExhaustedNoTiling), seed
        if expected:
            assert not check_assignment(params, patch, result.assignment)
            assert {tile for _, tile in result.assignment.pairs} <= set(tiles)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_mixed_q_row_tiles_are_enumerated():
    # D = 12 for both pieces, so a tile from either piece's row is the
    # very tuple the enumeration lists
    members = set(compiled("mixed-q").tiles)
    den = color_denominator(P23, MIXED_Q_MAP.pieces)
    rng = Random(52)
    for index, piece in enumerate(MIXED_Q_MAP.pieces):
        for _ in range(100):
            x = random_point_in(rng, piece.square)
            row = RowColors(P23, piece, x, index, den)
            for lam in (random_rational(rng, 20, 15) for _ in range(3)):
                assert row.run([(lam.numerator, lam.denominator, 1)])[0] in members


def test_mixed_q_h_rule_joins_pieces():
    # g and g a^m with g a outside the patch: only the H rule joins them,
    # so a piece-0 tile may sit beside a piece-1 tile whose left color has
    # the value of its right color
    ts = compiled("mixed-q")
    patch = build_patch(P23, [IDENTITY_ELEMENT, element_from_text(P23, "a2")])
    # neither tile matches itself, so a tiling must use both
    by_left = {
        color_value(left, 12): (piece, bottom, top, left, right)
        for piece, bottom, top, left, right in ts.tiles
        if piece == 1 and left != right
    }
    pair = next(
        ((piece, bottom, top, left, right), by_left[color_value(right, 12)])
        for piece, bottom, top, left, right in ts.tiles
        if piece == 0 and left != right and color_value(right, 12) in by_left
    )
    subset = Tileset(P23, MIXED_Q_MAP, runs_of(pair))
    result = search_patch(subset, patch)
    assert isinstance(result, Found)
    assert {tile[0] for _, tile in result.assignment.pairs} == {0, 1}  # pieces
    assert brute_force_tileable(P23, patch, pair)
