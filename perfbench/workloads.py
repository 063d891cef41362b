"""The benchmark workloads: inputs made from the seed, set-up, ops and checks.

Every op calls the public functions of bsdomino inside one span per call,
so the traced run can split op time by layer.  An op's `run` is what the
benchmark times; its `check` runs afterwards, outside the timed interval,
and compares the output with the expected one.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bsdomino.balrep import window
from bsdomino.group import element_from_text, lambda_val
from bsdomino.pam import AliveUpTo, CycleDetected, load_map, orbit
from bsdomino.rationals import Vec2, fmt_rat
from bsdomino.tileset import (
    candidate_count,
    enumerate_tileset,
    export_tileset,
    parse_tileset,
    verify_tileset,
)
from bsdomino.tiling import (
    BudgetExceeded,
    Found,
    assignment_from_orbit,
    build_ball_patch,
    check_assignment,
    constraints_for,
    row_bottom_reading,
    row_top_reading,
    search_patch,
    simulate_row,
)

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

WITNESS_MAPS = ("identity-23", "rotation-22", "half2-23", "rotation-32")
WITNESS_POINTS_PER_MAP = 40
WITNESS_MAX_DEN = 64
WITNESS_MAX_LETTERS = 16
WITNESS_K_RANGE = (-20, 20)
WITNESS_RADIUS = 4
# the radius-4 ball spans 9 levels; cyclic orbits stop earlier
WITNESS_HORIZON = 12

NEGATIVE_CONTROL_MAP = "half2-23"
SMOKE_MAP = "rotation-22"


@dataclass
class Outcome:
    verdict: str
    correct: bool = True   # output equals the expected one
    failed: bool = False   # counts in `failed`: wrong output or raised
    undecided: bool = False  # a search that ran out of its node budget
    nodes: int | None = None
    tiles: int | None = None


def map_path(root: Path, name: str) -> Path:
    return root / EXPECTED["maps"][name]["path"]


def _mismatch(what: str) -> Outcome:
    return Outcome(f"wrong {what}", correct=False, failed=True)


# ---------------------------------------------------------------------------
# roundtrip: compile ops and verify ops, as `bsdomino compile` / `verify`

@dataclass
class CompileOp:
    map: str
    source: Path
    out: Path
    candidates: int
    kind = "compile"

    def case(self) -> dict:
        return {"map": self.map}

    def run(self, tr):
        with tr.span("pam.load"):
            params, pam = load_map(str(self.source))
        with tr.span("tileset.enumerate"):
            ts = enumerate_tileset(params, pam)
        tr.count("tileset.candidates", self.candidates)
        tr.count("tileset.tiles", len(ts.tiles))
        with tr.span("tileset.export"):
            text = export_tileset(ts)
        tr.count("tileset.export_bytes", len(text))
        with tr.span("io.write"):
            with open(self.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text, len(ts.tiles)

    def check(self, result) -> Outcome:
        text, tiles = result
        want = EXPECTED["maps"][self.map]
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        if self.candidates != want["candidates"]:
            return _mismatch("candidate count")
        if tiles != want["tiles"]:
            return _mismatch("tile count")
        if digest != want["sha256"]:
            return _mismatch("export digest")
        return Outcome("exported", tiles=tiles)


@dataclass
class VerifyOp:
    map: str
    source: Path
    kind = "verify"

    def case(self) -> dict:
        return {"map": self.map}

    def run(self, tr):
        with tr.span("io.read"):
            with open(self.source, "r", encoding="utf-8") as handle:
                text = handle.read()
        with tr.span("tileset.parse"):
            ts = parse_tileset(text)
        with tr.span("tileset.verify"):
            faults = verify_tileset(ts)
        tr.count("tileset.faults", len(faults))
        return len(ts.tiles), faults

    def check(self, result) -> Outcome:
        tiles, faults = result
        if faults:
            return _mismatch(f"verdict: {len(faults)} faults")
        if tiles != EXPECTED["maps"][self.map]["tiles"]:
            return _mismatch("tile count")
        return Outcome("ok", tiles=tiles)


class Roundtrip:
    name = "roundtrip"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.maps = (SMOKE_MAP,) if smoke else ("identity-23", "rotation-22", "half2-23")

    def setup(self, tr) -> list[list]:
        """Load the maps; each unit is one map's compile op then verify op."""
        units = []
        for name in self.maps:
            source = map_path(self.root, name)
            with tr.span("pam.load"):
                params, pam = load_map(str(source))
            out = self.workdir / f"{name}.tiles"
            units.append([
                CompileOp(name, source, out, candidate_count(params, pam)),
                VerifyOp(name, out),
            ])
        return units


# ---------------------------------------------------------------------------
# search: ball patch, constraints and search, as `bsdomino search`

@dataclass
class SearchOp:
    map: str
    radius: int
    tileset: object
    budget: int
    want_verdict: str
    want_cells: int
    kind = "search"

    def case(self) -> dict:
        return {"map": self.map, "radius": self.radius}

    def run(self, tr):
        params = self.tileset.params
        with tr.span("tiling.ball"):
            patch = build_ball_patch(params, self.radius)
        tr.count("tiling.cells", len(patch.cells))
        with tr.span("tiling.constraints"):
            constraints = constraints_for(params, patch)
        tr.count("tiling.constraints", len(constraints))
        with tr.span("tiling.search"):
            result = search_patch(self.tileset, patch, budget=self.budget)
        tr.count("tiling.nodes", result.nodes)
        if not isinstance(result, BudgetExceeded):
            tr.count("tiling.decided_nodes", result.nodes)
            if isinstance(result, Found):
                tr.count("tiling.assigned_cells", len(patch.cells))
        return patch, result

    def check(self, result) -> Outcome:
        patch, found = result
        tiles = len(self.tileset.tiles)
        if len(patch.cells) != self.want_cells:
            return _mismatch("cell count")
        if tiles != EXPECTED["maps"][self.map]["tiles"]:
            return _mismatch("tile count")
        if isinstance(found, BudgetExceeded):
            # a bounded search may stop undecided; it did what it was asked,
            # and a wrong decided verdict below still fails the op
            return Outcome("budget-exceeded", undecided=True, nodes=found.nodes, tiles=tiles)
        verdict = "found" if isinstance(found, Found) else "exhausted"
        if verdict != self.want_verdict:
            return _mismatch(f"verdict: {verdict}")
        if isinstance(found, Found):
            cells = [g for g, _ in found.assignment.pairs]
            if cells != list(patch.cells):
                return _mismatch("assignment cells")
            if check_assignment(self.tileset.params, patch, found.assignment):
                return _mismatch("assignment: violates constraints")
        return Outcome(verdict, nodes=found.nodes, tiles=tiles)


class Search:
    name = "search"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.budget = EXPECTED["search"]["budget"]
        cases = EXPECTED["search"]["cases"]
        if smoke:
            cases = [c for c in cases if (c["map"], c["radius"]) in {(SMOKE_MAP, 4), ("escape", 2)}]
        self.cases = cases

    def setup(self, tr) -> list[list]:
        """Load every map of the list and compile its tileset."""
        tilesets = {}
        for name in dict.fromkeys(c["map"] for c in self.cases):
            with tr.span("pam.load"):
                params, pam = load_map(str(map_path(self.root, name)))
            with tr.span("tileset.enumerate"):
                tilesets[name] = enumerate_tileset(params, pam)
            tr.count("tileset.candidates", candidate_count(params, pam))
            tr.count("tileset.tiles", len(tilesets[name].tiles))
        return [
            [SearchOp(c["map"], c["radius"], tilesets[c["map"]], self.budget,
                      c["verdict"], c["cells"])]
            for c in self.cases
        ]


# ---------------------------------------------------------------------------
# witness: orbit, base word, row simulation and orbit witness per point

@dataclass
class WitnessPoint:
    """A generated input: a point of one piece and a base word."""

    map: str
    piece: int
    x: Vec2
    word: str


def witness_points(root: Path, seed: int, maps, per_map: int) -> list[WitnessPoint]:
    """Seeded rational points, denominators at most 64, in random pieces."""
    rng = random.Random(seed)
    points = []
    for name in maps:
        with open(map_path(root, name), "r", encoding="utf-8") as handle:
            squares = [p["square"] for p in json.load(handle)["pieces"]]
        for _ in range(per_map):
            piece = rng.randrange(len(squares))
            c1, c2 = squares[piece]
            d1 = rng.randint(1, WITNESS_MAX_DEN)
            d2 = rng.randint(1, WITNESS_MAX_DEN)
            x = Vec2(c1 + Fraction(rng.randint(0, d1), d1),
                     c2 + Fraction(rng.randint(0, d2), d2))
            word = "".join(rng.choice("aAtT") for _ in range(rng.randint(0, WITNESS_MAX_LETTERS)))
            points.append(WitnessPoint(name, piece, x, word))
    return points


@dataclass
class WitnessOp:
    point: WitnessPoint
    params: object
    pam: object
    ball: object
    kind = "witness"

    def case(self) -> dict:
        p = self.point
        return {"map": p.map, "piece": p.piece, "point": str(p.x), "g0": p.word or "e"}

    def run(self, tr):
        params, pam, p = self.params, self.pam, self.point
        with tr.span("pam.orbit"):
            report = orbit(pam, p.x, WITNESS_HORIZON)
        outcome = report.outcome
        steps = outcome.k if isinstance(outcome, CycleDetected) else outcome.steps
        tr.count("pam.orbit_steps", steps)
        with tr.span("group.word"):
            g0 = element_from_text(params, p.word)
            lam0 = lambda_val(params, g0)
        tr.count("group.word_letters", len(p.word))
        k_lo = WITNESS_K_RANGE[0]
        with tr.span("tiling.row"):
            tiles = simulate_row(params, pam, p.piece, p.x, g0, WITNESS_K_RANGE)
            top, lo, hi = row_top_reading(params, tiles, k_lo)
            bottoms = [row_bottom_reading(params, tiles, k_lo, phase)
                       for phase in range(params.m)]
        tr.count("tiling.row_tiles", len(tiles))
        fx = pam.pieces[p.piece].apply(p.x)
        readings = [(top, fx, params.m * lam0, lo, hi)]
        readings += [(colors, p.x, params.n * lam0 + z_shift, b_lo, b_hi)
                     for colors, z_shift, b_lo, b_hi in bottoms if colors]
        windows = []
        for colors, point, z, w_lo, w_hi in readings:
            with tr.span("balrep.window"):
                windows.append((colors, window(point, z, w_lo, w_hi).values))
            tr.count("balrep.terms", w_hi - w_lo + 1)
        with tr.span("tiling.witness"):
            assignment = assignment_from_orbit(params, pam, report, self.ball)
        tr.count("tiling.witness_cells", len(assignment.pairs))
        return outcome, len(tiles), windows, assignment

    def check(self, result) -> Outcome:
        outcome, tiles, windows, assignment = result
        if not isinstance(outcome, (CycleDetected, AliveUpTo)):
            return _mismatch(f"orbit outcome: {outcome}")
        if tiles != WITNESS_K_RANGE[1] - WITNESS_K_RANGE[0] + 1:
            return _mismatch("row length")
        for colors, want in windows:
            if colors != list(want):
                return _mismatch("row: differs from its balanced representation")
        if [g for g, _ in assignment.pairs] != list(self.ball.cells):
            return _mismatch("witness cells")
        return Outcome("witnessed", tiles=tiles)


class Witness:
    name = "witness"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        maps = (SMOKE_MAP, "identity-23") if smoke else WITNESS_MAPS
        self.points = witness_points(root, seed, maps, 2 if smoke else WITNESS_POINTS_PER_MAP)

    def setup(self, tr) -> list[list]:
        """Load the maps and build one radius-4 ball per group."""
        loaded = {}
        balls = {}
        for name in dict.fromkeys(p.map for p in self.points):
            with tr.span("pam.load"):
                params, pam = load_map(str(map_path(self.root, name)))
            loaded[name] = (params, pam)
            if params not in balls:
                with tr.span("tiling.ball"):
                    balls[params] = build_ball_patch(params, WITNESS_RADIUS)
                tr.count("tiling.cells", len(balls[params].cells))
        units = []
        for p in self.points:
            params, pam = loaded[p.map]
            units.append([WitnessOp(p, params, pam, balls[params])])
        return units


WORKLOADS = {w.name: w for w in (Roundtrip, Search, Witness)}


# ---------------------------------------------------------------------------
# negative control: verify must reject a tileset with one corrupted tile

@dataclass
class NegativeControl:
    """Shift one tile's right color by 1 in a fresh export of the map.

    verify_tileset must report exactly that tile, on its own line, as
    violating the transport equation.  The shift keeps the sort order:
    within a piece, bottom, top and left colors fix the right color.
    """

    map: str
    source: Path
    rng: random.Random
    kind = "control"

    def case(self) -> dict:
        return {"map": self.map}

    def run(self, tr):
        params, pam = load_map(str(self.source))
        lines = export_tileset(enumerate_tileset(params, pam)).splitlines()
        header = 2 + len(pam.pieces)
        victim = self.rng.randrange(header, len(lines))
        head, _, right = lines[victim].rpartition(" | r: ")
        r1, r2 = right.split(",")
        lines[victim] = f"{head} | r: {fmt_rat(Fraction(r1) + 1)},{r2}"
        faults = verify_tileset(parse_tileset("\n".join(lines) + "\n"))
        return victim, faults, len(lines) - header

    def check(self, result) -> Outcome:
        victim, faults, tiles = result
        caught = (
            len(faults) == 1
            and faults[0].reason == "transport equation violated"
            and faults[0].line == victim + 1
        )
        if not caught:
            return _mismatch(f"verdict: corrupted tile not caught, {len(faults)} faults")
        return Outcome("rejected", tiles=tiles)
