"""Command-line front end.

Exit codes: 0 success (or tiling found), 1 verification failure or
exhausted search, 2 budget exceeded, 3 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .errors import BsDominoError, ParseError
from .group import BsParams, element_from_text, lambda_val, parse_word, phi
from .pam import (
    CycleDetected,
    EscapedAfter,
    load_map,
    locate_piece,
    orbit,
    parse_point,
)
from .rationals import fmt_rat
from .tileset import (
    enumerate_tileset,
    export_tileset,
    parse_tileset,
    tile_to_line,
    verify_tileset,
)
from .tiling import (
    ExhaustedNoTiling,
    Found,
    build_ball_patch,
    export_dot,
    export_tiling_text,
    row_bottom_reading,
    row_top_reading,
    search_patch,
    simulate_row,
)
from . import balrep

OK, FAIL, BUDGET, BAD_INPUT = 0, 1, 2, 3


@dataclass
class RunConfig:
    command: str
    map_path: str | None = None
    word: str | None = None
    tileset_path: str | None = None
    mn: tuple[int, int] | None = None
    radius: int = 2
    horizon: int = 100
    budget: int = 1_000_000
    seed: int = 0
    out: str | None = None
    point: str | None = None
    piece: int | None = None
    g0: str = ""
    k_range: tuple[int, int] = (-5, 5)
    dot: str | None = None
    out_tiling: str | None = None


def _parse_mn(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--mn expects 'm,n', got {text!r}")
    m, n = int(parts[0]), int(parts[1])
    if m < 1 or n < 1:
        raise ParseError(f"--mn needs positive integers, got {text!r}")
    return m, n


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--range expects 'lo,hi', got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ParseError(f"--range lower bound above upper bound: {text!r}")
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as bad input (exit 3), not argparse's exit 2,
    which is the budget-exceeded code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bsdomino",
        description="Wang tilesets on BS(m,n) from rational piecewise affine maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="print the plane embedding of a word")
    p.add_argument("word")
    p.add_argument("--mn", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compile", help="enumerate the tileset of a map spec")
    p.add_argument("map")
    p.add_argument("--mn")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="recheck an exported tileset file")
    p.add_argument("tileset")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("orbit", help="iterate a map spec from a point")
    p.add_argument("map")
    p.add_argument("--mn")
    p.add_argument("--point", required=True)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate-row", help="row of tiles along a coset of a")
    p.add_argument("map")
    p.add_argument("--mn")
    p.add_argument("--point", required=True)
    p.add_argument("--piece", type=int)
    p.add_argument("--g0", default="")
    p.add_argument("--range", dest="k_range", default="-5,5")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="tile a ball patch with the compiled tileset")
    p.add_argument("map")
    p.add_argument("--mn")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--dot")
    p.add_argument("--out-tiling", dest="out_tiling")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-dot", help="DOT graph of a ball patch")
    p.add_argument("map")
    p.add_argument("--mn")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, seed=getattr(args, "seed", 0))
    cfg.map_path = getattr(args, "map", None)
    cfg.word = getattr(args, "word", None)
    cfg.tileset_path = getattr(args, "tileset", None)
    if getattr(args, "mn", None):
        cfg.mn = _parse_mn(args.mn)
    cfg.radius = getattr(args, "radius", 2)
    cfg.horizon = getattr(args, "horizon", 100)
    cfg.budget = getattr(args, "budget", 1_000_000)
    cfg.out = getattr(args, "out", None)
    cfg.point = getattr(args, "point", None)
    cfg.piece = getattr(args, "piece", None)
    cfg.g0 = getattr(args, "g0", "")
    if getattr(args, "k_range", None):
        cfg.k_range = _parse_range(args.k_range)
    cfg.dot = getattr(args, "dot", None)
    cfg.out_tiling = getattr(args, "out_tiling", None)
    if cfg.radius < 0:
        raise ParseError("--radius must be nonnegative")
    if cfg.horizon < 0:
        raise ParseError("--horizon must be nonnegative")
    if cfg.budget < 1:
        raise ParseError("--budget must be positive")
    return cfg


def _load(cfg: RunConfig):
    params, pam = load_map(cfg.map_path)
    if cfg.mn is not None:
        params = BsParams(*cfg.mn)
    return params, pam


def cmd_phi(cfg: RunConfig) -> int:
    params = BsParams(*cfg.mn)
    a_val, b_val = phi(params, parse_word(cfg.word))
    print(f"({fmt_rat(a_val)}, {b_val})")
    return OK


def cmd_compile(cfg: RunConfig) -> int:
    params, pam = _load(cfg)
    ts = enumerate_tileset(params, pam)
    out = cfg.out or (os.path.splitext(cfg.map_path)[0] + ".tiles")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(export_tileset(ts))
    print(
        f"m={params.m} n={params.n} pieces={len(pam.pieces)}"
        f" tiles={len(ts.tiles)} out={out}"
    )
    return OK


def cmd_verify(cfg: RunConfig) -> int:
    with open(cfg.tileset_path, "r", encoding="utf-8") as handle:
        ts = parse_tileset(handle.read())
    faults = verify_tileset(ts)
    if not faults:
        print(f"ok=true tiles={len(ts.tiles)}")
        return OK
    first = faults[0]
    print(f"ok=false faults={len(faults)} line={first.line} reason={first.reason}")
    print(f"tile: {tile_to_line(first.tile)}")
    return FAIL


def cmd_orbit(cfg: RunConfig) -> int:
    params, pam = _load(cfg)
    report = orbit(pam, parse_point(cfg.point), cfg.horizon)
    outcome = report.outcome
    if isinstance(outcome, EscapedAfter):
        print(f"outcome=escaped after={outcome.steps} states={len(report.states)}")
    elif isinstance(outcome, CycleDetected):
        print(
            f"outcome=cycle j={outcome.j} k={outcome.k} states={len(report.states)}"
        )
    else:
        print(f"outcome=alive steps={outcome.steps} states={len(report.states)}")
    for idx, (piece, point) in enumerate(report.states[:10]):
        print(f"state {idx}: piece={piece} x={point}")
    return OK


def cmd_simulate_row(cfg: RunConfig) -> int:
    params, pam = _load(cfg)
    x = parse_point(cfg.point)
    piece_index = cfg.piece
    if piece_index is None:
        piece_index = locate_piece(pam, x)
        if piece_index is None:
            raise ParseError(f"point {cfg.point} is outside the domain")
    g0 = element_from_text(params, cfg.g0)
    tiles = simulate_row(params, pam, piece_index, x, g0, cfg.k_range)
    k_lo, _ = cfg.k_range

    lam0 = lambda_val(params, g0)
    fx = pam.pieces[piece_index].apply(x)
    top, lo, hi = row_top_reading(params, tiles, k_lo)
    top_ok = top == list(balrep.window(fx, params.m * lam0, lo, hi).values)
    bottom_ok = True
    for p in range(params.m):
        colors, z_shift, lo, hi = row_bottom_reading(params, tiles, k_lo, p)
        if not colors:
            continue
        want = balrep.window(x, params.n * lam0 + z_shift, lo, hi).values
        bottom_ok = bottom_ok and colors == list(want)
    print(
        f"tiles={len(tiles)} piece={piece_index}"
        f" bottom_ok={str(bottom_ok).lower()} top_ok={str(top_ok).lower()}"
    )
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            for tile in tiles:
                handle.write(tile_to_line(tile) + "\n")
    return OK if (bottom_ok and top_ok) else FAIL


def cmd_search(cfg: RunConfig) -> int:
    params, pam = _load(cfg)
    ts = enumerate_tileset(params, pam)
    patch = build_ball_patch(params, cfg.radius)
    result = search_patch(ts, patch, budget=cfg.budget)
    if isinstance(result, Found):
        print(
            f"result=found cells={len(patch.cells)} tiles={len(ts.tiles)}"
            f" nodes={result.nodes}"
        )
        if cfg.dot:
            with open(cfg.dot, "w", encoding="utf-8") as handle:
                handle.write(export_dot(params, patch, result.assignment, ts))
        if cfg.out_tiling:
            with open(cfg.out_tiling, "w", encoding="utf-8") as handle:
                handle.write(export_tiling_text(result.assignment, ts))
        return OK
    if isinstance(result, ExhaustedNoTiling):
        print(
            f"result=exhausted cells={len(patch.cells)} tiles={len(ts.tiles)}"
            f" nodes={result.nodes}"
        )
        return FAIL
    print(f"result=budget-exceeded nodes={result.nodes}")
    return BUDGET


def cmd_export_dot(cfg: RunConfig) -> int:
    params, _ = _load(cfg)
    patch = build_ball_patch(params, cfg.radius)
    text = export_dot(params, patch)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"cells={len(patch.cells)} out={cfg.out}")
    else:
        print(text, end="")
    return OK


_COMMANDS = {
    "phi": cmd_phi,
    "compile": cmd_compile,
    "verify": cmd_verify,
    "orbit": cmd_orbit,
    "simulate-row": cmd_simulate_row,
    "search": cmd_search,
    "export-dot": cmd_export_dot,
}


def main(argv=None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        return _COMMANDS[cfg.command](cfg)
    except (BsDominoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
