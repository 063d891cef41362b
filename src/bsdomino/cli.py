"""Command-line front end.

Exit codes: 0 success (or tiling found), 1 verification failure or
exhausted search, 2 budget exceeded, 3 bad input.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

from .errors import BsDominoError, ParseError
from .group import BsParams, element_from_text, lambda_val, phi
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
    color_denominator,
    enumerate_tileset,
    export_lines,
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


def _int_pair(text: str, form: str) -> tuple[int, int]:
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects '{form}', got {text!r}") from None
    return first, second


def _parse_mn(text: str) -> tuple[int, int]:
    m, n = _int_pair(text, "m,n")
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"needs positive integers, got {text!r}")
    return m, n


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = _int_pair(text, "lo,hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"lower bound above upper bound: {text!r}")
    return lo, hi


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_NEGATIVE_VALUE = re.compile(r"-[0-9]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join '--option -3,2' into '--option=-3,2'.

    argparse reads a separate value such as -3,2 or -1/2,1/2 as an
    option of its own, since only plain numbers like -3 count as
    negative; the joined form is its documented way to pass one.  Every
    long option here but --help (or an abbreviation of it) takes a
    value; nothing after '--' is touched.
    """
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        takes_value = (
            prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
        )
        if takes_value and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


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
    p.set_defaults(run=cmd_phi)
    p.add_argument("word")
    p.add_argument("--mn", type=_parse_mn, required=True)

    p = sub.add_parser("compile", help="enumerate the tileset of a map spec")
    p.set_defaults(run=cmd_compile)
    p.add_argument("map")
    p.add_argument("--mn", type=_parse_mn)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="recheck an exported tileset file")
    p.set_defaults(run=cmd_verify)
    p.add_argument("tileset")

    p = sub.add_parser("orbit", help="iterate a map spec from a point")
    p.set_defaults(run=cmd_orbit)
    p.add_argument("map")
    p.add_argument("--point", required=True)
    p.add_argument("--horizon", type=_int_at_least(0), default=100)

    p = sub.add_parser("simulate-row", help="row of tiles along a coset of a")
    p.set_defaults(run=cmd_simulate_row)
    p.add_argument("map")
    p.add_argument("--mn", type=_parse_mn)
    p.add_argument("--point", required=True)
    p.add_argument("--piece", type=int)
    p.add_argument("--g0", default="")
    p.add_argument("--range", dest="k_range", type=_parse_range, default=(-5, 5))
    p.add_argument("--out")

    p = sub.add_parser("search", help="tile a ball patch with the compiled tileset")
    p.set_defaults(run=cmd_search)
    p.add_argument("map")
    p.add_argument("--mn", type=_parse_mn)
    p.add_argument("--radius", type=_int_at_least(0), default=2)
    p.add_argument("--budget", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--dot")
    p.add_argument("--out-tiling", dest="out_tiling")

    p = sub.add_parser("export-dot", help="DOT graph of a ball patch")
    p.set_defaults(run=cmd_export_dot)
    p.add_argument("map")
    p.add_argument("--mn", type=_parse_mn)
    p.add_argument("--radius", type=_int_at_least(0), default=2)
    p.add_argument("--out")

    return parser


def _load(args: argparse.Namespace):
    params, pam = load_map(args.map)
    if args.mn is not None:
        params = BsParams(*args.mn)
    return params, pam


def cmd_phi(args: argparse.Namespace) -> int:
    params = BsParams(*args.mn)
    a_val, b_val = phi(params, args.word)
    print(f"({fmt_rat(a_val)}, {b_val})")
    return OK


def cmd_compile(args: argparse.Namespace) -> int:
    params, pam = _load(args)
    ts = enumerate_tileset(params, pam)
    out = args.out or (os.path.splitext(args.map)[0] + ".tiles")
    with open(out, "w", encoding="utf-8") as handle:
        lines = export_lines(ts)  # one write per batch: a write per string is slower
        while batch := "".join(islice(lines, 4096)):
            handle.write(batch)
    print(
        f"m={params.m} n={params.n} pieces={len(pam.pieces)}"
        f" tiles={len(ts.tiles)} out={out}"
    )
    return OK


def cmd_verify(args: argparse.Namespace) -> int:
    # a byte that is not UTF-8 reads as a lone surrogate, which no field of
    # the layout accepts: bad input, at its own line
    with open(args.tileset, "r", encoding="utf-8", errors="surrogateescape") as handle:
        ts = parse_tileset(handle)
    faults = verify_tileset(ts)
    if not faults:
        print(f"ok=true tiles={len(ts.tiles)}")
        return OK
    first = faults[0]
    print(f"ok=false faults={len(faults)} line={first.line} reason={first.reason}")
    print(f"tile: {tile_to_line(first.tile, ts.denominator)}")
    return FAIL


def cmd_orbit(args: argparse.Namespace) -> int:
    _, pam = load_map(args.map)
    report = orbit(pam, parse_point(args.point), args.horizon)
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


def cmd_simulate_row(args: argparse.Namespace) -> int:
    params, pam = _load(args)
    x = parse_point(args.point)
    piece_index = args.piece
    if piece_index is None:
        piece_index = locate_piece(pam, x)
        if piece_index is None:
            raise ParseError(f"point {args.point} is outside the domain")
    g0 = element_from_text(params, args.g0)
    tiles = simulate_row(params, pam, piece_index, x, g0, args.k_range)
    k_lo, _ = args.k_range

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
    if args.out:
        den = color_denominator(params, pam.pieces)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(f"{tile_to_line(tile, den)}\n" for tile in tiles)
    return OK if (bottom_ok and top_ok) else FAIL


def cmd_search(args: argparse.Namespace) -> int:
    params, pam = _load(args)
    ts = enumerate_tileset(params, pam)
    patch = build_ball_patch(params, args.radius)
    result = search_patch(ts, patch, budget=args.budget)
    if isinstance(result, Found):
        print(
            f"result=found cells={len(patch.cells)} tiles={len(ts.tiles)}"
            f" nodes={result.nodes}"
        )
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(export_dot(params, patch, result.assignment, ts))
        if args.out_tiling:
            with open(args.out_tiling, "w", encoding="utf-8") as handle:
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


def cmd_export_dot(args: argparse.Namespace) -> int:
    params, _ = _load(args)
    patch = build_ball_patch(params, args.radius)
    text = export_dot(params, patch)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"cells={len(patch.cells)} out={args.out}")
    else:
        print(text, end="")
    return OK


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser().parse_args(_attach_negative_values(argv))
        return args.run(args)
    except (BsDominoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
