"""The README's CLI walkthrough, run in-process through bsdomino.cli.main."""

from __future__ import annotations

import io
import re
import time
from contextlib import redirect_stdout
from pathlib import Path

from bsdomino.cli import main


def steps(root: Path, outdir: Path):
    """(argv, exit code, stdout lines) for each walkthrough command."""
    identity = str(root / "maps" / "identity-23.map")
    rotation = str(root / "maps" / "rotation-22.map")
    escape = str(root / "maps" / "escape.map")
    tiles = str(outdir / "identity.tiles")
    dot = str(outdir / "patch.dot")
    return [
        (["phi", "--mn", "3,2", "taT a2 t A T A-2"], 0, ["(0/1, 0)"]),
        (["compile", identity, "--out", tiles], 0,
         [f"m=2 n=3 pieces=1 tiles=14400 out={tiles}"]),
        (["verify", tiles], 0, ["ok=true tiles=14400"]),
        (["orbit", rotation, "--point", "1/2,1/2", "--horizon", "8"], 0, [
            "outcome=cycle j=0 k=4 states=4",
            "state 0: piece=0 x=(1/2, 1/2)",
            "state 1: piece=1 x=(-1/2, 1/2)",
            "state 2: piece=2 x=(-1/2, -1/2)",
            "state 3: piece=3 x=(1/2, -1/2)",
        ]),
        (["simulate-row", identity, "--point", "1/2,1/2", "--range", "0,9"], 0,
         ["tiles=10 piece=0 bottom_ok=true top_ok=true"]),
        (["search", identity, "--radius", "2"], 0,
         ["result=found cells=15 tiles=14400 nodes=15"]),
        (["search", escape, "--radius", "2"], 1,
         ["result=exhausted cells=15 tiles=254016 nodes=0"]),
        (["export-dot", identity, "--radius", "1", "--out", dot], 0,
         [f"cells=5 out={dot}"]),
    ]


def _without_nodes(line: str) -> str:
    # node counts depend on the search strategy; the answer does not
    return re.sub(r" nodes=\d+", "", line)


def run(root: Path, outdir: Path) -> list[tuple[str, bool, float]]:
    """Run every step; return (command, output as expected, seconds) per step."""
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for argv, want_code, want_lines in steps(root, outdir):
        buffer = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buffer):
            code = main(argv)
        seconds = time.perf_counter() - start
        got = [_without_nodes(line) for line in buffer.getvalue().splitlines()]
        ok = code == want_code and got == [_without_nodes(line) for line in want_lines]
        results.append((argv[0], ok, seconds))
    return results
