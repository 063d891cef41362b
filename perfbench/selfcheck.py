"""Fast self-check of the benchmark on its smallest inputs.

Run from the repository root:

    python3 perfbench/selfcheck.py

It runs every workload with --smoke, once untraced and once traced, in
this process, and asserts that the result line names every metric of
BENCHMARK.json with its unit and that every output check passed.  It
also confirms the known answers of the search list (an orbit witness
tiles each patch whose answer is "found") and that the benchmark exits
with an error and no result when only BENCHMARK.json and perfbench/ are
present.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import run

SEED = 1
SECONDS = 0.5


def result_of(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(argv)
    assert code == 0, f"{argv}: exit code {code}"
    return json.loads(buffer.getvalue().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", str(SEED),
                    "--seconds", str(SECONDS), "--trace", str(trace), "--smoke"]
            result = result_of(argv)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"], f"{workload} trace={trace}: an output check failed"
            assert result["failed"] == 0, f"{workload} trace={trace}: {result['failed']} failed"
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok  {workload:<9} trace={trace}  {len(got)} metrics,"
                  f" {result['attempted']} ops")


def check_known_answers() -> None:
    from bsdomino.pam import load_map, orbit
    from bsdomino.rationals import Vec2
    from bsdomino.tiling import assignment_from_orbit, build_ball_patch
    from workloads import EXPECTED, WITNESS_HORIZON, map_path

    start = Vec2(Fraction(1, 2), Fraction(1, 2))
    for case in EXPECTED["search"]["cases"]:
        if case["verdict"] != "found":
            continue
        params, pam = load_map(str(map_path(run.ROOT, case["map"])))
        patch = build_ball_patch(params, case["radius"])
        assert len(patch.cells) == case["cells"], case
        assignment_from_orbit(params, pam, orbit(pam, start, WITNESS_HORIZON), patch)
        print(f"ok  an orbit witness tiles {case['map']} at radius {case['radius']}")


def check_fails_without_sources(spec: dict) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0, "ran without the program's sources"
    assert not done.stdout.strip(), f"printed a result: {done.stdout!r}"
    print("ok  fails without a result when only the benchmark is present")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.ROOT / "src"))
    check_metrics(spec)
    check_known_answers()
    check_fails_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
