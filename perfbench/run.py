"""Benchmark of the bsdomino pipeline: one workload per run, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

A run alternates set-up and whole passes over the workload's fixed op
list, in a seeded order, until --seconds have gone by; setup_s and
pass_s are the medians over the run.  Each op's output is checked after
its timed interval.  A negative control follows: verify must reject a
tileset with one corrupted tile.

Times are reported in reference seconds (see speed.py): each op's time
scaled by a fixed reference task timed around it, which cancels the
host's speed drift.  The detail rows keep the raw times.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 spends half the seconds untraced and half traced, runs the
README walkthrough, and prints the per-layer metrics: each layer's self
time and counts for one set-up plus one pass, and the tracing overhead
on each end-to-end metric.  The time overhead is the spans recorded
times the cost of one span, traced minus untraced; a traced pass minus
an untraced one would mostly measure the host's speed drift.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; `failed` counts ops that gave a
wrong output or raised, not searches stopped undecided by their node
budget.  One detail row per op, headed by the run's metadata, goes to
.perfbench/rows/; the traced run's spans go to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer, span_cost
from speed import Speedometer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
# Before each pass the workload is set up again, at least once and until
# SETUP_BURST_S have gone by, and at least MIN_SETUPS times in a run: the
# host's speed drifts, so set-up times are sampled across the run, as pass
# times are.
SETUP_BURST_S = 0.3
MIN_SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = (
    "pam.load", "pam.orbit", "group.word", "balrep.window",
    "tileset.enumerate", "tileset.export", "tileset.parse", "tileset.verify",
    "tiling.ball", "tiling.constraints", "tiling.search", "tiling.row", "tiling.witness",
    "io.write", "io.read",
)
LAYER_COUNTS = {
    "pam.orbit_steps": "count",
    "group.word_letters": "count",
    "balrep.terms": "count",
    "tileset.candidates": "count",
    "tileset.tiles": "count",
    "tileset.export_bytes": "bytes",
    "tileset.faults": "count",
    "tiling.cells": "count",
    "tiling.constraints": "count",
    "tiling.nodes": "count",
    "tiling.row_tiles": "count",
    "tiling.witness_cells": "count",
}
GLUE_SPANS = ("bench.setup", "bench.op")


PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    "tileset.keep_ratio": "ratio",
    "tiling.node_yield": "ratio",
    "cli.walkthrough_s": "s",
    "bench.glue_s": "s",
    "trace.spans": "count",
    "trace.self_sum_s": "s",
    "trace.untraced.setup_s": "s",
    "trace.untraced.pass_s": "s",
    "trace.overhead.setup_s": "s",
    "trace.overhead.pass_s": "s",
    "trace.overhead.peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Log:
    """Op counts, the correctness verdict and one detail row per op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.correct = True
        self.rows: list[dict] = []

    def record(self, phase: str, kind: str, case: dict, seconds: float, outcome,
               cpu_seconds: float | None = None) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.undecided += outcome.undecided
        self.correct = self.correct and outcome.correct
        self.rows.append({
            "phase": phase, "kind": kind, **case, "time_s": seconds, "cpu_s": cpu_seconds,
            "verdict": outcome.verdict, "nodes": outcome.nodes, "tiles": outcome.tiles,
        })


def run_op(op, tracer, log: Log, phase: str) -> float:
    tracer.begin_op(log.attempted)
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with tracer.span("bench.op"):
            result = op.run(tracer)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        outcome = op.check(result)
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        traceback.print_exc()
        from workloads import Outcome
        outcome = Outcome(f"raised {type(exc).__name__}", correct=False, failed=True)
    log.record(phase, op.kind, op.case(), elapsed, outcome, cpu)
    return elapsed


def setup_burst(work, tracer, setups: list[tuple[float, float]]):
    """Set the workload up until SETUP_BURST_S are used, appending each
    set-up's (raw, reference) seconds; return the last set-up's ops."""
    tracer.begin_phase("setup")
    speed = Speedometer()
    raw = []
    first = time.perf_counter()
    while True:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            units = work.setup(tracer)
        raw.append(time.perf_counter() - start)
        speed.op_done(raw[-1])
        if time.perf_counter() - first >= SETUP_BURST_S:
            setups.extend(zip(raw, speed.close()))
            return units
        units = None  # free this set-up's products before timing the next


def run_pass(units, tracer, log: Log, phase: str) -> tuple[float, float]:
    """Run every op once; return their (raw, reference) seconds."""
    speed = Speedometer()
    raw = []
    for unit in units:
        for op in unit:
            raw.append(run_op(op, tracer, log, phase))
            speed.op_done(raw[-1])
    ref = speed.close()
    for row, ref_s in zip(log.rows[-len(raw):], ref):
        row["ref_s"] = ref_s
    return sum(raw), sum(ref)


def run_timed(work, order_rng, tracer, seconds: float, log: Log, label: str):
    """Set-up bursts, each followed by one whole pass in a seeded order,
    until `seconds` are used.  Returns (raw, reference) seconds for every
    set-up and for the ops of each pass."""
    setups: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        units = setup_burst(work, tracer, setups)
        phase = f"pass{len(passes)}"
        tracer.begin_phase(phase)
        order_rng.shuffle(units)
        passes.append(run_pass(units, tracer, log, f"{label}{phase}"))
        units = None  # free the ops' set-up products before the next burst
    while len(setups) < MIN_SETUPS:
        setup_burst(work, tracer, setups)
    return setups, passes


def reference_median(times: list[tuple[float, float]]) -> float:
    return statistics.median(ref for _, ref in times)


def layer_metrics(tracer, setups: list[tuple[float, float]],
                  passes: list[tuple[float, float]]) -> dict[str, float]:
    """Each layer's self time (in reference seconds) and counts for one
    set-up plus one pass."""
    phases = ["setup"] + [f"pass{k}" for k in range(len(passes))]
    factors = [sum(ref for _, ref in setups) / sum(raw for raw, _ in setups)]
    factors += [ref / raw for raw, ref in passes]
    factor_of = dict(zip(phases, factors))
    selfs = {
        phase: {name: t * factor_of[phase] for name, t in table.items()}
        for phase, table in tracer.self_times().items()
    }
    setups, passes = len(setups), len(passes)

    def per_run(table, key):
        setup = table.get("setup", {}).get(key, 0.0) / setups
        return setup + sum(table.get(p, {}).get(key, 0.0) for p in phases[1:]) / passes

    names = {name for phase in selfs.values() for name in phase}
    out = {f"{name}_s": per_run(selfs, name) for name in LAYER_TIMES}
    out.update({name: per_run(tracer.counts, name) for name in LAYER_COUNTS})
    out["bench.glue_s"] = sum(per_run(selfs, name) for name in GLUE_SPANS)
    out["trace.self_sum_s"] = sum(per_run(selfs, name) for name in names)
    candidates = per_run(tracer.counts, "tileset.candidates")
    out["tileset.keep_ratio"] = out["tileset.tiles"] / candidates if candidates else 0.0
    decided = per_run(tracer.counts, "tiling.decided_nodes")
    assigned = per_run(tracer.counts, "tiling.assigned_cells")
    out["tiling.node_yield"] = assigned / decided if decided else 0.0
    spans_by_phase = {p: 0 for p in phases}
    for span in tracer.spans:
        spans_by_phase[span[5]] += 1
    spans_per_setup = spans_by_phase["setup"] / setups
    spans_per_pass = sum(spans_by_phase[p] for p in phases[1:]) / passes
    out["trace.spans"] = spans_per_setup + spans_per_pass
    cost = span_cost()
    out["trace.overhead.setup_s"] = spans_per_setup * cost * factors[0]
    out["trace.overhead.pass_s"] = spans_per_pass * cost * statistics.median(factors[1:])
    return out


def print_summary(log: Log, workload: str, pass_times: list[float]) -> None:
    """Per-case medians of raw op times and the workload's own rates, in
    reference seconds, for a reader of the log."""
    groups: dict[tuple, list[dict]] = {}
    for row in log.rows:
        key = (row["kind"], row.get("map", ""), row.get("radius", ""))
        groups.setdefault(key, []).append(row)
    for (kind, name, radius), rows in groups.items():
        times = [r["time_s"] for r in rows]
        verdicts = sorted({r["verdict"] for r in rows})
        nodes = sorted({r["nodes"] for r in rows if r["nodes"] is not None})
        where = f"{name} r{radius}" if radius != "" else name
        print(f"# {kind:<10} {where:<16} ops={len(rows):<4} median={statistics.median(times):.4f} s"
              f"  verdict={','.join(verdicts)}" + (f" nodes={nodes[0]}" if len(nodes) == 1 else ""))

    untimed = {"control", "walkthrough"}
    timed = [r for r in log.rows if r["kind"] not in untimed and r["phase"].startswith("u")]

    def rate(kind, unit_of):
        rows = [r for r in timed if r["kind"] == kind]
        total = sum(r["ref_s"] for r in rows)
        return sum(unit_of(r) for r in rows) / total if total else None

    figures = {
        "roundtrip": [("compile_tiles_per_s", rate("compile", lambda r: r["tiles"] or 0), "tiles/s"),
                      ("verify_tiles_per_s", rate("verify", lambda r: r["tiles"] or 0), "tiles/s")],
        "search": [("search_s", statistics.median(pass_times), "s")],
        "witness": [("witness_points_per_s", rate("witness", lambda r: 1), "points/s")],
    }[workload]
    for name, value, unit in figures:
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {log.failed + log.undecided}/{log.attempted}"
          f" (wrong or raised: {log.failed}, over the node budget: {log.undecided})")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("roundtrip", "search", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bsdomino" / "__init__.py").is_file():
        print(f"error: bsdomino sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import walkthrough
    from workloads import (
        NEGATIVE_CONTROL_MAP, SMOKE_MAP, WORKLOADS, NegativeControl, Outcome, map_path,
    )

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](ROOT, workdir, args.seed, args.smoke)
    order_rng = random.Random(f"order-{args.seed}")
    log = Log()
    untraced = NullTracer()
    seconds = args.seconds / 2 if args.trace else args.seconds

    setups, passes = run_timed(work, order_rng, untraced, seconds, log, "u")
    rss = peak_rss_mb()
    metrics: dict[str, float] = {
        "setup_s": reference_median(setups),
        "pass_s": reference_median(passes),
        "peak_rss_mb": rss,
    }
    units_of = END_TO_END

    if args.trace:
        tracer = Tracer()
        traced_setups, traced_passes = run_timed(work, order_rng, tracer, seconds, log, "t")
        traced_rss = peak_rss_mb()
        speed = Speedometer()
        steps = walkthrough.run(ROOT, OUT / "walkthrough")
        speed.op_done(sum(step_s for _, _, step_s in steps))
        for command, ok, step_s in steps:
            log.record("walkthrough", "walkthrough", {"command": command}, step_s,
                       Outcome("as documented" if ok else "differs from the README",
                               correct=ok, failed=not ok))
        metrics = layer_metrics(tracer, traced_setups, traced_passes)
        metrics.update({
            "cli.walkthrough_s": speed.close()[0],
            "trace.untraced.setup_s": reference_median(setups),
            "trace.untraced.pass_s": reference_median(passes),
            "trace.overhead.peak_rss_mb": traced_rss - rss,
        })
        units_of = PER_LAYER
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        print(f"# spans: self times sum to {metrics['trace.self_sum_s']:.4f} s per set-up"
              f" and pass; untraced set-up and pass took"
              f" {metrics['trace.untraced.setup_s'] + metrics['trace.untraced.pass_s']:.4f} s;"
              f" tracing overhead"
              f" {metrics['trace.overhead.setup_s'] + metrics['trace.overhead.pass_s']:.4f} s")

    control_map = SMOKE_MAP if args.smoke else NEGATIVE_CONTROL_MAP
    control = NegativeControl(control_map, map_path(ROOT, control_map),
                              random.Random(f"control-{args.seed}"))
    run_op(control, untraced, log, "control")
    shutil.rmtree(workdir, ignore_errors=True)
    shutil.rmtree(OUT / "walkthrough", ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(ROOT),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    (OUT / "rows").mkdir(exist_ok=True)
    rows_path = OUT / "rows" / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    with open(rows_path, "w", encoding="utf-8") as handle:
        for row in [meta] + log.rows:
            handle.write(json.dumps(row) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print_summary(log, args.workload, [ref for _, ref in passes])
    print(f"# rows: {rows_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": log.correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
