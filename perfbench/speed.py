"""Reference seconds: times corrected for the host's speed drift.

On a shared virtual machine the same Python code can run up to 2x
slower for a minute or more, in CPU time as much as in wall time, so raw
times from runs a few minutes apart do not compare.  The benchmark
therefore times a fixed reference task between ops and reports each op
in reference seconds:

    op time * REFERENCE_S / reference time around the op

The reference task uses only the standard library, in the style of the
program's hot paths (Fraction arithmetic, sorting tuples, formatting and
parsing lines, a dict index), so it slows down with the host as the ops
do; it runs no bsdomino code, so a change to the program does not change
it.  Raw times stay in the detail rows.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# reference time at the reference speed, about this task's time on an
# unloaded 2.1 GHz x86-64 core with Python 3.11
REFERENCE_S = 0.03
# a sample is taken before the first op, then after any op once this
# much time has passed since the last sample
SAMPLE_EVERY_S = 0.5


def _reference_task() -> int:
    rng = random.Random(12345)
    items = []
    for i in range(2000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        items.append((i % 7, (rng.randint(0, 3), rng.randint(0, 3)), a, b))
    items.sort()
    text = "\n".join(
        f"{p} | {c[0]},{c[1]} | {a.numerator}/{a.denominator},{b.numerator}/{b.denominator}"
        for p, c, a, b in items
    )
    index: dict[tuple[int, Fraction], list[str]] = {}
    for line in text.splitlines():
        p, c, ab = line.split(" | ")
        a, b = ab.split(",")
        index.setdefault((int(p), Fraction(a) + Fraction(b)), []).append(c)
    return len(index)


def reference_seconds() -> float:
    """Time of one reference task, with the garbage collector off so the
    program's heap size does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Converts the times of a sequence of ops to reference seconds.

    Call `op_done` after each op; `close` takes a last sample and returns
    each op's time scaled by the mean of the samples just before and
    just after it.
    """

    def __init__(self):
        self._samples = [reference_seconds()]
        self._last = time.perf_counter()
        self._ops: list[tuple[float, int]] = []  # (seconds, index of the sample before)

    def op_done(self, seconds: float) -> None:
        self._ops.append((seconds, len(self._samples) - 1))
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self._samples.append(reference_seconds())
            self._last = time.perf_counter()

    def close(self) -> list[float]:
        if not self._ops or self._ops[-1][1] == len(self._samples) - 1:
            self._samples.append(reference_seconds())
        out = []
        for seconds, before in self._ops:
            around = (self._samples[before] + self._samples[before + 1]) / 2
            out.append(seconds * REFERENCE_S / around)
        return out
