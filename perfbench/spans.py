"""In-memory spans and counters for the traced benchmark run.

A span records one call into a layer: its name, start, end, the span
that encloses it and the op it belongs to.  Counters are recorded at the
same boundaries.  Both are grouped by phase (the set-up, or one pass),
so per-layer figures can be given for one set-up plus one pass.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    def count(self, name: str, value: float) -> None:
        pass

    def begin_phase(self, phase: str) -> None:
        pass

    def begin_op(self, op_id: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1, op id, phase)
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._phase = "setup"
        self._op = -1

    def begin_phase(self, phase: str) -> None:
        self._phase = phase

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._op, self._phase))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op, self._phase)

    def count(self, name: str, value: float) -> None:
        self.counts[self._phase][name] += value

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per phase, per span name: duration minus the time of child spans.

        Spans of one thread nest without overlap, so the children's union
        is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, _op, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, phase in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "phase": phase}
                    )
                    + "\n"
                )


def span_cost(calls: int = 5000, repeats: int = 5) -> float:
    """Seconds that one span with one count adds with tracing on over off.

    Measured on empty spans, so it is the tracer's own cost; ops record
    about one count per span.
    """
    def loop(tracer) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            with tracer.span("calibration"):
                tracer.count("calibration", 1)
        return time.perf_counter() - start

    diffs = [loop(Tracer()) - loop(NullTracer()) for _ in range(repeats)]
    return statistics.median(diffs) / calls
