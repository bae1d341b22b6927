"""In-memory span tracer wrapped around the program's public layer entry points.

The traced run replaces a handful of functions of ``repro`` with thin
wrappers *from the benchmark's side* (nothing under ``src/`` changes) and
restores them afterwards.  Each wrapper records one span — name, start,
end and the span that was open when it started — into a list kept in
memory and written out once, when the run ends.  Calls that are far too
frequent for a span (the index's per-sequence position lookup) are only
counted.

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded while traced, so children nest
strictly inside their parent and the self times of a root and all its
descendants add up to the root's duration exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """Spans and counts recorded by wrappers installed with :meth:`wrap`."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` per span; parent -1 for a root.
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: The threshold of the mine in progress, for the useful-growth ratio.
        self.min_sup = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, observe: Callable[[Any], None] | None = None):
        """``fn`` wrapped to record one span per call (and ``observe`` its result)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end
            if observe is not None:
                observe(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable):
        """``fn`` wrapped to count its calls (no span)."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Record a root span around a block the benchmark itself runs."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def clear(self) -> None:
        """Forget recorded spans and counts (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()

    def write(self, path: Path) -> None:
        """Write the spans (name table plus ``[name, start, end, parent]`` rows)."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, handle)
