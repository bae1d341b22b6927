"""The per-layer split: where the tracer hooks into each ``repro`` layer.

:func:`install` wraps the public entry points of ``repro.db``,
``repro.core`` and ``repro.match`` (``repro.serve`` and ``repro.stream``
report through their own ``stats`` op and metrics registry instead).
:data:`PER_LAYER` is the full list of per-layer metrics with their units;
every traced run reports all of them, with zero where a layer is idle on
the workload (the design record, ``DESIGN.md``, says which).
"""

from __future__ import annotations

from tracer import Tracer

#: Every per-layer metric and its unit, in report order.
PER_LAYER: dict[str, str] = {
    "db.index_build_s": "s",
    "db.size_one.calls": "count",
    "db.size_one.self_s": "s",
    "db.positions.calls": "count",
    "core.grow.calls": "count",
    "core.grow.self_s": "s",
    "core.sweep.self_s": "s",
    "core.grow.useful_ratio": "ratio",
    "core.closure.calls": "count",
    "core.closure.self_s": "s",
    "core.lbcheck.prune_ratio": "ratio",
    "core.dfs.self_s": "s",
    "core.dfs.nodes_visited": "count",
    "match.compile.self_s": "s",
    "match.sweep.calls": "count",
    "match.sweep.self_s": "s",
    "match.store_write.self_s": "s",
    "match.store_patch_ratio": "ratio",
    "serve.server_ms_p50": "ms",
    "serve.unseen_ms_p50": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.batch.size_mean": "count",
    "serve.reload_s": "s",
    "stream.remine_s": "s",
    "stream.merge_s": "s",
    "stream.publish_s": "s",
    "stream.shards_remined": "count",
    "stream.sup_comp_calls": "count",
    "trace.overhead_ratio": "ratio",
}

#: Span name of each wrapped entry point -> the per-layer self-time metric.
SELF_TIME_OF_SPAN = {
    "db.index_build": "db.index_build_s",
    "db.size_one": "db.size_one.self_s",
    "core.grow": "core.grow.self_s",
    "core.sweep": "core.sweep.self_s",
    "core.closure": "core.closure.self_s",
    "match.compile": "match.compile.self_s",
    "match.sweep": "match.sweep.self_s",
    "match.store_write": "match.store_write.self_s",
}

#: Span name -> per-layer call-count metric.
CALLS_OF_SPAN = {
    "db.size_one": "db.size_one.calls",
    "core.grow": "core.grow.calls",
    "core.closure": "core.closure.calls",
    "match.sweep": "match.sweep.calls",
}


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap the layer entry points; returns the live growth counters.

    The returned dict's ``useful`` entry counts grown support sets whose
    support reaches ``tracer.min_sup`` (set by the caller before each mine).
    """
    from repro.core import closure, sweep
    from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE
    from repro.db.index import InvertedEventIndex
    from repro.match.automaton import PatternAutomaton
    from repro.match.store import PatternStore

    growth = {"useful": 0}

    def observe_grown(grown) -> None:
        if grown.support >= tracer.min_sup:
            growth["useful"] += 1

    def span(name, observe=None):
        return lambda fn: tracer.span(name, fn, observe)

    tracer.wrap(InvertedEventIndex, "__init__", span("db.index_build"))
    tracer.wrap(InvertedEventIndex, "size_one_arrays", span("db.size_one"))
    # The miners look ``engine.grow`` up on the engine object at every call,
    # so replacing the attribute reaches the DFS and the closure checker.
    tracer.wrap(COMPRESSED_ENGINE, "grow", span("core.grow", observe_grown))
    tracer.wrap(FULL_LANDMARK_ENGINE, "grow", span("core.grow", observe_grown))
    tracer.wrap(sweep, "grow_triples", span("core.sweep"))
    tracer.wrap(closure.ClosureChecker, "check", span("core.closure"))
    tracer.wrap(PatternAutomaton, "__init__", span("match.compile"))
    tracer.wrap(PatternAutomaton, "match", span("match.sweep"))
    tracer.wrap(PatternStore, "save", span("match.store_write"))
    tracer.wrap(PatternStore, "patch_file_supports", span("match.store_write"))
    return growth


def count_positions(tracer: Tracer) -> None:
    """Count calls to the index's per-sequence position lookup.

    It runs about once per sequence run inside every growth sweep (a million
    times per mine-closed pass); counted inside the traced pass it raised the
    sweep's self time from 0.87 s to 1.53 s in one measurement, so callers
    count it in a pass of its own, without spans.
    """
    from repro.db.index import InvertedEventIndex

    tracer.wrap(InvertedEventIndex, "raw_positions_by_id", lambda fn: tracer.counted("db.positions", fn))


def from_spans(tracer: Tracer, root: str | None = None) -> dict[str, float]:
    """Per-layer metrics readable from the recorded spans.

    With ``root`` (the benchmark's own span around each mine), the root's
    self time is the DFS bookkeeping the wrapped layers do not cover.
    """
    totals = tracer.totals()
    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME_OF_SPAN.items():
        out[metric] = totals.get(span_name, {}).get("self_s", 0.0)
    for span_name, metric in CALLS_OF_SPAN.items():
        out[metric] = totals.get(span_name, {}).get("calls", 0)
    if root is not None:
        out["core.dfs.self_s"] = totals.get(root, {}).get("self_s", 0.0)
    return out


def complete(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit; zero where the workload left it idle."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
