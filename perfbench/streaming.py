"""stream-publish: windowed re-mining that republishes to a live daemon.

A :class:`~repro.stream.StreamMiner` (closed patterns, count window,
shards, a ``store_path``) runs in this process and ingests Markov
sequences in small batches.  After each refresh one connection asks an
``--auto-reload`` daemon, started through the CLI in its own process, to
score a fresh query, so every response is computed on the store the
refresh just wrote.  One *operation* is one cycle: append a batch, refresh
(re-mine, merge, write the store), and get the first response served from
the new store generation.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
import tracemalloc

import inputs
import layers
import speed
from common import OUT, Connection, Report, canonical, stop_process, summarize, tail_quantile, time_setup
from tracer import Tracer

from repro.core.clogsgrow import mine_closed
from repro.match.service import PatternMatcher
from repro.match.store import PatternStore
from repro.obs import MetricsRegistry
from repro.serve.protocol import score_to_wire
from repro.stream import StreamMiner

#: Daemon starts timed per run.
SETUP_REPEATS = 5
#: Cycles per run, at least: enough for the p90 to have ten samples beyond
#: it.  A traced run does exactly this many, so its counts are exact.
MIN_CYCLES = 110
#: Cycles the feed holds; an untimed run stops early once its seconds are up.
MAX_CYCLES = 600
#: Untimed cycles, right after the window is first filled, whose memory
#: peaks are taken (the median is reported).
PEAK_CYCLES = 15


def _new_miner(store_path, obs) -> StreamMiner:
    return StreamMiner(
        inputs.STREAM_MIN_SUP,
        closed=True,
        shard_size=inputs.STREAM_SHARD,
        window=inputs.STREAM_WINDOW,
        max_length=inputs.STREAM_MAX_LENGTH,
        store_path=store_path,
        obs=obs,
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    prefill = inputs.STREAM_WINDOW // inputs.STREAM_BATCH
    feed, queries = inputs.stream_inputs(seed, prefill + PEAK_CYCLES + MAX_CYCLES, MAX_CYCLES)
    store_path = OUT / "stream" / f"store-{seed}.rps"
    store_path.parent.mkdir(parents=True, exist_ok=True)
    obs = MetricsRegistry()
    miner = _new_miner(store_path, obs)
    try:
        for batch in feed[:prefill]:
            miner.append_many(batch)
        miner.refresh()
        peak = _peak_kb(miner, feed[prefill : prefill + PEAK_CYCLES])
        argv = [sys.executable, "-m", "repro", "serve", str(store_path), "--port", "0", "--auto-reload"]
        setup, proc, ready = time_setup(argv, "# serving", SETUP_REPEATS)
        try:
            match = re.search(r" on ([\d.]+):(\d+)", ready)
            address = (match.group(1), int(match.group(2)))
            _cycles(miner, feed[prefill + PEAK_CYCLES :], queries, address, obs, seconds, trace, report)
            report.distributions["setup_s"] = summarize(setup, "s")
            if not trace:
                report.metrics["peak_kb"] = (peak, "KiB")
                report.metrics["setup_s"] = (statistics.median(setup), "s")
                report.named["refresh_peak_kb"] = report.metrics["peak_kb"]
                report.named["setup_s"] = report.metrics["setup_s"]
            with Connection(address) as conn:
                conn.call({"op": "shutdown"})
            proc.wait(timeout=30)
        finally:
            stop_process(proc)
    finally:
        miner.close()
    return report


def _cycles(miner, feed, queries, address, obs, seconds, trace, report) -> None:
    conn = Connection(address)
    tracer = Tracer()
    refresh_ms: list[float] = []
    publish_ms: list[float] = []
    serve_ms: list[float] = []
    busy: list[float] = []
    gauge = speed.Gauge()
    appended = 0
    kept = []
    try:
        if trace:
            layers.install(tracer)
        deadline = time.perf_counter() + seconds
        for number in range(MAX_CYCLES):
            if number >= MIN_CYCLES and (trace or time.perf_counter() >= deadline):
                break
            batch = feed[number]
            report.tally.add("refresh")
            gauge.sample()
            began = time.perf_counter()
            try:
                miner.append_many(batch)
                refresh_started = time.perf_counter()
                update = miner.refresh()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                report.tally.add("refresh", attempted=0, failed=1)
                report.check(False, f"refresh raised {type(exc).__name__}: {exc}")
                continue
            written = time.perf_counter()
            report.tally.add("score")
            response = conn.call({"op": "score", "id": number, "sequences": [queries[number]]})
            answered = time.perf_counter()
            if not response.get("ok") or response.get("id") != number:
                report.tally.add("score", attempted=0, failed=1)
            appended += len(batch)
            busy.append(answered - began)
            refresh_ms.append((written - began) * 1000)
            publish_ms.append((answered - refresh_started) * 1000)
            serve_ms.append((answered - written) * 1000)
            kept.append((update, queries[number], response))
        gauge.sample()
    finally:
        tracer.restore()

    factors = [gauge.factor(k) for k in range(len(busy))]
    stats = conn.call({"op": "stats"})["stats"]
    conn.close()
    _check(miner, kept, report)

    if trace:
        _layers(miner, obs, tracer, stats, kept, serve_ms, report)
        return
    tail = tail_quantile(MIN_CYCLES)
    publish = summarize([t * f for t, f in zip(publish_ms, factors)], "ms", tail)
    refresh = summarize([t * f for t, f in zip(refresh_ms, factors)], "ms", tail)
    report.distributions["publish_to_serve_ms"] = publish
    report.distributions["refresh_ms"] = refresh
    report.distributions["publish_to_serve_ms_raw"] = summarize(publish_ms, "ms", tail)
    report.distributions["refresh_ms_raw"] = summarize(refresh_ms, "ms", tail)
    ingest = appended / sum(t * f for t, f in zip(busy, factors))
    report.metrics.update(
        {
            "op_ms_p50": (publish["p50"], "ms"),
            "op_ms_tail": (publish["tail"], "ms"),
            "work_per_s": (ingest, "1/s"),
        }
    )
    report.named.update(
        {
            "publish_to_serve_ms_p50": (publish["p50"], "ms"),
            f"publish_to_serve_ms_p{round(publish['tail_q'] * 100)}": (publish["tail"], "ms"),
            "refresh_ms_p50": (refresh["p50"], "ms"),
            f"refresh_ms_p{round(refresh['tail_q'] * 100)}": (refresh["tail"], "ms"),
            "ingest_seq_per_s": (ingest, "1/s"),
            "refreshes": (len(refresh_ms), "count"),
            "store_saves": (miner.stats.store_saves, "count"),
            "store_patches": (miner.stats.store_patches, "count"),
        }
    )


def _check(miner, kept, report) -> None:
    """Served scores equal the update's patterns; the final update equals batch mining."""
    for number, (update, query, response) in enumerate(kept):
        if not response.get("ok"):
            continue
        matcher = PatternMatcher(update.to_store())
        expected = json.loads(json.dumps([score_to_wire(matcher.score(query))]))
        report.check(response.get("scores") == expected, f"cycle {number}: served score = update's store")
    if kept:
        final = kept[-1][0]
        on_disk = PatternStore.load(miner.store_path)
        report.check(
            dict(on_disk.entries()) == {mp.pattern: mp.support for mp in final.result},
            "store file holds the final update's supports",
        )
        batch = mine_closed(
            miner.snapshot_database(), inputs.STREAM_MIN_SUP, max_length=inputs.STREAM_MAX_LENGTH
        )
        report.check(canonical(batch) == canonical(final.result), "final update = mine_closed over the window")


def _peak_kb(miner, batches) -> float:
    """Median tracemalloc peak of one cycle's append and refresh (store written), over ``batches``."""
    peaks = []
    for batch in batches:
        tracemalloc.start()
        try:
            miner.append_many(batch)
            miner.refresh()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak / 1024)
    return statistics.median(peaks)


def _layers(miner, obs, tracer, stats, kept, serve_ms, report) -> None:
    """Per-layer numbers of the traced cycles."""
    values = layers.from_spans(tracer)
    histograms = obs.snapshot()["histograms"]
    for phase in ("remine", "merge", "publish"):
        values[f"stream.{phase}_s"] = histograms.get(f"stream.{phase}.seconds", {}).get("sum", 0.0)
    values["stream.shards_remined"] = miner.stats.shards_remined
    values["stream.sup_comp_calls"] = miner.stats.sup_comp_calls
    writes = miner.stats.store_saves + miner.stats.store_patches
    values["match.store_patch_ratio"] = miner.stats.store_patches / writes if writes else 0.0
    daemon = stats["histograms"]
    counters = stats["counters"]
    server = daemon["serve.op.score.seconds"]
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    batch = daemon.get("serve.batch.size", {"count": 0, "sum": 0})
    sweep = daemon.get("match.match.seconds", {"count": 0, "sum": 0.0})
    reload = daemon.get("serve.reload.seconds", {"count": 0, "p50": 0.0})
    values.update(
        {
            "serve.server_ms_p50": server["p50"] * 1000,
            "serve.unseen_ms_p50": statistics.median(serve_ms) - server["p50"] * 1000,
            "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.batch.size_mean": batch["sum"] / batch["count"] if batch["count"] else 0.0,
            "serve.reload_s": reload["p50"],
            "match.sweep.calls": sweep["count"],
            "match.sweep.self_s": sweep["sum"],
        }
    )
    # The daemon recompiles each republished store in its own process; the
    # same compiles are replayed here through the wrapped constructor.
    replay = Tracer()
    with replay:
        layers.install(replay)
        for update, _query, _response in kept:
            update.to_store().automaton()
    values["match.compile.self_s"] = layers.from_spans(replay)["match.compile.self_s"]
    tracer.write(OUT / "trace" / "stream-publish.json")
    report.metrics = layers.complete(values)
    report.named.update(report.metrics)
