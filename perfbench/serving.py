"""serve-score: open-loop ``score`` traffic against the ``repro serve`` daemon.

The daemon runs in its own process, started through the CLI exactly as a
user would start it.  The load generator is this single process: one
asyncio loop, two connections (the machine's core count), requests sent
on a seeded Poisson schedule whatever the daemon's progress (an open loop:
independent users).  Each request is timed from when it was *due*, so a
stall also charges the requests queued behind it, and the generator's own
lateness is reported.

The rates and the latency limit are frozen constants, chosen from a
calibration run on a 2-vCPU machine, where this store and query mix
saturates the daemon at roughly 250-300 requests/s: the reference rate is
light load, and the ladder climbs from there to well beyond saturation.
Changing them changes the benchmark, not the program.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import re
import statistics
import sys
import time
import tracemalloc
from collections import deque

import inputs
import layers
import speed
from common import OUT, Connection, Report, percentile, stop_process, summarize, tail_quantile, time_setup
from tracer import Tracer

from repro.core.clogsgrow import mine_closed
from repro.core.results import MiningResult
from repro.match.service import PatternMatcher
from repro.match.store import PatternStore
from repro.serve.protocol import score_to_wire

#: Closed-loop requests (one connection, each sent when the last returned).
CLOSED_REQUESTS = 800
#: The closed loop's tail percentile.  Lower than the usual rule (the
#: highest percentile with ten samples beyond it) on purpose: a request
#: takes 2-4 ms, so brief stalls of the shared machine or the daemon decide
#: the slowest requests.  Across seeds the tail spread 74% at p99 (five
#: seeds, 1000 requests), 39% at p95 (ten, 500) and 10-25% at p90 (ten,
#: 800, two sets), against 3-10% at p75, the latency of the larger requests.
CLOSED_TAIL = 0.75
#: Closed-loop requests per throughput stretch.
CHUNK = 50
#: Offered load of the open-loop latency figures, requests/s.
REFERENCE_RATE = 100
#: Open-loop requests at the reference rate.
REFERENCE_REQUESTS = 600
#: Fixed offered rates of the capacity ladder, requests/s.  The last one is
#: beyond saturation; its completion rate is the daemon's capacity.
LADDER = (150, 200, 250, 300, 600)
#: Seconds of traffic per ladder rate.
LADDER_SECONDS = 1.5
#: A rate is met when its p99 stays within this limit...  At the reference
#: rate the calibration machine read a p99 of 110-200 ms: the daemon's own
#: pauses (garbage collection, thread hand-offs), most of which its
#: ``serve.op.score.seconds`` histogram does not see.
LIMIT_MS = 250.0
#: ...and no more than this share of its requests is still queued at its end.
BACKLOG_SHARE = 0.02
#: Connections of the load generator.
CONNECTIONS = 2
#: Daemon starts timed per run.
SETUP_REPEATS = 5
#: Requests whose scores are recomputed in-process.
SAMPLE_REQUESTS = 24
#: How long the generator waits for stragglers after a phase's last send.
DRAIN_SECONDS = 20.0


def _build_store(database, threshold, seed: int):
    """Mine the served store: the most frequent closed patterns of a Quest database."""
    result = mine_closed(database, threshold, max_length=inputs.CLOSED_MAX_LENGTH)
    top = sorted(result, key=lambda mp: (-mp.support, len(mp.pattern), repr(mp.pattern.events)))
    kept = MiningResult(top[: inputs.STORE_PATTERNS], min_sup=result.min_sup, algorithm=result.algorithm)
    store = PatternStore.from_result(kept)
    path = OUT / "serve" / f"store-{seed}.rps"
    path.parent.mkdir(parents=True, exist_ok=True)
    store.save(path)
    return path, store


def _call(address, payload: dict) -> dict:
    """One request on its own connection (control ops: stats, shutdown)."""
    with Connection(address) as conn:
        return conn.call(payload)


def _closed_loop(address, requests, report, gauge: speed.Gauge, keep=frozenset()):
    """Score ``requests`` one at a time; returns raw and scaled ms, and the kept responses.

    The reference kernel runs between requests (the daemon is idle then),
    so each request is scaled by the samples around it, as in mining.  Only
    the responses in ``keep`` are retained (for the output check), and the
    generator's garbage collector is paused: with every parsed response
    held, its collections stalled the loop and set the tail.
    """
    raw: list[float] = []
    responses: dict[int, dict] = {}
    gc.collect()
    gc.disable()
    try:
        with Connection(address) as conn:
            for number, sequences in enumerate(requests):
                gauge.sample()
                report.tally.add("closed")
                began = time.perf_counter()
                response = conn.call({"op": "score", "id": number, "sequences": sequences})
                raw.append((time.perf_counter() - began) * 1000)
                if not (response.get("ok") and response.get("id") == number):
                    report.tally.add("closed", attempted=0, failed=1)
                if number in keep:
                    responses[number] = response
            gauge.sample()
    finally:
        gc.enable()
    scaled = [t * gauge.factor(k) for k, t in enumerate(raw)]
    return raw, scaled, responses


class Phase:
    """One stretch of open-loop traffic at one rate, and what came back."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        #: ``[due, sent, done, ok]`` per request; ``done`` is None when unanswered.
        self.records: list[list] = []
        #: Requests sent but not yet answered when the last one was sent.
        self.queued_at_end = 0

    def latencies_ms(self) -> list[float]:
        """Latency from due time; a failed request counts as missing any limit."""
        return [(r[2] - r[0]) * 1000 if r[3] else float("inf") for r in self.records]

    def completed_per_s(self) -> float:
        """Answered requests per second, from the first due time to the last answer."""
        done = [r[2] for r in self.records if r[3]]
        return len(done) / (max(done) - self.records[0][0]) if done else 0.0


async def _drive(address, requests, phase: Phase, rng: random.Random) -> None:
    """Send ``requests`` on a Poisson schedule at ``phase.rate`` and collect the answers.

    Responses come back in request order per connection, so they are paired
    with a FIFO and checked against the echoed ``id``.  They are parsed and
    dropped: holding them would grow the generator's heap until its garbage
    collector stalls the send schedule.
    """
    conns = [
        await asyncio.open_connection(*address, limit=64 * 1024 * 1024)
        for _ in range(CONNECTIONS)
    ]
    waiting = [deque() for _ in conns]
    records = phase.records
    all_sent = asyncio.Event()

    async def read(k: int) -> None:
        reader = conns[k][0]
        while not (all_sent.is_set() and not waiting[k]):
            line = await reader.readline()
            if not line:
                return
            done = time.perf_counter()
            number = waiting[k].popleft()
            try:
                payload = json.loads(line)
            except ValueError:
                payload = {"ok": False}
            records[number][2] = done
            records[number][3] = bool(payload.get("ok")) and payload.get("id") == number

    readers = [asyncio.create_task(read(k)) for k in range(len(conns))]
    due = time.perf_counter() + 0.05
    for number, sequences in enumerate(requests):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        k = number % len(conns)
        records.append([due, time.perf_counter(), None, False])
        waiting[k].append(number)
        line = json.dumps({"op": "score", "id": number, "sequences": sequences}) + "\n"
        conns[k][1].write(line.encode())
        due += rng.expovariate(phase.rate)
    all_sent.set()
    phase.queued_at_end = sum(len(w) for w in waiting)
    for k, task in enumerate(readers):
        if not waiting[k]:
            task.cancel()
    await asyncio.wait(readers, timeout=DRAIN_SECONDS)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _reader, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def _run_phase(address, requests, rate, rng, report, name: str, gauge: speed.Gauge):
    """One phase between two kernel samples; returns it and its speed scale.

    The generator's own garbage collector is paused during the phase, so
    its pauses do not show up as daemon latency.
    """
    gauge.sample(repeats=5)
    phase = Phase(rate)
    gc.collect()
    gc.disable()
    try:
        asyncio.run(_drive(address, requests, phase, rng))
    finally:
        gc.enable()
    gauge.sample(repeats=5)
    failed = sum(1 for r in phase.records if not r[3])
    report.tally.add(name, attempted=len(phase.records), failed=failed)
    return phase, gauge.factor(len(gauge.samples) - 2, window=0)


def _check_scores(store, requests, responses, report) -> None:
    """The sampled served scores must equal in-process ``PatternMatcher.score``."""
    matcher = PatternMatcher(store)
    for number in sorted(responses):
        expected = [score_to_wire(matcher.score(seq)) for seq in requests[number]]
        # JSON turns tuples into lists; compare in the wire encoding.
        expected = json.loads(json.dumps(expected))
        report.check(responses[number].get("scores") == expected, f"request {number} scores = in-process")


def _peak_kb(path, requests) -> float:
    """tracemalloc peak of loading the store, compiling it and scoring the largest request."""
    largest = max(requests, key=lambda r: sum(len(s) for s in r))
    tracemalloc.start()
    try:
        store = PatternStore.load(path)
        PatternMatcher(store).score_many(largest)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    ladder_requests = [int(rate * LADDER_SECONDS) for rate in LADDER]
    reference_requests = REFERENCE_REQUESTS
    total = reference_requests + sum(ladder_requests) + CLOSED_REQUESTS
    database, threshold, requests = inputs.served_inputs(seed, total)
    path, store = _build_store(database, threshold, seed)
    report.named["store_patterns"] = (len(store), "count")

    argv = [sys.executable, "-m", "repro", "serve", str(path), "--port", "0"]
    setup, proc, ready = time_setup(argv, "# serving", SETUP_REPEATS)
    try:
        match = re.search(r" on ([\d.]+):(\d+)", ready)
        address = (match.group(1), int(match.group(2)))
        rng = random.Random(seed)
        if trace:
            _traced(address, path, requests, report)
        else:
            _measure(address, path, store, requests, reference_requests, ladder_requests, rng, report)
            report.metrics["setup_s"] = (statistics.median(setup), "s")
            report.named["setup_s"] = report.metrics["setup_s"]
        report.distributions["setup_s"] = summarize(setup, "s")
        _call(address, {"op": "shutdown"})
        proc.wait(timeout=30)
    finally:
        stop_process(proc)
    return report


def _measure(address, path, store, requests, reference_requests, ladder_requests, rng, report):
    # Warm-up: every hot request once, so the cache holds them before timing.
    _closed_loop(address, requests[: inputs.HOT_POOL], report, speed.Gauge())

    closed = requests[-CLOSED_REQUESTS:]
    sampled = frozenset(rng.sample(range(len(closed)), SAMPLE_REQUESTS))
    raw, scaled, responses = _closed_loop(address, closed, report, speed.Gauge(), sampled)
    one = summarize(scaled, "ms", CLOSED_TAIL)
    report.distributions["closed_loop_ms"] = one
    report.distributions["closed_loop_ms_raw"] = summarize(raw, "ms", CLOSED_TAIL)
    _check_scores(store, closed, responses, report)

    gauge = speed.Gauge()
    phase, _factor = _run_phase(
        address, requests[:reference_requests], REFERENCE_RATE, rng, report, "reference", gauge
    )
    open_tail = tail_quantile(reference_requests)
    reference = summarize(phase.latencies_ms(), "ms", open_tail)
    report.distributions["score_ms_at_reference"] = reference
    lateness = [(r[1] - r[0]) * 1000 for r in phase.records]
    report.distributions["generator_lateness_ms"] = summarize(lateness, "ms", open_tail)

    offset = reference_requests
    max_rps = 0
    passing = True
    capacity = 0.0
    for rate, count in zip(LADDER, ladder_requests):
        step, factor = _run_phase(
            address, requests[offset : offset + count], rate, rng, report, f"rate{rate}", gauge
        )
        offset += count
        latencies = step.latencies_ms()
        p99 = percentile(latencies, 0.99)
        passing = passing and p99 <= LIMIT_MS and step.queued_at_end <= BACKLOG_SHARE * count
        if passing:
            max_rps = rate
        capacity = step.completed_per_s() / factor
        report.distributions[f"score_ms_at_{rate}rps"] = summarize(latencies, "ms", 0.99)
        report.named[f"score_ms_p99_at_{rate}rps"] = (p99, "ms")
        report.named[f"completed_per_s_at_{rate}rps"] = (step.completed_per_s(), "1/s")

    peak = _peak_kb(path, requests)
    # Requests per second of the one closed-loop client, as the median over
    # stretches of CHUNK requests, so a stall of the machine costs one
    # stretch rather than the whole figure.
    chunks = [scaled[i : i + CHUNK] for i in range(0, len(scaled), CHUNK)]
    closed_rps = statistics.median(1000 * len(chunk) / sum(chunk) for chunk in chunks)
    report.metrics.update(
        {
            "op_ms_p50": (one["p50"], "ms"),
            "op_ms_tail": (one["tail"], "ms"),
            "work_per_s": (closed_rps, "1/s"),
            "peak_kb": (peak, "KiB"),
        }
    )
    report.named.update(
        {
            "closed_score_ms_p50": (one["p50"], "ms"),
            f"closed_score_ms_p{round(CLOSED_TAIL * 100)}": (one["tail"], "ms"),
            "closed_score_rps": (closed_rps, "1/s"),
            "score_ms_p50": (reference["p50"], "ms"),
            f"score_ms_p{round(open_tail * 100)}": (reference["tail"], "ms"),
            "score_max_rps": (float(max_rps), "1/s"),
            "score_capacity_rps": (capacity, "1/s"),
            "score_capacity_rps_raw": (capacity * factor, "1/s"),
            "score_peak_kb": (peak, "KiB"),
        }
    )


def _traced(address, path, requests, report):
    """The closed loop of the untraced run, then the daemon's own ``stats`` for the serve layer.

    Sweep, cache and latency figures cover the closed loop; the batch size
    covers one more step at the ladder's overload rate.
    """
    raw, _scaled, _responses = _closed_loop(address, requests[-CLOSED_REQUESTS:], report, speed.Gauge())
    client_p50 = statistics.median(raw)
    stats = _call(address, {"op": "stats"})["stats"]
    histograms = stats["histograms"]
    counters = stats["counters"]
    server = histograms["serve.op.score.seconds"]
    report.check(
        server["count"] == len(raw) and counters.get("serve.requests") == len(raw),
        "daemon counted exactly the requests sent",
    )
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    sweep = histograms.get("match.match.seconds", {"count": 0, "sum": 0.0})
    # One request at a time never batches; the batch size is read over the
    # ladder's overload step, where requests queue up behind each other.
    before = histograms.get("serve.batch.size", {"count": 0, "sum": 0})
    overload = requests[: int(LADDER[-1] * LADDER_SECONDS)]
    _run_phase(address, overload, LADDER[-1], random.Random(0), report, f"rate{LADDER[-1]}", speed.Gauge())
    after = _call(address, {"op": "stats"})["stats"]["histograms"]["serve.batch.size"]
    batches = after["count"] - before["count"]
    values = {
        "serve.server_ms_p50": server["p50"] * 1000,
        "serve.unseen_ms_p50": client_p50 - server["p50"] * 1000,
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batch.size_mean": (after["sum"] - before["sum"]) / batches if batches else 0.0,
        "match.sweep.calls": sweep["count"],
        "match.sweep.self_s": sweep["sum"],
    }
    # The daemon compiles in its own process; the same compile of the same
    # store is timed here, through the wrapped automaton constructor.
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        PatternStore.load(path).automaton()
    values["match.compile.self_s"] = layers.from_spans(tracer)["match.compile.self_s"]
    tracer.write(OUT / "trace" / "serve-score.json")
    report.metrics = layers.complete(values)
    report.named.update(report.metrics)
    report.named["closed_score_ms_p50_raw"] = (client_p50, "ms")
