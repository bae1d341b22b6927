"""Concurrent-load benchmark for the asyncio serving daemon.

Drives the daemon (micro-batching on, response cache on) with a fleet of
``CLIENTS`` concurrent clients over one store and records throughput
plus per-request p50/p99 latency into ``extra_info`` (and therefore into
the CI benchmark-smoke JSON), for two workloads:

* **unique** — every request is a distinct tiny query, so the response
  cache never hits and every request reaches an automaton sweep
  (micro-batched with whatever else lands inside the window);
* **repeat** — requests draw from a small pool, so after warm-up the
  daemon answers from the in-loop cache without touching a worker thread.

The gate is correctness under load, not a speed ratio: every one of the
fleet's responses must be a success line.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time

import pytest

from repro.core.clogsgrow import mine_closed
from repro.db.database import SequenceDatabase
from repro.match.store import save_patterns
from repro.serve import PatternServer
from repro.serve.protocol import decode_line, encode_line

CLIENTS = 32
REQUESTS_PER_CLIENT = 30
WARMUP_REQUESTS = 8
BATCH_WINDOW_MS = 2.0
REPEAT_POOL = 8


@pytest.fixture(scope="module")
def load_store_file(tmp_path_factory):
    db = SequenceDatabase.from_strings(
        ["AABCDABB", "ABCD", "ABCABCD", "BCADDA", "ABABAB"]
    )
    result = mine_closed(db, 2)
    return save_patterns(result, tmp_path_factory.mktemp("serve-load") / "load.rps")


def _random_query(rng: random.Random) -> str:
    return "".join(rng.choices("ABCDE", k=rng.randint(4, 8)))


def _payloads(workload: str, seed: int) -> list[list[bytes]]:
    """Per-client request-line schedules for one load run."""
    rng = random.Random(seed)
    if workload == "repeat":
        pool = [
            encode_line({"op": "score", "sequences": [_random_query(rng)]})
            for _ in range(REPEAT_POOL)
        ]
        return [
            [rng.choice(pool) for _ in range(REQUESTS_PER_CLIENT)]
            for _ in range(CLIENTS)
        ]
    return [
        [
            encode_line(
                {"op": "score", "sequences": [f"{_random_query(rng)}{client:02d}"]}
            )
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for client in range(CLIENTS)
    ]


def _run_load(address: tuple[str, int], schedules: list[list[bytes]]) -> dict:
    """Drive every client schedule concurrently; return throughput and tails."""

    async def one_client(payloads: list[bytes], latencies: list[float]) -> None:
        reader, writer = await asyncio.open_connection(*address)
        try:
            for line in payloads:
                started = time.perf_counter()
                writer.write(line)
                await writer.drain()
                response = await reader.readline()
                latencies.append(time.perf_counter() - started)
                assert decode_line(response)["ok"] is True, response
        finally:
            writer.close()
            await writer.wait_closed()

    async def fleet() -> tuple[float, list[float]]:
        # Warm caches and code paths outside the timed window.
        warm = [schedules[0][0]] * WARMUP_REQUESTS
        await one_client(warm, [])
        latencies: list[float] = []
        started = time.perf_counter()
        await asyncio.gather(
            *(one_client(schedule, latencies) for schedule in schedules)
        )
        return time.perf_counter() - started, latencies

    elapsed, latencies = asyncio.run(fleet())
    total = len(latencies)  # responses received, each checked ok
    ordered = sorted(latencies)
    return {
        "requests": total,
        "seconds": elapsed,
        "throughput_rps": total / elapsed,
        "p50_ms": statistics.median(ordered) * 1e3,
        "p99_ms": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3,
    }


def test_aio_daemon_serves_concurrent_load(benchmark, load_store_file):
    """32 concurrent clients, unique and repeat workloads: every response ok."""

    def run() -> dict:
        stats: dict[str, float] = {}
        for workload in ("unique", "repeat"):
            schedules = _payloads(workload, seed=10)
            with PatternServer(
                load_store_file, batch_window_ms=BATCH_WINDOW_MS
            ) as server:
                aio = _run_load(server.address, schedules)
            for key, value in aio.items():
                stats[f"{workload}_aio_{key}"] = value
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"clients": CLIENTS, "requests_per_client": REQUESTS_PER_CLIENT, **stats}
    )
    for workload in ("unique", "repeat"):
        assert stats[f"{workload}_aio_requests"] == CLIENTS * REQUESTS_PER_CLIENT
