"""mine-closed and mine-instances: the paper's miners over a fixed batch of databases.

One *operation* is the mine of one database of the workload's batch;
``mine_s`` is the wall time of a pass over the whole batch.  Passes repeat
for the run's seconds after one untimed warm-up pass, and the run reports
the median and the tail of the single-database times and the median pass.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
import tracemalloc

import inputs
import layers
import speed
from common import OUT, Report, canonical, import_setup_argv, stop_process, summarize, tail_quantile, time_setup
from tracer import Tracer

from repro.core.clogsgrow import CloGSgrow
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow
from repro.core.support import repetitive_support, sup_comp

#: Set-up starts measured per run (the median is reported).
SETUP_REPEATS = 5
#: Timed passes per run, at least; a run also lasts its ``--seconds``.
MIN_PASSES = 12
#: Patterns per database whose output is checked against an oracle.
SAMPLE_PER_DATABASE = 8


def _miner(workload: str, min_sup: int):
    if workload == "mine-closed":
        return CloGSgrow(min_sup, max_length=inputs.CLOSED_MAX_LENGTH)
    return GSgrow(
        min_sup,
        store_instances=True,
        constraint=GapConstraint(max_gap=inputs.INSTANCE_MAX_GAP),
    )


def _mine_pass(workload, tasks, report, tracer=None, gauge=None, timings=None):
    """Mine every database once; returns (seconds, results).

    With a ``gauge``, the reference kernel runs before each mine and after
    the last, and ``timings`` receives ``(raw seconds, gauge sample index)``
    per mine, for scaling once the run is over.
    """
    results = []
    total = 0.0
    for task in tasks:
        report.tally.add("mine")
        if gauge is not None:
            gauge.sample()
        began = time.perf_counter()
        try:
            if tracer is None:
                results.append(_miner(workload, task.min_sup).mine(task.database))
            else:
                tracer.min_sup = task.min_sup
                with tracer.root("mine"):
                    results.append(_miner(workload, task.min_sup).mine(task.database))
        except Exception as exc:  # noqa: BLE001 - a failed mine is counted, not fatal
            report.tally.add("mine", attempted=0, failed=1)
            report.check(False, f"mine raised {type(exc).__name__}: {exc}")
            results.append(None)
        elapsed = time.perf_counter() - began
        total += elapsed
        if gauge is not None:
            timings.append((elapsed, len(gauge.samples) - 1))
    if gauge is not None:
        gauge.sample()
    return total, results


def _check_outputs(workload, seed, tasks, reference, report) -> None:
    """Oracle checks on a seeded sample of every database's output."""
    rng = random.Random(seed)
    constraint = GapConstraint(max_gap=inputs.INSTANCE_MAX_GAP)
    for number, (task, result) in enumerate(zip(tasks, reference)):
        if result is None:
            continue
        sample = rng.sample(list(result), min(SAMPLE_PER_DATABASE, len(result)))
        for mp in sample:
            if workload == "mine-closed":
                expected = repetitive_support(task.database, mp.pattern)
                report.check(mp.support == expected, f"db{number} support of {mp.pattern} = repetitive_support")
            else:
                oracle = sup_comp(task.database, mp.pattern, constraint=constraint)
                same = mp.support == oracle.support and mp.support_set == oracle
                report.check(same, f"db{number} support set of {mp.pattern} = sup_comp")
    _check_across_runs(workload, tasks, reference, report)


def _check_across_runs(workload, tasks, reference, report) -> None:
    """Every run on these inputs must report the same sorted (pattern, support) lists.

    Outputs are kept under a hash of the inputs, so an edited benchmark
    starts a fresh record instead of failing against a stale one.
    """
    inputs_key = hashlib.sha256(
        repr([(t.min_sup, [s.events for s in t.database]) for t in tasks]).encode()
    ).hexdigest()[:16]
    digest = repr([canonical(r) if r is not None else None for r in reference])
    path = OUT / "outputs" / f"{workload}-{inputs_key}.txt"
    if path.exists():
        report.check(path.read_text() == digest, "output equals an earlier run of this seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest)


def _peak_kb(workload, tasks) -> float:
    """tracemalloc peak of one untimed mine of the batch's largest database."""
    largest = max(tasks, key=lambda t: (sum(len(s) for s in t.database), len(t.database)))
    tracemalloc.start()
    try:
        _miner(workload, largest.min_sup).mine(largest.database)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    make_batch = inputs.closed_batch if workload == "mine-closed" else inputs.instance_batch
    tasks = make_batch(seed)
    sequences = sum(len(t.database) for t in tasks)
    report.named["batch_databases"] = (len(tasks), "count")
    report.named["batch_sequences"] = (sequences, "count")

    setup, proc, _ = time_setup(import_setup_argv(), "ready", SETUP_REPEATS)
    stop_process(proc)
    setup_s = statistics.median(setup)
    report.distributions["setup_s"] = summarize(setup, "s")

    _, reference = _mine_pass(workload, tasks, report)
    _check_outputs(workload, seed, tasks, reference, report)
    expected = [canonical(r) if r is not None else None for r in reference]

    def same_as_reference(results) -> None:
        again = [canonical(r) if r is not None else None for r in results]
        report.check(again == expected, "pass output equals the warm-up pass")

    if trace:
        _traced(workload, tasks, seconds, report, same_as_reference)
        return report

    passes: list[float] = []
    gauge = speed.Gauge()
    timings: list[tuple[float, int]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        elapsed, results = _mine_pass(workload, tasks, report, gauge=gauge, timings=timings)
        passes.append(elapsed)
        same_as_reference(results)
    peak = _peak_kb(workload, tasks)

    scaled = [raw * gauge.factor(k) for raw, k in timings]
    scaled_passes = [sum(scaled[i : i + len(tasks)]) for i in range(0, len(scaled), len(tasks))]
    mine = summarize(scaled_passes, "s")
    tail = tail_quantile(MIN_PASSES * len(tasks))
    one = summarize([t * 1000 for t in scaled], "ms", tail)
    report.distributions["mine_s"] = mine
    report.distributions["mine_s_raw"] = summarize(passes, "s")
    report.distributions["database_ms"] = one
    report.distributions["database_ms_raw"] = summarize([raw * 1000 for raw, _ in timings], "ms", tail)
    report.metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (one["p50"], "ms"),
        "op_ms_tail": (one["tail"], "ms"),
        "work_per_s": (sequences / mine["p50"], "1/s"),
        "peak_kb": (peak, "KiB"),
    }
    report.named.update(
        {
            "setup_s": (setup_s, "s"),
            "mine_s": (mine["p50"], "s"),
            "mine_s_raw": (statistics.median(passes), "s"),
            "database_ms_p50": (one["p50"], "ms"),
            f"database_ms_p{round(one['tail_q'] * 100)}": (one["tail"], "ms"),
            "mine_seq_per_s": (sequences / mine["p50"], "1/s"),
            "mine_peak_kb": (peak, "KiB"),
        }
    )
    return report


def _traced(workload, tasks, seconds, report, same_as_reference) -> None:
    """Alternate untraced and traced passes; per-layer numbers from the traced ones."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        elapsed, results = _mine_pass(workload, tasks, report)
        plain.append(elapsed)
        same_as_reference(results)
        tracer.clear()
        with tracer:
            growth = layers.install(tracer)
            elapsed, results = _mine_pass(workload, tasks, report, tracer)
        traced.append(elapsed)
        same_as_reference(results)
        values = layers.from_spans(tracer, root="mine")
        totals = tracer.totals()
        mine_s = totals["mine"]["total_s"]
        self_sum = sum(entry["self_s"] for entry in totals.values())
        report.check(
            abs(self_sum - mine_s) <= 1e-6 * max(1.0, mine_s),
            "layer self times plus core.dfs.self_s add up to the traced mine_s",
        )
        stats = [r.stats for r in results if r is not None]
        closure_checks = sum(s["closure_checks"] for s in stats)
        values["core.dfs.nodes_visited"] = sum(s["nodes_visited"] for s in stats)
        values["core.lbcheck.prune_ratio"] = (
            sum(s["nodes_pruned_lbcheck"] for s in stats) / closure_checks if closure_checks else 0.0
        )
        grows = values["core.grow.calls"]
        values["core.grow.useful_ratio"] = growth["useful"] / grows if grows else 0.0
        values["trace.mine_s"] = mine_s
        per_pass.append(values)
    tracer.write(OUT / "trace" / f"{workload}.json")
    counter = Tracer()
    with counter:
        layers.count_positions(counter)
        _mine_pass(workload, tasks, report)

    merged = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    merged["db.positions.calls"] = counter.counts["db.positions"]
    merged["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    report.metrics = layers.complete(merged)
    report.named.update(report.metrics)
    report.named["trace.mine_s"] = (merged["trace.mine_s"], "s")
    report.named["mine_s_raw"] = (statistics.median(plain), "s")
