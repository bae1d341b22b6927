"""Shared plumbing of the benchmark: paths, statistics, failure tally, set-up timing.

Everything here is workload-agnostic.  The workload modules (``mining``,
``serving``, ``streaming``) build their inputs from the seed, time the
program, check its outputs and hand back a :class:`Report`.
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test: the ``repro`` package, imported from source.
SRC = ROOT / "src"
#: Scratch and result files; ignored by git.
OUT = ROOT / ".perfbench"

#: Timing percentiles a tail may be read at, highest first.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)


def require_checkout() -> None:
    """Exit non-zero, printing no result, unless the program's source is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The speed gauge (``speed``) can only scale work done on the CPU it
    samples: on the 2-vCPU machine this was tuned on, the two vCPUs change
    speed independently (their kernel timings correlate at 0.19).  With the
    daemon, the load generator and the miner on one CPU, one gauge covers
    all of them.  The program is single-threaded where it computes (the
    daemon's worker threads share one interpreter lock), so it loses little.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def child_env() -> dict[str, str]:
    """Environment for child processes: the program importable from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(count: int) -> float:
    """The highest ladder percentile with at least ten of ``count`` samples beyond it.

    Workloads pass the *fewest* samples a run can take, so one workload
    reads its tail at the same percentile on every run.  Below twenty
    samples no percentile above the median qualifies and the median is
    returned: a tail read from fewer samples would be noise.
    """
    for q in TAIL_LADDER:
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def summarize(values: list[float], unit: str, tail: float = 0.5) -> dict:
    """Median, quartiles, the tail at percentile ``tail`` and the sample count."""
    return {
        "unit": unit,
        "count": len(values),
        "p25": percentile(values, 0.25),
        "p50": percentile(values, 0.5),
        "p75": percentile(values, 0.75),
        "tail_q": tail,
        "tail": percentile(values, tail),
    }


def canonical(result) -> list[tuple[tuple, int]]:
    """A mining result as its sorted ``(pattern events, support)`` pairs."""
    return sorted((mp.pattern.events, mp.support) for mp in result)


@dataclass
class Tally:
    """Attempted and failed operations, per workload phase."""

    phases: dict[str, list[int]] = field(default_factory=dict)

    def add(self, phase: str, attempted: int = 1, failed: int = 0) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += attempted
        counts[1] += failed

    @property
    def attempted(self) -> int:
        return sum(c[0] for c in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.phases.values())


@dataclass
class Report:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the metrics ``BENCHMARK.json`` declares for the mode
    that ran (``name -> (value, unit)``); ``named`` holds every metric under
    the names of the design record (``DESIGN.md``), with units, for the
    printed table and the results file; ``distributions`` holds compact
    summaries (medians, quartiles, counts) of the timed samples.
    """

    tally: Tally = field(default_factory=Tally)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    distributions: dict[str, dict] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failed one makes the run incorrect."""
        (self.checks if ok else self.failures).append(what)


def time_setup(argv: list[str], ready_prefix: str, repeats: int, timeout: float = 60.0):
    """Start ``argv`` ``repeats`` times; time each start until its ready line.

    Returns ``(seconds, proc, line)``: the per-start set-up times and the
    last process, still running, with the ready line that carried its
    address.  Earlier processes are stopped (terminate, then wait) before
    the next start, so at most one child is alive when this returns.

    Each start is scaled by a kernel sample taken just before it (``speed``).
    """
    seconds: list[float] = []
    proc = None
    line = ""
    for _attempt in range(repeats):
        if proc is not None:
            stop_process(proc)
        factor = speed.Gauge().sample(repeats=3)
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = _read_ready(proc, ready_prefix, started + timeout)
        seconds.append((time.perf_counter() - started) * factor)
    assert proc is not None
    return seconds, proc, line


def _read_ready(proc: subprocess.Popen, prefix: str, deadline: float) -> str:
    assert proc.stdout is not None
    while time.perf_counter() < deadline:
        line = proc.stdout.readline()
        if not line:
            stop_process(proc)
            raise RuntimeError(f"child exited before printing {prefix!r}")
        if line.startswith(prefix):
            return line.strip()
    stop_process(proc)
    raise RuntimeError(f"child did not print {prefix!r} in time")


def stop_process(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """Terminate ``proc`` (kill after ``grace`` seconds) and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def import_setup_argv() -> list[str]:
    """A child that imports the program and prints ``ready``."""
    return [sys.executable, "-c", "import repro\nprint('ready', flush=True)"]


class Connection:
    """One persistent line-JSON connection to the daemon (one request at a time)."""

    def __init__(self, address, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: dict) -> dict:
        """Send one request; return its response (``ok: false`` if the daemon hung up)."""
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        line = self.reader.readline()
        return json.loads(line) if line else {"ok": False, "error": "connection closed"}

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
