"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload serve-score --seeds 1-10 --seconds 15

Runs are sequential (never two at once, so they do not disturb each
other).  For every metric of the final JSON line it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The bound of each
end-to-end metric is read from ``BENCHMARK.json`` and a spread above a
third of it is flagged.  A compact summary (no raw runs) is written to
``.perfbench/spread/<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import OUT, ROOT


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls = []
    ok = True
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [*config["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        walls.append(time.perf_counter() - started)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={walls[-1]:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound" if spread <= bound else "  <-- ABOVE THE BOUND"
        print(f"{name:<28} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"spread={spread:.3f} {units[name]}{flag}")
        summary[name] = {"unit": units[name], "count": len(vals), "median": median,
                         "q1": q1, "q3": q3, "spread": spread}
    print(f"wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    path = OUT / "spread" / f"{args.workload}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "all_correct": ok,
                                "metrics": summary}, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
