"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mine-closed --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with the layer entry points wrapped and reports the
per-layer split.  The run prints every metric by name with its unit, writes
a compact results file under ``.perfbench/results/`` (medians, quartiles,
counts, units; no raw samples) and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``DESIGN.md`` next to this file records why each workload exists, its input
sizes, which per-layer metric should move which end-to-end metric, and the
held-out seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT, pin_one_cpu, require_checkout

WORKLOADS = ("mine-closed", "mine-instances", "serve-score", "stream-publish")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    require_checkout()
    pin_one_cpu()
    if args.workload.startswith("mine-"):
        import mining as workload
    elif args.workload == "serve-score":
        import serving as workload
    else:
        import streaming as workload
    report = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))

    attempted = report.tally.attempted
    failed = report.tally.failed
    report.named["failed_share"] = (failed / attempted if attempted else 1.0, "ratio")
    correct = not report.failures and attempted > 0
    for line in report.failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(report.checks)} checks passed, {len(report.failures)} failed")
    for phase, (tried, bad) in sorted(report.tally.phases.items()):
        print(f"# phase {phase}: attempted={tried} failed={bad}")
    width = max(len(name) for name in report.named)
    for name, (value, unit) in report.named.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "phases": {k: {"attempted": a, "failed": f} for k, (a, f) in report.tally.phases.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.named.items()},
        "distributions": report.distributions,
        "checks_passed": len(report.checks),
        "checks_failed": report.failures,
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
