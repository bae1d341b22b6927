"""File discovery, rule dispatch and the ``python -m tools.reprolint`` CLI."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.context import Finding, build_context
from tools.reprolint.rules import ALL_RULES
from tools.reprolint.rules.base import Rule


def _iter_files(paths: list[Path]) -> list[tuple[Path, str]]:
    """Expand ``paths`` to ``(file, rel_posix)`` pairs, sorted for stable output.

    ``rel_posix`` is the path rules match against: relative to the scanned
    root with any leading ``src/`` stripped, so targets read
    ``repro/serve/core.py`` whether the tool is pointed at ``src/`` or at
    the repo root.
    """
    files: list[tuple[Path, str]] = []
    for root in paths:
        if root.is_file():
            rel = root.as_posix()
            candidates = [(root, rel)]
        else:
            candidates = [
                (file, file.relative_to(root).as_posix())
                for file in sorted(root.rglob("*.py"))
            ]
        for file, rel in candidates:
            if rel.startswith("src/"):
                rel = rel[len("src/") :]
            files.append((file, rel))
    return sorted(files, key=lambda pair: pair[1])


def check_paths(
    paths: list[Path], rules: tuple[Rule, ...] = ALL_RULES
) -> list[tuple[Path, Finding]]:
    """Run every applicable rule over every file under ``paths``.

    Returns unsuppressed findings (plus RL000 directive errors, which are
    never suppressible) sorted by file, line and rule id.
    """
    results: list[tuple[Path, Finding]] = []
    for file, rel_posix in _iter_files(paths):
        try:
            ctx = build_context(file, rel_posix)
        except SyntaxError as exc:
            lineno = exc.lineno or 1
            results.append(
                (file, Finding("RL000", lineno, f"file does not parse: {exc.msg}"))
            )
            continue
        results.extend((file, finding) for finding in ctx.directive_errors)
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if not ctx.is_suppressed(finding):
                    results.append((file, finding))
    results.sort(key=lambda pair: (str(pair[0]), pair[1].line, pair[1].rule))
    return results


def _list_rules(rules: tuple[Rule, ...]) -> str:
    lines = [f"{rule.rule_id}  {rule.summary}" for rule in rules]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based checks for this repo's load-bearing invariants.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to scan"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules(ALL_RULES))
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m tools.reprolint src/)")
    missing = [path for path in args.paths if not path.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")
    findings = check_paths(list(args.paths))
    for path, finding in findings:
        print(finding.render(path))
    if findings:
        print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
