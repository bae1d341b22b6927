"""Per-file analysis context shared by every reprolint rule.

One :class:`FileContext` is built per scanned file: the parsed AST, the
comment table (line -> comment text, via :mod:`tokenize` so strings are
never mistaken for comments), the recognised reprolint markers, and the
per-line suppressions.  Rules read from it; they never re-read the file.

Recognised comment directives (always ``# reprolint: <directive>``):

``# reprolint: hot-loop``
    Marks the ``for``/``while`` loop starting on this line (or on the next
    line, when the comment stands alone) as a hot inner loop for RL001.
``# reprolint: holds-lock``
    Marks the function defined on this line (or on the next line) as one
    whose caller is documented to hold ``self._lock``; RL003 treats its
    writes as guarded.
``# reprolint: disable=RL001[,RL002...] -- <reason>``
    Suppresses the listed rules on this line.  The reason is mandatory;
    a reasonless disable is reported as RL000.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*(?P<body>.+?)\s*$")
_DISABLE = re.compile(r"disable\s*=\s*(?P<rules>[A-Z0-9,\s]+?)(?:\s*--\s*(?P<reason>.*))?$")

#: Directive bodies that mark constructs rather than suppress findings.
MARKER_HOT_LOOP = "hot-loop"
MARKER_HOLDS_LOCK = "holds-lock"


@dataclass
class Suppression:
    """One ``disable=`` directive: the rule ids it silences and its reason."""

    rules: frozenset[str]
    reason: str


@dataclass
class Finding:
    """One rule violation at a specific source line."""

    rule: str
    line: int
    message: str

    def render(self, path: Path) -> str:
        return f"{path}:{self.line}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    #: POSIX-style path used for target matching (e.g. ``repro/serve/core.py``).
    rel_posix: str
    source: str
    tree: ast.Module
    #: line -> raw comment text (including the ``#``).
    comments: dict[int, str] = field(default_factory=dict)
    #: Lines carrying a ``hot-loop`` marker (already shifted onto the loop line).
    hot_loop_lines: set[int] = field(default_factory=set)
    #: Lines carrying a ``holds-lock`` marker (already shifted onto the def line).
    holds_lock_lines: set[int] = field(default_factory=set)
    #: line -> suppression directive.
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: Malformed directives, reported as RL000 findings by the runner.
    directive_errors: list[Finding] = field(default_factory=list)

    def matches(self, suffixes: tuple[str, ...]) -> bool:
        """True when this file's path ends with one of ``suffixes``."""
        return any(self.rel_posix.endswith(suffix) for suffix in suffixes)

    def is_suppressed(self, finding: Finding) -> bool:
        suppression = self.suppressions.get(finding.line)
        return suppression is not None and finding.rule in suppression.rules


def _comment_table(source: str) -> dict[int, str]:
    """line -> comment text, via tokenize (never fooled by string literals)."""
    comments: dict[int, str] = {}
    # Unparsable files are skipped before this runs, so a TokenError here can
    # only mean a truncated read — treat it as "no comments".
    with contextlib.suppress(tokenize.TokenError):  # pragma: no cover
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    return comments


def _comment_only_lines(source: str, comments: dict[int, str]) -> set[int]:
    """Lines that hold nothing but a comment (markers there apply to the next line)."""
    lines = source.splitlines()
    only = set()
    for lineno in comments:
        text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        if text.lstrip().startswith("#"):
            only.add(lineno)
    return only


def build_context(path: Path, rel_posix: str) -> FileContext:
    """Parse ``path`` and collect its comments, markers and suppressions."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    ctx = FileContext(path=path, rel_posix=rel_posix, source=source, tree=tree)
    ctx.comments = _comment_table(source)
    standalone = _comment_only_lines(source, ctx.comments)

    markers: dict[str, set[int]] = {MARKER_HOT_LOOP: set(), MARKER_HOLDS_LOCK: set()}
    for lineno, comment in ctx.comments.items():
        match = _DIRECTIVE.search(comment)
        if match is None:
            continue
        body = match.group("body")
        if body in markers:
            # A standalone marker comment applies to the following line.
            markers[body].add(lineno + 1 if lineno in standalone else lineno)
            continue
        disable = _DISABLE.match(body)
        if disable is not None:
            reason = (disable.group("reason") or "").strip()
            rules = frozenset(
                rule.strip() for rule in disable.group("rules").split(",") if rule.strip()
            )
            if not reason:
                ctx.directive_errors.append(
                    Finding(
                        "RL000",
                        lineno,
                        "suppression without a reason; write "
                        "'# reprolint: disable=RL00x -- <why this is safe>'",
                    )
                )
                continue
            if not rules:
                ctx.directive_errors.append(
                    Finding("RL000", lineno, "suppression names no rules")
                )
                continue
            ctx.suppressions[lineno] = Suppression(rules=rules, reason=reason)
            continue
        ctx.directive_errors.append(
            Finding("RL000", lineno, f"unknown reprolint directive {body!r}")
        )
    ctx.hot_loop_lines = markers[MARKER_HOT_LOOP]
    ctx.holds_lock_lines = markers[MARKER_HOLDS_LOCK]
    return ctx
