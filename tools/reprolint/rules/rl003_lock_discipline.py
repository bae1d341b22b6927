"""RL003 — lock discipline for the serving daemon and the stream miner.

``ServeCore`` and ``StreamMiner`` are mutated from request-handler /
caller threads; their shared attributes are published via ``self._lock``.
The failure mode is subtle: one forgotten ``with self._lock:`` around a
single write produces torn reads that only surface under concurrency.

For every class in a targeted file this rule collects the set of ``self``
attributes that are *ever* written inside a ``with self._lock:`` block
(any ``self.*lock*`` context manager counts).  Writing one of those
attributes outside such a block is a violation, except in

* ``__init__`` (construction happens-before any other thread sees the
  object), and
* methods whose ``def`` line carries ``# reprolint: holds-lock`` — the
  documented "caller already holds the lock" internal helpers.

The analysis is lexical and per-class; it does not try to prove the lock
is the *same* lock object, only that the project's single-lock convention
is followed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.context import FileContext, Finding
from tools.reprolint.rules.base import Rule


def _is_self_lock(node: ast.expr) -> bool:
    """True for ``self.<something containing 'lock'>`` context managers."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and "lock" in node.attr.lower()
    )


def _written_self_attrs(stmt: ast.stmt) -> Iterator[tuple[str, int]]:
    """Yield ``(attr, line)`` for every ``self.attr`` written by ``stmt``."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        # unpack tuple/list targets: self.a, self.b = ...
        stack = [target]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Tuple, ast.List)):
                stack.extend(node.elts)
            elif isinstance(node, ast.Starred):
                stack.append(node.value)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield node.attr, node.lineno


class _MethodWrites(ast.NodeVisitor):
    """Partition one method's ``self.attr`` writes by lock-guardedness."""

    def __init__(self) -> None:
        self.guarded: list[tuple[str, int]] = []
        self.unguarded: list[tuple[str, int]] = []
        self._depth = 0

    def visit_With(self, node: ast.With) -> None:
        holds = any(_is_self_lock(item.context_expr) for item in node.items)
        if holds:
            self._depth += 1
        self.generic_visit(node)
        if holds:
            self._depth -= 1

    def _record(self, stmt: ast.stmt) -> None:
        bucket = self.guarded if self._depth else self.unguarded
        bucket.extend(_written_self_attrs(stmt))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node)
        self.generic_visit(node)

    # nested defs (closures) run on the same thread as their enclosing
    # call; treat their writes with the enclosing guardedness, so no
    # special-casing here.


class LockDiscipline(Rule):
    rule_id = "RL003"
    summary = "attributes written under self._lock must always be written under it"
    targets = (
        "repro/serve/core.py",
        "repro/stream/miner.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded_attrs: set[str] = set()
        per_method: list[tuple[ast.FunctionDef, _MethodWrites]] = []
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes = _MethodWrites()
            for inner in stmt.body:
                writes.visit(inner)
            guarded_attrs.update(attr for attr, _ in writes.guarded)
            per_method.append((stmt, writes))
        if not guarded_attrs:
            return
        for method, writes in per_method:
            if method.name == "__init__" or method.lineno in ctx.holds_lock_lines:
                continue
            for attr, lineno in writes.unguarded:
                if attr in guarded_attrs:
                    yield self.finding(
                        lineno,
                        f"'self.{attr}' is written under self._lock elsewhere in "
                        f"{cls.name} but written here without holding it; wrap "
                        "the write in 'with self._lock:' (or mark the helper "
                        "'# reprolint: holds-lock' if the caller holds it)",
                    )
