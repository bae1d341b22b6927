"""RL004 — engine-internal modules stay behind the ``SupportEngine`` seam.

``repro.core.compressed`` and ``repro.core.instance_growth`` hold the two
growth kernels: the compressed one every mining DFS runs on and the
full-landmark one that materialises instances.  Everything outside
``repro.core`` must reach them through the engine objects of
:mod:`repro.core.engine` (``COMPRESSED_ENGINE`` / ``FULL_LANDMARK_ENGINE``)
or the re-exports on the ``repro.core`` package surface — otherwise a
caller binds a kernel function directly and bypasses whatever wraps the
engines' ``grow`` (spilling, per-layer tracing).

Flagged outside ``repro/core/``:

* ``import repro.core.compressed`` / ``import repro.core.instance_growth``
  (also via ``from repro.core import compressed``);
* ``from repro.core.compressed import ...`` and the ``instance_growth``
  equivalent, in both absolute and relative (``from .core.compressed``)
  spellings.

Importing re-exported *names* from the package surface
(``from repro.core import sup_comp_compressed``) is fine: the package
``__init__`` is the supported facade.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.context import FileContext, Finding
from tools.reprolint.rules.base import Rule

_INTERNAL_MODULES = ("repro.core.compressed", "repro.core.instance_growth")
_INTERNAL_NAMES = frozenset({"compressed", "instance_growth"})


class EngineLayering(Rule):
    rule_id = "RL004"
    summary = "only repro.core may import the engine-internal modules"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel_posix.startswith("repro/") and not ctx.rel_posix.startswith(
            "repro/core/"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _INTERNAL_MODULES:
                        yield self._violation(node.lineno, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in _INTERNAL_MODULES or (
                    node.level and module in ("core.compressed", "core.instance_growth")
                ):
                    yield self._violation(node.lineno, module)
                elif module in ("repro.core", "core") or (node.level and module == "core"):
                    for alias in node.names:
                        if alias.name in _INTERNAL_NAMES:
                            yield self._violation(
                                node.lineno, f"repro.core.{alias.name}"
                            )

    def _violation(self, lineno: int, module: str) -> Finding:
        return self.finding(
            lineno,
            f"direct import of engine-internal module '{module}' outside "
            "repro.core; use the engine objects of repro.core.engine or "
            "the repro.core package re-exports",
        )
