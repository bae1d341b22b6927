"""reprolint — AST-based checks for this repo's load-bearing invariants.

The randomized equivalence suites catch invariant violations
probabilistically and after the fact; reprolint turns each invariant into a
deterministic, per-commit failure with a ``file:line`` message.  The rules
(see ``docs/ARCHITECTURE.md`` § Enforced invariants):

* **RL001** — hot-path purity: loops marked ``# reprolint: hot-loop`` may
  not hash user objects, re-look-up attributes, or allocate containers per
  iteration.
* **RL002** — determinism: serialization/publication paths may not iterate
  sets without ``sorted(...)`` (the byte-identical store format depends on
  it).
* **RL003** — lock discipline: attributes ever written under
  ``with self._lock:`` must never be written outside one (``__init__`` and
  ``# reprolint: holds-lock`` helpers excepted).
* **RL004** — layering: only ``repro.core`` may import the
  ``repro.core.compressed`` / ``repro.core.instance_growth`` engine
  internals; everything else routes through the engine objects of
  ``repro.core.engine`` or the ``repro.core`` package surface.
* **RL005** — no wall-clock or unseeded randomness in library code outside
  ``repro.datagen`` and the explicitly time-aware stream/serve surfaces.

Findings can be suppressed per line with
``# reprolint: disable=RL00x -- <reason>``; the reason is mandatory and a
reasonless disable is itself an error (RL000).

Run as ``python -m tools.reprolint src/`` (exit code 1 on findings).
"""

from __future__ import annotations

from tools.reprolint.runner import check_paths, main
from tools.reprolint.rules import ALL_RULES

__all__ = ["ALL_RULES", "check_paths", "main"]
