"""The two support-set engines: the compressed DFS engine and the materialiser.

The miners and the closure checker never look inside an instance during the
DFS: they read supports, patterns and landmark borders, and they grow sets
with Algorithm 2.  Section III-D shows the constant-space ``(i, l1, lm)``
triple is enough for all of that, so the whole DFS runs on one engine —

* the **compressed** engine (:class:`~repro.core.compressed.CompressedSupportSet`,
  :func:`~repro.core.compressed.ins_grow_compressed`) grows every DFS node and
  every closure probe, under every configuration;
* the **full-landmark** engine (:class:`~repro.core.support.SupportSet`,
  :func:`~repro.core.instance_growth.ins_grow`) keeps ``m``-wide landmark
  rows.  It never drives the DFS: with ``store_instances=True`` the miner
  grows each *reported* pattern's leftmost support set on it after the fact
  (one ``ins_grow`` per reported pattern along a shared prefix stack), and
  the match automaton uses it to report instances.  It is also the test
  oracle (``sup_comp``).

A :class:`SupportEngine` bundles the pair of operations a caller needs
(initial size-1 set, one-event growth) for one representation.  Callers look
``grow`` up on the module-level engine objects at every call, so wrapping
that attribute (spilling, tracing) reaches every growth step.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.core.compressed import initial_compressed_support_set, ins_grow_compressed
from repro.core.instance_growth import ins_grow
from repro.core.support import initial_support_set

if TYPE_CHECKING:
    from repro.core.spill import SpillPolicy
    from repro.db.index import InvertedEventIndex

#: ``initial(index, event)`` — leftmost support set of a size-1 pattern.
InitialFn = Callable[["InvertedEventIndex", Any], Any]

#: ``grow(index, support_set, event, constraint=None)`` — Algorithm 2.  The
#: concrete growth functions take their own representation's set type, so the
#: parameter list is erased here; the pairing inside one engine is what keeps
#: the calls sound.
GrowFn = Callable[..., Any]


class SupportEngine:
    """One support-set representation's growth operations.

    Attributes
    ----------
    name:
        Stable identifier (``"full-landmark"`` / ``"compressed"``) used in
        diagnostics and benchmark reports.
    initial:
        ``initial(index, event)`` — leftmost support set of a size-1 pattern.
    grow:
        ``grow(index, support_set, event, constraint=None)`` — Algorithm 2.
    """

    __slots__ = ("name", "initial", "grow")

    def __init__(self, name: str, initial: InitialFn, grow: GrowFn) -> None:
        self.name = name
        self.initial = initial
        self.grow = grow

    def __repr__(self) -> str:
        return f"SupportEngine({self.name!r})"

    def with_spill(self, policy: "SpillPolicy") -> SupportEngine:
        """This engine with every produced set routed through ``policy``.

        Spilling wraps the *engine*, not a representation: the DFS's
        compressed frontiers and the materialised full-landmark sets both
        come out of here with over-budget sets remapped onto disk
        (:mod:`repro.core.spill`), and their callers cannot tell the
        difference.
        """
        initial = self.initial
        grow = self.grow
        maybe_spill = policy.maybe_spill

        def initial_spilling(index: "InvertedEventIndex", event: Any) -> Any:
            return maybe_spill(initial(index, event))

        def grow_spilling(*args: Any, **kwargs: Any) -> Any:
            return maybe_spill(grow(*args, **kwargs))

        return SupportEngine(f"{self.name}+spill", initial_spilling, grow_spilling)


#: Engine over full-landmark :class:`SupportSet` rows (materialiser and oracle).
FULL_LANDMARK_ENGINE = SupportEngine("full-landmark", initial_support_set, ins_grow)

#: Engine over compressed ``(i, l1, lm)`` triples (the DFS engine).
COMPRESSED_ENGINE = SupportEngine(
    "compressed", initial_compressed_support_set, ins_grow_compressed
)
