"""Closure checking (Theorem 4) and landmark border checking (Theorem 5).

``CloGSgrow`` needs two decisions at every frequent DFS node ``P``:

* **CCheck** — is ``P`` closed?  By Theorem 4 it suffices to look at the
  single-event extensions of ``P`` (append, insert, prepend): ``P`` is
  non-closed iff one of them has the same repetitive support.
* **LBCheck** — can the whole DFS subtree rooted at ``P`` be pruned?  By
  Theorem 5 this is the case when some extension ``P'`` not only has equal
  support but its leftmost support set also keeps the *landmark border* (the
  last landmark position of each instance, compared in right-shift order) at
  or to the left of ``P``'s border.  Appending can never satisfy the border
  condition (the appended event always moves the border right), so only
  insertions and prepends are border candidates.

Evaluating an insertion extension ``e1..ej e' e(j+1)..em`` needs a leftmost
support set for it.  The DFS already carries the leftmost support sets of all
prefixes of ``P`` (they are the ancestors on the DFS path), so the checker
reuses the prefix ``e1..ej``, grows it with ``e'`` and then with the
remaining suffix — exactly the ``supComp`` recurrence, restarted mid-way.

Candidate events are restricted to those whose total occurrence count is at
least ``sup(P)``: any extension containing a rarer event has strictly smaller
support (Apriori), so the restriction never misses an equal-support
extension.  This keeps the check exact.

Without a gap constraint (:func:`~repro.core.constraints.apriori_holds`)
Theorem 1 skips two more kinds of probe.  Appends ``P ∘ f`` the miner's
sibling rule already proved infrequent (some prefix ``Q`` of ``P`` has
``sup(Q ∘ f) < min_sup``) come in as a skip set, not an allowlist: events
outside ``MinerConfig(events=...)`` are still probed.  And an insertion
containing a 2-gram below ``sup(P)`` is skipped; the 2-gram table is shared
with the DFS's depth-1 nodes (:meth:`ClosureChecker.known_supports`).

Every probe the checker runs (append growth, the insert/prepend ``supComp``
restarts, the Theorem-5 border comparison) reads only supports and last
positions, so — as Section III-D observes — it runs on compressed
``(i, l1, lm)`` triples (:data:`~repro.core.engine.COMPRESSED_ENGINE`), the
same representation the DFS carries, whatever ``store_instances`` says.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.core.compressed import CompressedSupportSet
from repro.core.constraints import GapConstraint, apriori_holds
from repro.core.engine import COMPRESSED_ENGINE, SupportEngine
from repro.core.pattern import Pattern
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event


@dataclass
class ClosureDecision:
    """Outcome of checking one pattern.

    Attributes
    ----------
    closed:
        ``True`` iff no single-event extension has equal support (Theorem 4).
    prunable:
        ``True`` iff some extension satisfies both conditions of Theorem 5,
        so the DFS subtree below the pattern can be skipped entirely.
    witness:
        An equal-support extension proving non-closedness (if any).
    pruning_witness:
        An extension satisfying the landmark-border condition (if any).
    extensions_evaluated:
        Number of extension patterns whose support was computed — reported by
        the ablation benchmark.
    """

    closed: bool
    prunable: bool
    witness: Pattern | None = None
    pruning_witness: Pattern | None = None
    extensions_evaluated: int = 0


class ClosureChecker:
    """Evaluates CCheck and LBCheck for the closed-pattern miner.

    Parameters
    ----------
    index:
        Inverted event index of the database being mined.
    enable_lbcheck:
        When ``False`` the checker still decides closedness but never reports
        a pattern as prunable — this is the ablation configuration measured
        in the benchmarks (output identical, runtime much larger).
    constraint:
        Optional gap constraint, forwarded to instance growth.
    engine:
        The compressed :class:`~repro.core.engine.SupportEngine` extension
        probes are grown with — :data:`~repro.core.engine.COMPRESSED_ENGINE`
        by default; the miners pass its spilling wrapper when a
        ``spill_budget`` is set.
    """

    def __init__(
        self,
        index: InvertedEventIndex,
        *,
        enable_lbcheck: bool = True,
        constraint: GapConstraint | None = None,
        engine: SupportEngine = COMPRESSED_ENGINE,
    ):
        self.index = index
        self.enable_lbcheck = enable_lbcheck
        self.constraint = constraint
        self.engine = engine
        self._apriori = apriori_holds(constraint)
        self._event_totals: dict[Event, int] = {
            event: index.total_count(event) for event in index.alphabet()
        }
        # Lazily memoised supports of 2-event patterns, ``[a][b] -> sup(ab)``,
        # used as an Apriori filter: any extension containing the 2-gram
        # (a, b) has support at most sup(ab), so candidates whose neighbouring
        # 2-grams are already below the target support can be skipped
        # without growing them.
        self._pair_support: defaultdict[Event, dict[Event, int]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(
        self,
        support_set: CompressedSupportSet,
        prefix_sets: list[CompressedSupportSet],
        append_supports: dict[Event, int] | None = None,
        *,
        known_infrequent: Collection[Event] = (),
        need_pruning: bool = True,
    ) -> ClosureDecision:
        """Run closure checking and landmark border checking for one pattern.

        Parameters
        ----------
        support_set:
            Leftmost support set of the pattern ``P`` being checked.
        prefix_sets:
            Leftmost support sets of the prefixes ``e1``, ``e1 e2``, …, ``P``
            (the DFS ancestors including ``P`` itself), used to evaluate
            insertion extensions without recomputing from scratch.
        append_supports:
            Supports of the append extensions ``P ∘ e`` if the caller already
            computed them (CloGSgrow computes them anyway while growing the
            DFS); missing entries are computed on demand.
        known_infrequent:
            Events whose append ``P ∘ e`` is known to be below ``min_sup``;
            they are not probed.
        need_pruning:
            ``False`` lets the caller skip the landmark border scan even when
            LBCheck is enabled — used at nodes whose subtree the DFS will not
            enter anyway (a ``max_length`` cap), where only closedness
            matters and the scan can stop at the first witness.
        """
        pattern = support_set.pattern
        support = support_set.support
        engine = self.engine
        candidates = self._candidate_events(support)
        decision = ClosureDecision(closed=True, prunable=False)
        lbcheck = self.enable_lbcheck and need_pruning

        # --- Append extensions (case 1 of Definition 3.4) ------------------
        # They can reveal non-closedness but never allow border pruning.
        append_supports = append_supports or {}
        for event in candidates:
            if event in known_infrequent:
                continue
            if event in append_supports:
                appended_support = append_supports[event]
            else:
                decision.extensions_evaluated += 1
                appended_support = engine.grow(
                    self.index, support_set, event, constraint=self.constraint
                ).support
            if appended_support == support:
                decision.closed = False
                if decision.witness is None:
                    decision.witness = pattern.grow(event)
                break  # closedness settled; border pruning needs insertions anyway

        # --- Insertion / prepend extensions (cases 2 and 3) ----------------
        need_prune_scan = lbcheck
        need_closed_scan = decision.closed
        if not (need_prune_scan or need_closed_scan):
            return decision

        border = support_set.border_arrays()
        for gap in range(len(pattern)):  # gap g inserts between e_g and e_{g+1} (0 = prepend)
            suffix = pattern.suffix_from(gap)
            prefix_set = prefix_sets[gap - 1] if gap >= 1 else None
            before = pattern.at(gap) if gap >= 1 else None
            after = pattern.at(gap + 1)
            for event in candidates:
                # Apriori 2-gram filter: the extension contains the 2-grams
                # (e_gap, e') and (e', e_{gap+1}); if either has support below
                # the target, the extension cannot reach it.
                if self._apriori:
                    if self._pair_support_of(event, after) < support:
                        continue
                    if before is not None and self._pair_support_of(before, event) < support:
                        continue
                decision.extensions_evaluated += 1
                extension_set = self._insertion_support_set(
                    prefix_set, event, suffix, stop_below=support
                )
                if extension_set is None or extension_set.support != support:
                    continue
                decision.closed = False
                if decision.witness is None:
                    decision.witness = pattern.insert(gap, event)
                if lbcheck and self._border_dominates(extension_set, border):
                    decision.prunable = True
                    decision.pruning_witness = pattern.insert(gap, event)
                    return decision
                if not lbcheck:
                    # Closedness is settled and pruning is not wanted: stop early.
                    return decision
        return decision

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidate_events(self, support: int) -> list[Event]:
        """Events that could possibly appear in an equal-support extension."""
        return sorted(
            (e for e, total in self._event_totals.items() if total >= support),
            key=repr,
        )

    def known_supports(self, pattern: Pattern) -> dict[Event, int]:
        """A writable map ``e -> sup(P ∘ e)`` of already-known append supports.

        Row ``a`` of the 2-gram table for a single-event pattern ``a`` while
        the filter is on; otherwise a fresh empty map.
        """
        if self._apriori and len(pattern) == 1:
            return self._pair_support[pattern.at(1)]
        return {}

    def _pair_support_of(self, first: Event, second: Event) -> int:
        """Memoised repetitive support of the 2-event pattern ``first second``."""
        row = self._pair_support[first]
        cached = row.get(second)
        if cached is None:
            engine = self.engine
            grown = engine.grow(
                self.index, engine.initial(self.index, first), second, constraint=self.constraint
            )
            cached = grown.support
            row[second] = cached
        return cached

    def _insertion_support_set(
        self,
        prefix_set: CompressedSupportSet | None,
        event: Event,
        suffix: Pattern,
        *,
        stop_below: int = 0,
    ) -> CompressedSupportSet | None:
        """Leftmost support set of ``prefix ∘ event ∘ suffix``.

        ``prefix_set`` is the leftmost support set of the prefix (``None``
        for a prepend, where the new event starts the pattern).  Growth is
        abandoned (returning ``None``) as soon as the intermediate support
        drops below ``stop_below`` — supports only shrink under growth
        (Lemma 1), so such an extension can never reach the target support.
        """
        engine = self.engine
        if prefix_set is None:
            grown = engine.initial(self.index, event)
        else:
            grown = engine.grow(self.index, prefix_set, event, constraint=self.constraint)
        if grown.support < stop_below:
            return None
        for suffix_event in suffix:
            grown = engine.grow(self.index, grown, suffix_event, constraint=self.constraint)
            if grown.support < stop_below:
                return None
        return grown

    @staticmethod
    def _border_dominates(extension_set: CompressedSupportSet, border: tuple) -> bool:
        """Condition (ii) of Theorem 5.

        Both support sets are in right-shift order and (given equal support)
        pair up instance by instance; the extension dominates when every one
        of its instances ends at or before the corresponding instance of the
        original pattern, within the same sequence.  ``border`` is the
        ``(sequence indices, last positions)`` array pair of the original
        pattern (see :meth:`CompressedSupportSet.border_arrays`).
        """
        seqs_orig, lasts_orig = border
        seqs_ext, lasts_ext = extension_set.border_arrays()
        if len(seqs_ext) != len(seqs_orig) or seqs_ext != seqs_orig:
            return False
        return all(le <= lo for le, lo in zip(lasts_ext, lasts_orig, strict=False))
