"""CloGSgrow (Algorithm 4): mining closed frequent patterns.

CloGSgrow is GSgrow with two modifications at every frequent DFS node
(lines 6–7 of Algorithm 4):

* a pattern is reported only if closure checking (``CCheck``, Theorem 4)
  says it is closed, and
* the DFS subtree is pruned entirely when landmark border checking
  (``LBCheck``, Theorem 5) finds an equal-support extension whose leftmost
  support set does not shift the landmark border to the right.

Both checks are implemented in :mod:`repro.core.closure`; this module wires
them into the DFS inherited from :class:`~repro.core.gsgrow.GSgrow`.
"""

from __future__ import annotations


from repro.core.closure import ClosureChecker, ClosureDecision
from repro.core.compressed import CompressedSupportSet
from repro.core.gsgrow import GSgrow
from repro.core.results import MiningResult
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event


class CloGSgrow(GSgrow):
    """The CloGSgrow closed-pattern miner (Algorithm 4).

    Accepts every :class:`~repro.core.gsgrow.MinerConfig` option of GSgrow
    plus ``enable_lbcheck`` (default ``True``); disabling it keeps the output
    identical but removes the search-space pruning — the configuration used
    by the ablation benchmark to quantify Theorem 5's benefit.

    With ``max_length=None`` (the default) the output is exactly the paper's
    closed pattern set.  When a ``max_length`` cap is given, the output is
    the closed pattern set *truncated at the cap*: every reported pattern is
    closed in the full pattern universe (closure checking at cap-length nodes
    evaluates one-event extensions even though they are longer than the cap)
    and the DFS simply stops growing at the cap.  Because closedness never
    depends on the cap, Theorem-5 landmark border pruning stays sound under a
    cap and ``enable_lbcheck`` changes runtime only, never the output.  (The
    alternative semantics — "closed within the capped universe", which must
    report *every* frequent cap-length pattern — is exactly the frequent
    -pattern explosion the paper's closed mining exists to avoid, and is
    available anyway as ``GSgrow(max_length=...)`` plus a closed filter.)

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"])
    >>> closed = CloGSgrow(min_sup=4).mine(db)
    >>> "ABC" in closed and "AB" not in closed
    True
    """

    algorithm_name = "CloGSgrow"

    #: Entry budget of the per-node decision / grown-children caches; once
    #: exceeded, entries off the live DFS path are evicted (the live path is
    #: always spared — see :meth:`_decide`).
    cache_limit = 4096

    def __init__(self, min_sup: int = 2, *, enable_lbcheck: bool = True, **kwargs):
        super().__init__(min_sup, **kwargs)
        self.enable_lbcheck = enable_lbcheck
        self._checker: ClosureChecker | None = None
        self._decision_cache: dict[tuple, ClosureDecision] = {}
        # Grown support sets computed while closure-checking a node, reused by
        # the DFS growth step so each P ∘ e is only instance-grown once.
        self._append_cache: dict[tuple, dict[Event, CompressedSupportSet]] = {}

    # ------------------------------------------------------------------
    # GSgrow hooks
    # ------------------------------------------------------------------
    def _prepare(self, index: InvertedEventIndex) -> None:
        """Build the closure checker and reset the per-run caches."""
        self._checker = ClosureChecker(
            index,
            enable_lbcheck=self.enable_lbcheck,
            constraint=self.config.constraint,
            engine=self._engine,
        )
        self._decision_cache = {}
        self._append_cache = {}

    def _grow_child(
        self, index, support_set: CompressedSupportSet, event: Event
    ) -> CompressedSupportSet:
        cached = self._append_cache.get(support_set.pattern.events, {}).get(event)
        if cached is not None:
            return cached
        return super()._grow_child(index, support_set, event)

    def _accept(
        self,
        support_set: CompressedSupportSet,
        index: InvertedEventIndex,
        prefix_sets: list[CompressedSupportSet],
        events: list[Event],
    ) -> bool:
        decision = self._decide(support_set, index, prefix_sets, events)
        return decision.closed

    def _should_stop_growing(
        self,
        support_set: CompressedSupportSet,
        index: InvertedEventIndex,
        prefix_sets: list[CompressedSupportSet],
        events: list[Event],
    ) -> bool:
        decision = self._decide(support_set, index, prefix_sets, events)
        if decision.prunable:
            self.stats.nodes_pruned_lbcheck += 1
        return decision.prunable

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decide(
        self,
        support_set: CompressedSupportSet,
        index: InvertedEventIndex,
        prefix_sets: list[CompressedSupportSet],
        events: list[Event],
    ) -> ClosureDecision:
        """Run (and cache) the closure decision for the current DFS node.

        ``_accept`` and ``_should_stop_growing`` are called back-to-back for
        the same node, so the decision is cached per pattern to avoid paying
        for the extension evaluation twice.
        """
        key = support_set.pattern.events
        cached = self._decision_cache.get(key)
        if cached is not None:
            return cached
        assert self._checker is not None, "mine() must be called before the DFS hooks"
        at_cap = (
            self.config.max_length is not None
            and len(support_set.pattern) >= self.config.max_length
        )
        if at_cap:
            # The DFS will not enter this subtree, so only closedness is
            # needed (closedness is always evaluated against the *full*
            # pattern universe — extensions longer than the cap included —
            # which is what keeps LBCheck's Theorem-5 pruning sound under a
            # cap).  Appends are left to the checker's lazy early-exit loop
            # and nothing is cached for a growth step that never happens.
            self.stats.closure_checks += 1
            decision = self._checker.check(support_set, prefix_sets, need_pruning=False)
            self.stats.extension_evaluations += decision.extensions_evaluated
            self._decision_cache[key] = decision
            return decision
        # Pre-compute the append-extension support sets once: CCheck needs
        # their sizes and the DFS growth step reuses the sets themselves.
        grown_children: dict[Event, CompressedSupportSet] = {}
        append_supports: dict[Event, int] = {}
        for event in events:
            self.stats.ins_grow_calls += 1
            grown = self._engine.grow(index, support_set, event, constraint=self.config.constraint)
            grown_children[event] = grown
            append_supports[event] = grown.support
        self.stats.closure_checks += 1
        decision = self._checker.check(support_set, prefix_sets, append_supports=append_supports)
        self.stats.extension_evaluations += decision.extensions_evaluated
        # Keep the caches small.  Only the current DFS path is ever
        # re-queried (`_grow_child` reads `_append_cache[prefix]` while the
        # prefix's event loop is still running), so eviction must spare the
        # live path: wiping it would force every pending child of every
        # ancestor to be instance-grown a second time.
        if len(self._append_cache) > self.cache_limit or len(self._decision_cache) > self.cache_limit:
            self.stats.cache_evictions += 1
            live = {prefix.pattern.events for prefix in prefix_sets}
            for stale in [k for k in self._append_cache if k not in live]:
                del self._append_cache[stale]
            for stale in [k for k in self._decision_cache if k not in live]:
                del self._decision_cache[stale]
        self._decision_cache[key] = decision
        self._append_cache[key] = grown_children
        return decision


def mine_closed(
    database: SequenceDatabase | InvertedEventIndex,
    min_sup: int,
    *,
    enable_lbcheck: bool = True,
    on_pattern=None,
    **kwargs,
) -> MiningResult:
    """Mine all closed frequent patterns (functional façade).

    Equivalent to ``CloGSgrow(min_sup, enable_lbcheck=..., **kwargs).mine(database)``;
    ``on_pattern`` streams each closed pattern out as the DFS reports it.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> sorted(str(mp.pattern) for mp in mine_closed(db, 2))
    ['AABB', 'AB', 'ABCD']
    """
    return CloGSgrow(min_sup, enable_lbcheck=enable_lbcheck, **kwargs).mine(
        database, on_pattern=on_pattern
    )
