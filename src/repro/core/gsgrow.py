"""GSgrow (Algorithm 3): mining all frequent repetitive gapped subsequences.

GSgrow couples the depth-first pattern-growth traversal familiar from
PrefixSpan with the instance-growth operation of Algorithm 2: every DFS node
carries the leftmost support set of its pattern, so the support of every
child ``P ∘ e`` is obtained with a single ``INSgrow`` call, and the Apriori
property (Theorem 1) prunes the traversal as soon as the support drops below
``min_sup``.

A node grows all its children before it recurses, and each child grows only
over its frequent siblings (SPAM's S-step pruning, Ayres et al., KDD 2002):
``P ∘ f`` is a sub-pattern of ``P ∘ e ∘ f``, so by Theorem 1 an infrequent
``P ∘ f`` rules out ``P ∘ e ∘ f``.  Output and visited nodes are unchanged;
``MiningStats.siblings_pruned`` counts the skipped grows.  A gap constraint
breaks the bound (:func:`~repro.core.constraints.apriori_holds`), and every
node then grows every root event.  Root events missing from a node's list
are thus proved infrequent, and CloGSgrow's closure check skips them; events
outside the root list (``MinerConfig(events=...)``) were never tried and are
still probed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Callable, Iterable, Iterator, Sequence as PySequence

from repro.core.compressed import CompressedSupportSet
from repro.core.constraints import GapConstraint, apriori_holds
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE, SupportEngine
from repro.core.results import MinedPattern, MiningResult
from repro.core.support import SupportSet
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event
from repro.obs import MetricsRegistry


@dataclass
class MinerConfig:
    """Shared configuration of :class:`GSgrow` and :class:`CloGSgrow`.

    Parameters
    ----------
    min_sup:
        Support threshold; a pattern is frequent iff ``sup(P) >= min_sup``.
    max_length:
        Optional cap on pattern length (DFS depth).  ``None`` reproduces the
        paper exactly; a cap is useful to bound worst-case benchmarks.
    max_patterns:
        Optional cap on the number of reported patterns; mining stops once it
        is reached.  ``None`` means unlimited.
    store_instances:
        Keep the leftmost support set (and per-sequence counts) of every
        reported pattern.  The DFS always runs on compressed
        ``(i, l1, lm)`` triples (Section III-D); with ``True`` each reported
        pattern's full-landmark support set is then grown along a shared
        prefix stack (one ``ins_grow`` per reported pattern in GSgrow), so
        every :class:`~repro.core.results.MinedPattern` also carries its
        ``support_set`` and ``per_sequence`` counts.  Patterns, supports and
        discovery order do not depend on this flag.
    constraint:
        Optional gap constraint (see :mod:`repro.core.constraints`).
    events:
        Restrict growth to these events.  ``None`` uses every event whose
        total occurrence count reaches ``min_sup`` (an exact Apriori filter).
    db_backend:
        Storage backend used when the miner builds an index itself from a
        plain database: ``None``/``"ram"`` (default) or ``"disk"`` (mmap'd
        segments, see :mod:`repro.db.backend`).  Ignored when a pre-built
        :class:`~repro.db.index.InvertedEventIndex` is passed — the index
        already owns its backend.
    db_dir:
        Directory for a ``"disk"`` backend (a temp dir when ``None``).
    spill_budget:
        Per-support-set byte budget: any DFS frontier set whose columns
        exceed it is spilled onto disk (:mod:`repro.core.spill`) and read
        back through an unlinked read-only mapping.  ``None`` disables
        spilling.  Materialised ``store_instances`` sets are budgeted the
        same way.  Results are identical either way.
    spill_dir:
        Filesystem used for spill files (the system temp dir when ``None``).
    """

    min_sup: int = 2
    max_length: int | None = None
    max_patterns: int | None = None
    store_instances: bool = False
    constraint: GapConstraint | None = None
    events: Iterable[Event] | None = None
    db_backend: str | None = None
    db_dir: str | None = None
    spill_budget: int | None = None
    spill_dir: str | None = None

    def __post_init__(self):
        if self.min_sup < 1:
            raise ValueError(f"min_sup must be >= 1, got {self.min_sup}")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if self.max_patterns is not None and self.max_patterns < 0:
            raise ValueError(f"max_patterns must be >= 0, got {self.max_patterns}")
        if self.spill_budget is not None and self.spill_budget < 1:
            raise ValueError(f"spill_budget must be >= 1, got {self.spill_budget}")
        if self.db_backend not in (None, "ram", "disk"):
            raise ValueError(
                f"db_backend must be None, 'ram' or 'disk', got {self.db_backend!r}"
            )


@dataclass
class MiningStats:
    """Counters and per-phase durations describing one mining run.

    The counters are maintained as plain attributes by the DFS (no registry
    probe per node); :meth:`as_dict` renders them — keys sorted, phases in a
    nested sorted mapping — as the ``MiningResult.stats`` payload, and the
    miner mirrors them into its :class:`~repro.obs.MetricsRegistry` once per
    run so external observers (the stream miner, benchmarks) aggregate them.
    """

    patterns_reported: int = 0
    nodes_visited: int = 0
    ins_grow_calls: int = 0
    nodes_pruned_infrequent: int = 0
    nodes_pruned_lbcheck: int = 0
    closure_checks: int = 0
    extension_evaluations: int = 0
    #: Child extensions not grown because Theorem 1 proves them infrequent:
    #: the sibling rule's, and 2-grams the closure checker already knows.
    siblings_pruned: int = 0
    #: Wall-clock (monotonic) seconds per mining phase: ``prepare`` (index +
    #: candidate events + closure-checker build), ``dfs`` (the traversal)
    #: and ``total``.
    phase_seconds: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Counters plus phase durations, keys sorted for stable serialization."""
        out = {name: getattr(self, name) for name in sorted(f.name for f in fields(self))}
        out["phase_seconds"] = {p: self.phase_seconds[p] for p in sorted(self.phase_seconds)}
        return out


class GSgrow:
    """The GSgrow miner (Algorithm 3).

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"])
    >>> result = GSgrow(min_sup=4).mine(db)
    >>> result.support_of("AB")
    4
    """

    algorithm_name = "GSgrow"

    def __init__(self, min_sup: int = 2, *, obs: MetricsRegistry | None = None, **kwargs):
        self.config = MinerConfig(min_sup=min_sup, **kwargs)
        self.stats = MiningStats()
        self.obs = obs if obs is not None else MetricsRegistry()
        self._engine: SupportEngine = COMPRESSED_ENGINE
        self._apriori = True
        self._root_events: frozenset[Event] = frozenset()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def mine(
        self,
        database: SequenceDatabase | InvertedEventIndex,
        *,
        on_pattern: Callable[[MinedPattern], None] | None = None,
    ) -> MiningResult:
        """Mine all frequent patterns of ``database``.

        Returns a :class:`~repro.core.results.MiningResult` with one entry
        per frequent pattern (in DFS discovery order).  When ``on_pattern``
        is given it is invoked with each :class:`MinedPattern` the moment the
        DFS reports it — the streaming delivery seam used by
        :mod:`repro.stream`; the final result is unchanged by the callback.
        """
        result = MiningResult(min_sup=self.config.min_sup, algorithm=self.algorithm_name)
        for mined in self.mine_iter(database):
            result.add(mined)
            if on_pattern is not None:
                on_pattern(mined)
        result.stats = self.stats.as_dict()
        return result

    def mine_iter(
        self, database: SequenceDatabase | InvertedEventIndex
    ) -> Iterator[MinedPattern]:
        """Generator form of :meth:`mine`.

        Yields each :class:`MinedPattern` as the DFS discovers it, in the
        exact order :meth:`mine` would collect them, so patterns stream out
        of a long-running mining pass instead of materialising only at the
        end.  Abandoning the generator aborts the traversal.
        """
        index = self._as_index(database)
        self.stats = MiningStats()
        self._engine = COMPRESSED_ENGINE
        instances = FULL_LANDMARK_ENGINE if self.config.store_instances else None
        if self.config.spill_budget is not None:
            from repro.core.spill import SpillPolicy

            policy = SpillPolicy(
                self.config.spill_budget, directory=self.config.spill_dir, obs=self.obs
            )
            self._engine = self._engine.with_spill(policy)
            if instances is not None:
                instances = instances.with_spill(policy)
        prefix_stack: list[SupportSet] = []  # materialised sets, one per prefix
        clock = self.obs.clock
        started = clock()
        try:
            self._prepare(index)
            events = self._candidate_events(index)
            self._root_events = frozenset(events)
            self._apriori = apriori_holds(self.config.constraint)
            self.stats.phase_seconds["prepare"] = clock() - started
            dfs_started = clock()
            budget = self.config.max_patterns
            for event in events:
                support_set = self._engine.initial(index, event)
                for mined in self._mine_fre(index, support_set, events, [support_set]):
                    if budget is not None and self.stats.patterns_reported >= budget:
                        return
                    self.stats.patterns_reported += 1
                    if instances is not None:
                        mined = self._materialise(index, instances, prefix_stack, mined)
                    yield mined
            self.stats.phase_seconds["dfs"] = clock() - dfs_started
        finally:
            self.stats.phase_seconds["total"] = clock() - started
            self._record_obs()

    def _materialise(
        self,
        index: InvertedEventIndex,
        engine: SupportEngine,
        stack: list[SupportSet],
        mined: MinedPattern,
    ) -> MinedPattern:
        """Attach the full-landmark leftmost support set of a reported pattern.

        The DFS reports in preorder: ``stack`` (full sets of the previous
        report's prefixes) is cut to the longest prefix shared with this
        pattern and only the missing events are grown.
        """
        events = mined.pattern.events
        depth = 0
        shared = min(len(stack), len(events))
        while depth < shared and stack[depth].pattern.events[-1] == events[depth]:
            depth += 1
        del stack[depth:]
        for event in events[depth:]:
            stack.append(
                engine.grow(index, stack[-1], event, constraint=self.config.constraint)
                if stack
                else engine.initial(index, event)
            )
        full = stack[-1]
        return MinedPattern(mined.pattern, mined.support, full, full.per_sequence_counts())

    def _record_obs(self) -> None:
        """Mirror this run's counters and phase timings into the registry.

        Runs once per mining pass (never inside the DFS), so the per-node cost
        of observability is zero; all instruments update under one registry
        lock acquisition so a concurrent snapshot never sees half a run.
        """
        obs = self.obs
        if not obs.enabled:
            return
        stats = self.stats
        with obs.locked():
            obs.counter("mine.runs").inc()
            obs.counter("mine.patterns_reported").inc(stats.patterns_reported)
            obs.counter("mine.nodes_visited").inc(stats.nodes_visited)
            obs.counter("mine.ins_grow_calls").inc(stats.ins_grow_calls)
            obs.counter("mine.nodes_pruned_infrequent").inc(stats.nodes_pruned_infrequent)
            obs.counter("mine.nodes_pruned_lbcheck").inc(stats.nodes_pruned_lbcheck)
            obs.counter("mine.closure_checks").inc(stats.closure_checks)
            obs.counter("mine.extension_evaluations").inc(stats.extension_evaluations)
            obs.counter("mine.siblings_pruned").inc(stats.siblings_pruned)
            for phase, seconds in stats.phase_seconds.items():
                obs.histogram(f"mine.phase.{phase}.seconds").observe(seconds)  # reprolint: disable=RL008 -- phases are the fixed prepare/dfs/total set MiningStats records, each expanding to a conformant name

    # ------------------------------------------------------------------
    # DFS (subroutine mineFre)
    # ------------------------------------------------------------------
    def _mine_fre(
        self,
        index: InvertedEventIndex,
        support_set: CompressedSupportSet,
        events: list[Event],
        prefix_sets: list[CompressedSupportSet],
    ) -> Iterator[MinedPattern]:
        """Recursive DFS over the pattern space (lines 6–10 of Algorithm 3).

        ``events`` are the root events at depth 1 or under a gap constraint,
        otherwise the parent's frequent extensions (the sibling rule).
        """
        self.stats.nodes_visited += 1
        if support_set.support < self.config.min_sup:
            self.stats.nodes_pruned_infrequent += 1
            return
        report, children = self._expand(index, support_set, events, prefix_sets)
        if report:
            yield MinedPattern(pattern=support_set.pattern, support=support_set.support)
        siblings = [event for event, _ in children] if self._apriori else events
        for _, grown in children:
            yield from self._mine_fre(index, grown, siblings, prefix_sets + [grown])

    # ------------------------------------------------------------------
    # Hooks overridden by CloGSgrow
    # ------------------------------------------------------------------
    def _prepare(self, index: InvertedEventIndex) -> None:
        """Per-run setup before the DFS starts (CloGSgrow builds its checker here)."""

    def _expand(
        self,
        index: InvertedEventIndex,
        support_set: CompressedSupportSet,
        events: list[Event],
        prefix_sets: list[CompressedSupportSet],
    ) -> tuple[bool, list[tuple[Event, CompressedSupportSet]]]:
        """``(report this node?, frequent (e, P ∘ e) children to enter)``."""
        if self._at_cap(support_set):
            return True, []
        return True, self._grow_children(index, support_set, events, {})

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _at_cap(self, support_set: CompressedSupportSet) -> bool:
        cap = self.config.max_length
        return cap is not None and len(support_set.pattern) >= cap

    def _grow_children(
        self,
        index: InvertedEventIndex,
        support_set: CompressedSupportSet,
        events: list[Event],
        supports: dict[Event, int],
    ) -> list[tuple[Event, CompressedSupportSet]]:
        """Grow ``P ∘ e`` for each event of ``events``; return the frequent ones.

        ``supports`` holds known supports of ``P ∘ e``: known-infrequent
        events are skipped and every grown support is written back.
        """
        min_sup = self.config.min_sup
        constraint = self.config.constraint
        engine = self._engine
        stats = self.stats
        stats.siblings_pruned += len(self._root_events) - len(events)
        children = []
        for event in events:
            known = supports.get(event)
            if known is not None and known < min_sup:
                stats.siblings_pruned += 1
                continue
            stats.ins_grow_calls += 1
            grown = engine.grow(index, support_set, event, constraint=constraint)
            supports[event] = grown.support
            if grown.support < min_sup:
                stats.nodes_pruned_infrequent += 1
            else:
                children.append((event, grown))
        return children

    def _candidate_events(self, index: InvertedEventIndex) -> list[Event]:
        if self.config.events is not None:
            return sorted(set(self.config.events), key=repr)
        return index.frequent_events(self.config.min_sup)

    def _as_index(self, database) -> InvertedEventIndex:
        if isinstance(database, InvertedEventIndex):
            return database
        if isinstance(database, SequenceDatabase):
            return InvertedEventIndex(
                database,
                backend=self.config.db_backend,
                backend_dir=self.config.db_dir,
            )
        raise TypeError(
            f"expected a SequenceDatabase or InvertedEventIndex, got {type(database).__name__}"
        )


def mine_all(
    database: SequenceDatabase | InvertedEventIndex,
    min_sup: int,
    *,
    on_pattern: Callable[[MinedPattern], None] | None = None,
    **kwargs,
) -> MiningResult:
    """Mine all frequent repetitive gapped subsequences (functional façade).

    Equivalent to ``GSgrow(min_sup, **kwargs).mine(database, on_pattern=...)``.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> result = mine_all(db, 2)
    >>> len(result), result.support_of("AB")
    (20, 4)
    """
    return GSgrow(min_sup, **kwargs).mine(database, on_pattern=on_pattern)
