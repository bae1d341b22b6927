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

Each node's grown children (over GSgrow's sibling-pruned event list) supply
CCheck's append supports and then go straight back to the DFS loop, so no
child is grown twice.  Root events missing from the list are appends already
proved infrequent, and the checker skips them; closedness still ranges over
the full alphabet, so events outside ``MinerConfig(events=...)`` are probed.
"""

from __future__ import annotations


from repro.core.closure import ClosureChecker
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

    def __init__(self, min_sup: int = 2, *, enable_lbcheck: bool = True, **kwargs):
        super().__init__(min_sup, **kwargs)
        self.enable_lbcheck = enable_lbcheck
        self._checker: ClosureChecker | None = None

    # ------------------------------------------------------------------
    # GSgrow hooks
    # ------------------------------------------------------------------
    def _prepare(self, index: InvertedEventIndex) -> None:
        """Build the closure checker for this run."""
        self._checker = ClosureChecker(
            index,
            enable_lbcheck=self.enable_lbcheck,
            constraint=self.config.constraint,
            engine=self._engine,
        )

    def _expand(
        self,
        index: InvertedEventIndex,
        support_set: CompressedSupportSet,
        events: list[Event],
        prefix_sets: list[CompressedSupportSet],
    ) -> tuple[bool, list[tuple[Event, CompressedSupportSet]]]:
        """Closure decision for one node; its grown children go straight to the DFS.

        At a ``max_length`` cap no child is grown: only closedness matters
        (always against the *full* pattern universe, which keeps LBCheck's
        Theorem-5 pruning sound under a cap), and the checker's append loop
        stops at its first witness.
        """
        checker = self._checker
        assert checker is not None, "mine() must be called before the DFS hooks"
        known_infrequent = self._root_events.difference(events)
        self.stats.closure_checks += 1
        if self._at_cap(support_set):
            decision = checker.check(
                support_set, prefix_sets, known_infrequent=known_infrequent, need_pruning=False
            )
            children: list[tuple[Event, CompressedSupportSet]] = []
        else:
            supports = checker.known_supports(support_set.pattern)
            children = self._grow_children(index, support_set, events, supports)
            decision = checker.check(
                support_set, prefix_sets, supports, known_infrequent=known_infrequent
            )
            if decision.prunable:
                self.stats.nodes_pruned_lbcheck += 1
                children = []
        self.stats.extension_evaluations += decision.extensions_evaluated
        return decision.closed, children


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
