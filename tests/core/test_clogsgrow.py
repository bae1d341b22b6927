"""Tests for the CloGSgrow closed-pattern miner (Algorithm 4)."""

from collections import Counter

import pytest

from repro.core.clogsgrow import CloGSgrow, mine_closed
from repro.core.constraints import GapConstraint
from repro.core.engine import SupportEngine
from repro.core.gsgrow import GSgrow, mine_all
from repro.core.pattern import Pattern
from repro.core.reference import closed_patterns_bruteforce
from repro.datagen.markov import MarkovSequenceGenerator
from repro.db.database import SequenceDatabase


class TestRunningExample:
    """The Table III database with min_sup = 3 (Examples 3.4-3.6)."""

    def test_closed_set_contents(self, table3):
        closed = mine_closed(table3, 3)
        assert "ACB" in closed and closed.support_of("ACB") == 3
        assert "ABD" in closed and closed.support_of("ABD") == 3
        assert "ACAD" in closed and closed.support_of("ACAD") == 3
        assert "AD" in closed and closed.support_of("AD") == 5
        # Non-closed patterns must not be reported.
        for pattern in ("A", "AB", "AA", "AC", "AAD", "C", "D"):
            assert pattern not in closed

    def test_closed_is_much_smaller_than_all(self, table3):
        all_patterns = mine_all(table3, 3)
        closed = mine_closed(table3, 3)
        assert len(closed) < len(all_patterns)

    def test_matches_bruteforce(self, table3):
        assert mine_closed(table3, 3).as_dict() == closed_patterns_bruteforce(table3, 3)

    def test_lbcheck_prunes_nodes(self, table3):
        miner = CloGSgrow(3)
        miner.mine(table3)
        assert miner.stats.nodes_pruned_lbcheck >= 1  # at least the AA subtree


class TestEquivalenceWithAndWithoutLBCheck:
    @pytest.mark.parametrize("min_sup", [2, 3, 4])
    def test_same_output_table3(self, table3, min_sup):
        with_pruning = mine_closed(table3, min_sup, enable_lbcheck=True)
        without_pruning = mine_closed(table3, min_sup, enable_lbcheck=False)
        assert with_pruning.as_dict() == without_pruning.as_dict()

    def test_pruning_visits_fewer_or_equal_nodes(self, table3):
        pruned = CloGSgrow(3, enable_lbcheck=True)
        pruned.mine(table3)
        unpruned = CloGSgrow(3, enable_lbcheck=False)
        unpruned.mine(table3)
        assert pruned.stats.nodes_visited <= unpruned.stats.nodes_visited


class TestAgainstBruteForce:
    @pytest.mark.parametrize("min_sup", [2, 3, 4])
    def test_example11(self, example11, min_sup):
        assert mine_closed(example11, min_sup).as_dict() == closed_patterns_bruteforce(
            example11, min_sup
        )

    @pytest.mark.parametrize("min_sup", [3, 4, 5])
    def test_table2(self, table2, min_sup):
        assert mine_closed(table2, min_sup).as_dict() == closed_patterns_bruteforce(
            table2, min_sup
        )

    def test_example_2_3_closed_abc_not_ab(self, table2):
        closed = mine_closed(table2, 4)
        assert "ABC" in closed
        assert "AB" not in closed


class TestCompletenessProperties:
    @pytest.mark.parametrize("min_sup", [2, 3])
    def test_every_frequent_pattern_has_closed_superpattern_with_equal_support(
        self, table3, min_sup
    ):
        all_patterns = mine_all(table3, min_sup)
        closed = mine_closed(table3, min_sup)
        for entry in all_patterns:
            assert any(
                entry.pattern.is_subpattern_of(c.pattern) and c.support == entry.support
                for c in closed
            ), f"{entry.pattern} has no closed super-pattern with equal support"

    def test_closed_set_is_subset_of_all_frequent(self, table3):
        all_patterns = mine_all(table3, 3)
        closed = mine_closed(table3, 3)
        assert closed.is_subset_of(all_patterns)


class TestOptions:
    def test_store_instances(self, table3):
        closed = mine_closed(table3, 3, store_instances=True)
        assert closed["ACB"].support_set is not None

    def test_max_length_interacts_with_closedness(self, table3):
        # With a length cap the reported set is "closed among patterns of
        # length <= cap": every reported pattern is frequent and no reported
        # pattern has an equal-support super-pattern *within the cap*.
        capped = mine_closed(table3, 3, max_length=2)
        assert all(len(p) <= 2 for p in capped.patterns())
        assert all(entry.support >= 3 for entry in capped)

    def test_empty_database(self):
        assert len(mine_closed(SequenceDatabase(), 1)) == 0

    def test_single_sequence_single_event(self):
        db = SequenceDatabase.from_strings(["AAAA"])
        closed = mine_closed(db, 2)
        # Landmarks may share positions at *different* indices without
        # overlapping (Definition 2.3), so in AAAA the greedy support set of
        # AA is {<1,2>, <2,3>, <3,4>} (support 3) and that of AAA is
        # {<1,2,3>, <2,3,4>} (support 2).  All three supports differ, so all
        # three patterns are closed.
        assert closed.as_dict() == {Pattern("A"): 4, Pattern("AA"): 3, Pattern("AAA"): 2}

    def test_repeated_block_collapses_to_longest(self):
        db = SequenceDatabase.from_strings(["ABCABCABC"])
        closed = mine_closed(db, 3)
        assert closed.as_dict() == {Pattern("ABC"): 3}


class TestChildHandOver:
    """Each node's grown children go straight to the DFS loop.

    So within one run no ``(node, event)`` child is grown twice, and every
    DFS growth call is one ``ins_grow_calls`` tick.
    """

    @staticmethod
    def _spy_on_dfs_growth(monkeypatch) -> Counter:
        grown: Counter = Counter()
        original = GSgrow._grow_children

        def spy(miner, index, support_set, events, supports):
            engine = miner._engine

            def grow(index, parent, event, constraint=None):
                grown[parent.pattern.events, event] += 1
                return engine.grow(index, parent, event, constraint=constraint)

            miner._engine = SupportEngine("spy", engine.initial, grow)
            try:
                return original(miner, index, support_set, events, supports)
            finally:
                miner._engine = engine

        monkeypatch.setattr(GSgrow, "_grow_children", spy)
        return grown

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"enable_lbcheck": False}, {"max_length": 3}, {"constraint": GapConstraint(0, 2)}],
        ids=["default", "no_lbcheck", "cap3", "max_gap"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_child_is_grown_twice(self, monkeypatch, seed, kwargs):
        db = MarkovSequenceGenerator(
            num_sequences=8, num_events=7, average_length=18.0, concentration=4.0, seed=seed
        ).generate()
        reference = CloGSgrow(5, **kwargs).mine(db)
        grown = self._spy_on_dfs_growth(monkeypatch)
        miner = CloGSgrow(5, **kwargs)
        assert miner.mine(db).as_dict() == reference.as_dict()
        assert grown and max(grown.values()) == 1
        assert sum(grown.values()) == miner.stats.ins_grow_calls
        if "constraint" in kwargs:
            assert miner.stats.siblings_pruned == 0
        elif not kwargs:
            assert miner.stats.siblings_pruned > 0
