"""Micro-benchmarks of the core mining primitives.

These complement the figure-level benchmarks with per-operation timings:
instance growth, support computation, closure checking, and whole-database
mining at a moderate threshold on the running-example style data scaled up.
"""

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.closure import ClosureChecker
from repro.core.compressed import initial_compressed_support_set, ins_grow_compressed
from repro.core.gsgrow import GSgrow
from repro.core.instance_growth import ins_grow
from repro.core.pattern import Pattern
from repro.core.support import initial_support_set, sup_comp
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.db.index import InvertedEventIndex


@pytest.fixture(scope="module")
def quest_database():
    params = QuestParameters(D=5, C=20, N=10, S=20)
    return QuestSequenceGenerator(params, scale=0.02, seed=2).generate()


@pytest.fixture(scope="module")
def quest_index(quest_database):
    return InvertedEventIndex(quest_database)


@pytest.fixture(scope="module")
def frequent_pair(quest_index):
    """A 2-event pattern with high support, picked deterministically."""
    events = quest_index.frequent_events(10)
    best = None
    for first in events[:10]:
        grown = ins_grow(quest_index, initial_support_set(quest_index, first), first)
        for second in events[:10]:
            candidate = ins_grow(quest_index, initial_support_set(quest_index, first), second)
            if best is None or candidate.support > best[1]:
                best = ((first, second), candidate.support)
    return best[0]


def test_instance_growth_single_step(benchmark, quest_index, frequent_pair):
    first, second = frequent_pair
    base = initial_support_set(quest_index, first)
    grown = benchmark(ins_grow, quest_index, base, second)
    assert grown.support >= 0


def test_sup_comp_three_events(benchmark, quest_index, frequent_pair):
    first, second = frequent_pair
    pattern = Pattern((first, second, first))
    support_set = benchmark(sup_comp, quest_index, pattern)
    assert support_set.support >= 0


def test_closure_check_single_pattern(benchmark, quest_index, frequent_pair):
    first, second = frequent_pair
    checker = ClosureChecker(quest_index)
    # The checker runs on compressed triples, the representation the DFS carries.
    prefix = initial_compressed_support_set(quest_index, first)
    support_set = ins_grow_compressed(quest_index, prefix, second)

    def run():
        return checker.check(support_set, [prefix, support_set])

    decision = benchmark(run)
    assert decision is not None


def test_gsgrow_moderate_threshold(benchmark, quest_database):
    result = benchmark.pedantic(
        GSgrow(12, max_length=4).mine, args=(quest_database,), rounds=1, iterations=1
    )
    assert len(result) > 0


def test_clogsgrow_moderate_threshold(benchmark, quest_database):
    result = benchmark.pedantic(
        CloGSgrow(12, max_length=4).mine, args=(quest_database,), rounds=1, iterations=1
    )
    assert len(result) > 0
