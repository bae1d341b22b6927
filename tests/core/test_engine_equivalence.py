"""``store_instances`` support sets ≡ the ``sup_comp`` oracle.

Every mining DFS runs on the Section III-D compressed ``(i, l1, lm)``
triples; ``store_instances=True`` only adds an after-the-fact materialiser
that grows each reported pattern's full-landmark leftmost support set along a
shared prefix stack.  These tests pin, on randomized Markov databases and
under every configuration (gap constraints, ``max_length`` caps, LBCheck
on/off), that

* every reported ``support_set`` equals ``sup_comp(db, pattern, constraint)``
  and its ``per_sequence`` equals ``support_set.per_sequence_counts()``;
* the ``(pattern, support)`` discovery order equals ``store_instances=False``;
* spilled materialised sets are ``memoryview``-backed and equal the resident
  ones;

and pin the one-event-hash-per-``ins_grow`` interning contract on both
growth kernels.
"""

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.constraints import GapConstraint
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE
from repro.core.gsgrow import GSgrow
from repro.core.spill import SpillPolicy
from repro.core.support import sup_comp
from repro.datagen.markov import MarkovSequenceGenerator
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex

SEEDS = [0, 1, 2, 3]
MIN_SUP = 4


@pytest.fixture(autouse=True)
def validate_right_shift_order(monkeypatch):
    """Arm the compressed engine's right-shift-order assertion for this suite."""
    import repro.core.compressed as compressed_module

    monkeypatch.setattr(compressed_module, "VALIDATE_ORDER", True)

CONFIGS = [
    pytest.param({}, id="plain"),
    pytest.param({"constraint": GapConstraint(1, None)}, id="min-gap"),
    pytest.param({"constraint": GapConstraint(0, 2)}, id="max-gap"),
    pytest.param({"max_length": 3}, id="capped"),
    pytest.param({"constraint": GapConstraint(1, 3), "max_length": 4}, id="gap+cap"),
]

MINERS = [
    pytest.param(GSgrow, id="gsgrow"),
    pytest.param(CloGSgrow, id="clogsgrow"),
    pytest.param(
        lambda min_sup, **kwargs: CloGSgrow(min_sup, enable_lbcheck=False, **kwargs),
        id="clogsgrow-no-lbcheck",
    ),
]


def _markov_db(seed):
    return MarkovSequenceGenerator(
        num_sequences=6,
        num_events=5,
        average_length=14.0,
        concentration=4.0,
        seed=seed,
    ).generate()


def _snapshot(result):
    """Patterns + supports in discovery order — what byte-identity means."""
    return [(entry.pattern.events, entry.support) for entry in result]


def _instances(result):
    return [
        (entry.pattern, entry.support, entry.support_set, entry.per_sequence)
        for entry in result
    ]


@pytest.mark.parametrize("miner", MINERS)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_materialised_instances_match_sup_comp(seed, config, miner):
    db = _markov_db(seed)
    with_instances = miner(MIN_SUP, store_instances=True, **config).mine(db)
    without = miner(MIN_SUP, **config).mine(db)
    assert _snapshot(with_instances) == _snapshot(without)
    index = InvertedEventIndex(db)
    constraint = config.get("constraint")
    for entry in with_instances:
        assert entry.support_set == sup_comp(index, entry.pattern, constraint)
        assert entry.per_sequence == entry.support_set.per_sequence_counts()


def test_config_change_after_init_is_honoured(table3):
    miner = GSgrow(3)
    miner.config.store_instances = True
    assert all(entry.support_set is not None for entry in miner.mine(table3))


@pytest.mark.parametrize("miner", MINERS)
def test_spilled_instances_equal_resident(tmp_path, miner):
    db = _markov_db(0)
    resident = miner(MIN_SUP, store_instances=True).mine(db)
    spilled = miner(
        MIN_SUP, store_instances=True, spill_budget=1, spill_dir=str(tmp_path)
    ).mine(db)
    assert _instances(spilled) == _instances(resident)
    if SpillPolicy(1).enabled:
        assert all(
            isinstance(entry.support_set.landmarks_array, memoryview) for entry in spilled
        )


def test_shared_index_memo_is_never_mutated(tmp_path):
    """Miners share the index's memoised size-1 arrays without mutating them.

    ``initial_compressed_support_set`` uses the memoised positions as its
    ``lasts`` column and ``initial_support_set`` as its landmarks, so a
    sweep or spill that wrote through either alias would corrupt every
    later mine over the same index.  One seed: a budget-1 spill run writes
    a file per frontier set, so it is the slowest mine in this suite.
    """
    db = _markov_db(0)
    shared = InvertedEventIndex(db)
    runs = [
        lambda: CloGSgrow(MIN_SUP),
        lambda: GSgrow(MIN_SUP, store_instances=True, constraint=GapConstraint(max_gap=2)),
        lambda: CloGSgrow(MIN_SUP, spill_budget=1, spill_dir=str(tmp_path)),
    ]
    for make_miner in runs:
        on_shared = make_miner().mine(shared)
        on_fresh = make_miner().mine(InvertedEventIndex(db))
        assert _instances(on_shared) == _instances(on_fresh)
    fresh = InvertedEventIndex(db)
    for event in fresh.alphabet():
        assert [list(c) for c in shared.size_one_arrays(event)] == [
            list(c) for c in fresh.size_one_arrays(event)
        ]


class _CountingEvent:
    """Hashable event that counts every ``__hash__`` invocation."""

    hash_calls = 0

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __hash__(self):
        _CountingEvent.hash_calls += 1
        return hash(self.label)

    def __eq__(self, other):
        return isinstance(other, _CountingEvent) and self.label == other.label

    def __repr__(self):
        return f"Ev({self.label})"


def _counting_database():
    events = {c: _CountingEvent(c) for c in "AB"}
    sequences = [
        [events[c] for c in "ABABABAB"],
        [events[c] for c in "AABBAABB"],
    ]
    return SequenceDatabase(sequences), events


@pytest.mark.parametrize(
    "engine",
    [FULL_LANDMARK_ENGINE, COMPRESSED_ENGINE],
    ids=["full-landmark", "compressed"],
)
class TestInterningInvariant:
    """Each ``ins_grow`` call hashes the caller's event object exactly once."""

    def test_one_hash_per_grow_call(self, engine):
        db, events = _counting_database()
        index = InvertedEventIndex(db)
        base = engine.initial(index, events["A"])
        _CountingEvent.hash_calls = 0
        grown = engine.grow(index, base, events["B"])
        assert _CountingEvent.hash_calls == 1
        assert grown.support == 8

    def test_one_hash_per_constrained_grow_call(self, engine):
        db, events = _counting_database()
        index = InvertedEventIndex(db)
        base = engine.initial(index, events["A"])
        _CountingEvent.hash_calls = 0
        grown = engine.grow(index, base, events["B"], constraint=GapConstraint(0, 2))
        assert _CountingEvent.hash_calls == 1
        assert grown.support > 0

    def test_one_hash_per_initial_set(self, engine):
        db, events = _counting_database()
        index = InvertedEventIndex(db)
        _CountingEvent.hash_calls = 0
        initial = engine.initial(index, events["A"])
        assert _CountingEvent.hash_calls == 1
        assert initial.support == 8
