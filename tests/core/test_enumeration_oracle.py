"""Both miners against brute-force enumeration of every word up to a length.

The pruning-regression suite compares CloGSgrow with a closed filter of
GSgrow's output, so it cannot see a bug the two miners share (both run the
same DFS and the same sibling rule).  Here neither miner is the reference:
each case enumerates every word over the database's *full* alphabet up to
``CAP + 1`` events and computes its support from scratch with
``sup_comp_compressed`` (``sup_comp`` under a gap constraint).  The only
pruning the enumeration uses is Lemma 1 (growing a pattern never raises its
support), so a word is skipped only when its own prefix is infrequent.

From that table:

* GSgrow capped at ``CAP`` must report exactly the frequent words of length
  at most ``CAP`` over its candidate events, in DFS preorder;
* CloGSgrow capped at ``CAP`` must report exactly those whose every
  single-event extension (append, insert, prepend) over the full alphabet
  has a different support (Theorem 4).

The databases use 6-8 events, an alphabet the 3-event property tests never
reach, so most DFS nodes have infrequent siblings for the sibling rule to
skip.
"""

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.compressed import sup_comp_compressed
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow
from repro.core.pattern import Pattern
from repro.core.support import sup_comp
from repro.datagen.markov import MarkovSequenceGenerator
from repro.db.index import InvertedEventIndex

SEEDS = [0, 1, 2]
NUM_EVENTS = [6, 7, 8]
MIN_SUP = 4
CAP = 3


def _markov_index(seed, num_events):
    database = MarkovSequenceGenerator(
        num_sequences=8,
        num_events=num_events,
        average_length=18.0,
        concentration=4.0,
        seed=seed,
    ).generate()
    return InvertedEventIndex(database)


def _support_table(index, constraint=None):
    """``pattern -> support`` of each word up to ``CAP + 1`` events with a frequent prefix."""
    alphabet = sorted(index.alphabet(), key=repr)
    table = {}
    frontier = [Pattern(())]
    for _ in range(CAP + 1):
        grown = []
        for prefix in frontier:
            for event in alphabet:
                word = prefix.grow(event)
                if constraint is None:
                    support = sup_comp_compressed(index, word).support
                else:
                    support = sup_comp(index, word, constraint).support
                table[word] = support
                if support >= MIN_SUP:
                    grown.append(word)
        frontier = grown
    return table


def _frequent_preorder(table, events):
    """Frequent words over ``events`` up to ``CAP`` events, in DFS discovery order."""
    order = []

    def visit(prefix):
        for event in events:
            word = prefix.grow(event)
            if table.get(word, 0) >= MIN_SUP:
                order.append((word, table[word]))
                if len(word) < CAP:
                    visit(word)

    visit(Pattern(()))
    return order


def _single_event_extensions(pattern, alphabet):
    for event in alphabet:
        for gap in range(len(pattern) + 1):  # 0 = prepend, len = append
            yield pattern.insert(gap, event)


def _closed(frequent, table, alphabet):
    """The patterns no single-event extension over ``alphabet`` ties (Theorem 4)."""
    return {
        pattern: support
        for pattern, support in frequent
        if all(
            table.get(extension, 0) != support
            for extension in _single_event_extensions(pattern, alphabet)
        )
    }


def _mined(miner, index):
    return [(entry.pattern, entry.support) for entry in miner.mine(index)]


def _check(index, constraint=None, events=None):
    alphabet = sorted(index.alphabet(), key=repr)
    table = _support_table(index, constraint)
    candidates = alphabet if events is None else sorted(events, key=repr)
    frequent = _frequent_preorder(table, candidates)
    assert frequent, "the case must mine something"
    kwargs = {"max_length": CAP, "constraint": constraint, "events": events}
    assert _mined(GSgrow(MIN_SUP, **kwargs), index) == frequent
    closed = CloGSgrow(MIN_SUP, **kwargs)
    assert dict(_mined(closed, index)) == _closed(frequent, table, alphabet)
    return closed.stats


@pytest.mark.parametrize("num_events", NUM_EVENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_unconstrained_matches_enumeration(seed, num_events):
    _check(_markov_index(seed, num_events))


@pytest.mark.parametrize("num_events", NUM_EVENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_max_gap_matches_greedy_sup_comp(seed, num_events):
    # Theorem 1 fails under a maximum gap, so the sibling rule must be off.
    stats = _check(_markov_index(seed, num_events), constraint=GapConstraint(0, 2))
    assert stats.siblings_pruned == 0


@pytest.mark.parametrize("num_events", NUM_EVENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_event_subset_closure_ranges_over_full_alphabet(seed, num_events):
    # The DFS grows only every other event, but closedness is a property of
    # the full pattern universe: an append over an event the DFS never
    # tried can still tie a reported pattern's support.
    index = _markov_index(seed, num_events)
    _check(index, events=sorted(index.alphabet(), key=repr)[::2])
