"""Seeded input generation for every workload.

The seed is the only source of randomness: the same ``--seed`` gives the
same databases, stores, queries and feeds, and the program under test sees
only these generated inputs.  Generation is not timed.

Every input is a seeded *relabelling* of a fixed base dataset: the seed
permutes the event names and the order of the sequences.  Freshly
generated synthetic data makes mining cost swing several-fold from one
seed to the next (the random pattern pool of a Quest database decides how
many patterns exist), and even thresholds read off each database's own
supports leave a 20-25% spread per database, which would bury any program
change under input noise.  A relabelled database has the same pattern
structure and the same supports, so the amount of work is fixed, while
every event name, every pattern the program reports and the order in
which the DFS meets events still change with the seed: caching or tuning
against one seed's concrete inputs does not carry over to another.  What
the seed does not vary is the shape of the data; the workloads vary that
on purpose instead (two scales, two thresholds, three generators).

Thresholds are read off each base database's supports (which the paper's
semantics define, so they do not move with the program's internals) and
are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.constraints import GapConstraint
from repro.core.gsgrow import mine_all
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.datagen.markov import MarkovSequenceGenerator
from repro.datagen.tcas import TcasLikeGenerator
from repro.db.database import SequenceDatabase

#: The core-ops Quest parameters (``D5C20N10S20``), scaled per database.
QUEST = QuestParameters(D=5, C=20, N=10, S=20)

#: mine-closed batch: (Quest scale, frequent 2-event patterns at the
#: threshold) per database.  Scale 0.02 is the core-ops database size,
#: 100 sequences over 200 events.  The thresholds come out at 8-11; the
#: pairs are chosen so that every database costs about the same (0.25 s at
#: the reference speed), which keeps the single-database times one
#: distribution whose median and tail are steady.
CLOSED_BATCH = ((0.015, 100), (0.015, 70), (0.02, 70), (0.02, 70))
#: Pattern-length cap of mine-closed (the core-ops setting).
CLOSED_MAX_LENGTH = 4

#: mine-instances batch: (TCAS-like traces, frequent 2-event patterns at
#: the threshold) per database; thresholds 11-19, each database about
#: 0.3 s at the reference speed.
INSTANCE_BATCH = ((30, 75), (30, 110), (40, 75), (40, 110))
#: The gap constraint of mine-instances.
INSTANCE_MAX_GAP = 3


@dataclass
class MiningTask:
    """One database of a mining batch and the threshold it is mined at."""

    database: SequenceDatabase
    min_sup: int


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 7919 + salt)


def _renaming(alphabet, seed: int, salt: int) -> dict:
    """A seeded permutation of ``alphabet`` (names map onto the same names)."""
    ordered = sorted(alphabet, key=repr)
    shuffled = ordered[:]
    _rng(seed, salt).shuffle(shuffled)
    return dict(zip(ordered, shuffled))


def _alphabet(*databases) -> set:
    return {event for database in databases for sequence in database for event in sequence.events}


def relabel(database: SequenceDatabase, renaming: dict, seed: int, salt: int) -> list[list]:
    """The database's sequences, renamed and in a seeded order."""
    sequences = [[renaming[event] for event in sequence.events] for sequence in database]
    _rng(seed, salt + 1).shuffle(sequences)
    return sequences


def pair_threshold(database: SequenceDatabase, target: int, **kwargs) -> int:
    """The support whose count of frequent 2-event patterns is closest to ``target``."""
    supports = sorted(
        (mp.support for mp in mine_all(database, 2, max_length=2, **kwargs) if len(mp.pattern) == 2),
        reverse=True,
    )
    best_threshold, best_gap = supports[-1], len(supports)
    for rank, support in enumerate(supports):
        # ``rank + 1`` patterns have support >= ``support`` once its ties end.
        if rank + 1 < len(supports) and supports[rank + 1] == support:
            continue
        if abs(rank + 1 - target) < best_gap:
            best_threshold, best_gap = support, abs(rank + 1 - target)
    return max(2, best_threshold)


def _batch(bases: list[tuple[SequenceDatabase, int]], seed: int) -> list[MiningTask]:
    tasks = []
    for salt, (base, threshold) in enumerate(bases):
        renaming = _renaming(_alphabet(base), seed, 10 * salt)
        tasks.append(MiningTask(SequenceDatabase(relabel(base, renaming, seed, 10 * salt)), threshold))
    return tasks


def closed_batch(seed: int) -> list[MiningTask]:
    """The mine-closed batch: Quest databases at two scales and two thresholds."""
    bases = []
    for number, (scale, target) in enumerate(CLOSED_BATCH):
        base = QuestSequenceGenerator(QUEST, scale=scale, seed=1000 + number).generate()
        bases.append((base, pair_threshold(base, target)))
    return _batch(bases, seed)


def instance_batch(seed: int) -> list[MiningTask]:
    """The mine-instances batch: TCAS-like traces at two sizes and two thresholds."""
    constraint = GapConstraint(max_gap=INSTANCE_MAX_GAP)
    bases = []
    for number, (size, target) in enumerate(INSTANCE_BATCH):
        base = TcasLikeGenerator(num_sequences=size, seed=2000 + number).generate()
        bases.append((base, pair_threshold(base, target, constraint=constraint)))
    return _batch(bases, seed)


#: serve-score: the served store and the query stream.
STORE_SCALE = 0.02
#: Closed patterns kept in the served store (the most frequent ones).
STORE_PATTERNS = 300
#: Frequent 2-event patterns at the served store's mining threshold.
STORE_PAIRS = 200
QUERY_SEQUENCES = 1, 8
#: Distinct hot requests; a fixed share of requests is drawn from them.
HOT_POOL = 16
HOT_SHARE = 0.25


def served_inputs(seed: int, count: int):
    """The database the served store is mined from, its threshold, and ``count`` requests.

    Queries come from a Quest generator with another seed than the store's
    database, renamed with the same permutation so that they share its
    event names.  ``HOT_SHARE`` of the requests repeat one of ``HOT_POOL``
    hot requests, so the daemon's response cache hits on them; every other
    request is distinct, so it misses.  Requests carry 1-8 sequences.
    """
    base = QuestSequenceGenerator(QUEST, scale=STORE_SCALE, seed=3000).generate()
    threshold = pair_threshold(base, STORE_PAIRS)
    queries = QuestSequenceGenerator(QUEST, scale=0.2, seed=3001).generate()
    renaming = _renaming(_alphabet(base, queries), seed, 200)
    database = SequenceDatabase(relabel(base, renaming, seed, 200))
    pool = relabel(queries, renaming, seed, 300)
    rng = _rng(seed, 400)
    cursor = 0

    def fresh() -> list[list[str]]:
        nonlocal cursor
        size = rng.randint(*QUERY_SEQUENCES)
        request = [pool[(cursor + i) % len(pool)] for i in range(size)]
        cursor += size
        # Unique per request even when the pool wraps around.
        request[0] = request[0] + [f"q{cursor}"]
        return request

    hot = [fresh() for _ in range(HOT_POOL)]
    requests = [rng.choice(hot) if rng.random() < HOT_SHARE else fresh() for _ in range(count)]
    return database, threshold, requests


#: stream-publish: Markov feed and the miner's window shape.
STREAM_EVENTS = 10
STREAM_LENGTH = 16.0
#: One batch fills exactly one shard and the window holds whole shards, so
#: every refresh re-mines one new shard and drops one old one: the cycles
#: are alike, and their median and tail are steady.
STREAM_BATCH = 8
STREAM_SHARD = 8
STREAM_WINDOW = 64
STREAM_MIN_SUP = 38
STREAM_MAX_LENGTH = 3
#: Distinct arrival batches; the feed cycles through them.
STREAM_BASE_BATCHES = 120


def stream_inputs(seed: int, batches: int, queries: int):
    """``batches`` arrival batches of Markov sequences and ``queries`` query sequences.

    Both come from one fixed Markov chain and the seed renames the events.
    Unlike a mined database, a stream's cost depends on its order (which
    sequences share a window), so the arrival order is fixed: a shuffled
    order spread the refresh-memory peak by 26% across seeds.  Arrivals
    cycle through ``STREAM_BASE_BATCHES`` batches.  Queries are shuffled
    and get a unique trailing event, so the daemon's cache never hits.
    """
    base = MarkovSequenceGenerator(
        num_sequences=STREAM_BASE_BATCHES * STREAM_BATCH + queries,
        num_events=STREAM_EVENTS,
        average_length=STREAM_LENGTH,
        concentration=4.0,
        seed=4000,
    ).generate()
    renaming = _renaming(_alphabet(base), seed, 500)
    sequences = [[renaming[event] for event in sequence.events] for sequence in base]
    arrivals, asked = sequences[: STREAM_BASE_BATCHES * STREAM_BATCH], sequences[STREAM_BASE_BATCHES * STREAM_BATCH :]
    _rng(seed, 501).shuffle(asked)
    cycle = [arrivals[i : i + STREAM_BATCH] for i in range(0, len(arrivals), STREAM_BATCH)]
    feed = [cycle[i % len(cycle)] for i in range(batches)]
    return feed, [query + [f"q{i}"] for i, query in enumerate(asked)]
