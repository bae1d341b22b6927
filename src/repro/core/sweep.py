"""Vectorized instance-growth sweeps over compressed border arrays.

The greedy rule of Algorithm 2 looks sequential — the position consumed by
one instance becomes the lower bound of the next instance of the same
sequence — but for the *unconstrained* case it collapses into a closed form.
Within one sequence run, let ``P`` be the sorted positions of the event being
appended and ``idx_k = bisect_right(P, last_k)`` the first candidate index of
instance ``k``.  The index the greedy sweep actually consumes satisfies

    chosen_k = max(idx_k, chosen_{k-1} + 1)

(the ``+ 1`` is "strictly right of the previously consumed position", which
is exactly the next entry of the strictly increasing ``P``).  Substituting
``d_k = chosen_k - k`` turns the recurrence into a running maximum,

    chosen_k = k + max(idx_0 - 0, idx_1 - 1, ..., idx_k - k),

i.e. a ``searchsorted`` plus a cumulative maximum — both one-shot vector
operations.  ``chosen`` is strictly increasing, so once an instance runs off
the end of ``P`` every later instance of the run does too, reproducing the
``break`` of the scalar sweep (line 5 of Algorithm 2).

:func:`grow_triples` applies that closed form per sequence run over the
columnar ``(seqs, firsts, lasts)`` arrays of a
:class:`~repro.core.compressed.CompressedSupportSet`.  When numpy is
importable and the set is large enough to amortise array conversion, the
numpy path is used; otherwise a pure-python flat sweep (identical to the
one in :mod:`repro.core.instance_growth`, minus the landmark copies) runs.
Both paths read the appended event's columns through one per-sequence
getter, the bound ``get`` of
:meth:`InvertedEventIndex.positions_of(eid) <repro.db.index.InvertedEventIndex.positions_of>`,
which the caller hoists once per growth call (a dict probe per sequence run
on the RAM backend).  Numpy is an optional accelerator, never a dependency:
the position arrays of :class:`~repro.db.index.InvertedEventIndex` are
``array('q')`` buffers, so ``np.frombuffer`` views them zero-copy, and both
paths produce bit-identical ``array('q')`` outputs.

Gap-constrained growth is *not* vectorized: a ``max_gap`` rejection skips an
instance without consuming a position, which breaks the recurrence above.
Constrained calls always run the scalar sweep.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Callable
from typing import Any

from repro.core.constraints import GapConstraint
from repro.db.index import POSITION_TYPECODE

#: The numpy module when importable, else ``None``.  Typed ``Any`` because
#: numpy is an optional accelerator the type checker never requires.
_np: Any
try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np_module

    _np = _np_module
except ImportError:  # pragma: no cover
    _np = None

#: True when the numpy-accelerated sweep is available.
HAVE_NUMPY = _np is not None

#: Minimum number of instances before the numpy path pays for its array
#: round-trips; below this the pure-python sweep is faster.
NUMPY_MIN_ROWS = 64

#: Minimum *average run length* (instances per sequence) for the numpy path.
#: The vectorized sweep runs once per sequence run, so its per-run overhead
#: (searchsorted dispatch, arange, fancy indexing) only amortises when runs
#: are long; a support set spread thinly over many sequences is faster
#: through the scalar sweep.  The run count is measured exactly (one
#: vectorized comparison over the sequence-index column, whose boundaries the
#: numpy sweep needs anyway).
NUMPY_MIN_RUN_LENGTH = 16

_ITEMSIZE = array(POSITION_TYPECODE).itemsize

#: (sequence indices, first positions, last positions) column arrays.
TripleArrays = tuple["array[int]", "array[int]", "array[int]"]

#: Per-sequence column getter of the appended event: ``get(i)`` is its
#: sorted position column in ``S_i``, or ``None``.  Typed ``Any`` like the
#: columns the sweeps bisect, which are ``array('q')`` or ``memoryview``.
PositionGetter = Callable[[int], Any]


def grow_triples(
    seqs: array[int],
    firsts: array[int],
    lasts: array[int],
    get: PositionGetter,
    constraint: GapConstraint | None = None,
) -> TripleArrays:
    """Greedy growth over ``(i, l1, lm)`` column arrays.

    Parameters
    ----------
    seqs, firsts, lasts:
        The columns of a compressed support set in right-shift order.
    get:
        ``index.positions_of(eid).get`` for the interned id of the event
        being appended (resolved once by the caller — this function never
        hashes user event objects).
    constraint:
        Optional gap constraint; constrained calls always run the scalar
        sweep (a ``max_gap`` rejection skips an instance without consuming a
        position, which breaks the vectorized closed form).

    Returns
    -------
    TripleArrays
        The surviving instances' columns: sequence index and first position
        are carried over, the last position is the consumed occurrence.
    """
    n = len(seqs)
    if constraint is None and _np is not None and n >= NUMPY_MIN_ROWS:
        seqs_np = _np.frombuffer(seqs, dtype=_np.int64)
        changes = _np.flatnonzero(seqs_np[1:] != seqs_np[:-1]) + 1
        if n >= NUMPY_MIN_RUN_LENGTH * (len(changes) + 1):
            return _grow_triples_numpy(seqs_np, firsts, lasts, get, changes)
    return _grow_triples_python(seqs, firsts, lasts, get, constraint)


def _grow_triples_python(
    seqs: array[int],
    firsts: array[int],
    lasts: array[int],
    get: PositionGetter,
    constraint: GapConstraint | None = None,
) -> TripleArrays:
    """Scalar flat sweep (the fallback, small-set fast path, and the only
    constrained path); control flow mirrors
    :func:`repro.core.instance_growth.ins_grow`."""
    n = len(seqs)
    out_seqs = array(POSITION_TYPECODE, bytes(_ITEMSIZE * n))
    out_firsts = array(POSITION_TYPECODE, bytes(_ITEMSIZE * n))
    out_lasts = array(POSITION_TYPECODE, bytes(_ITEMSIZE * n))
    # Bound methods hoisted so the sweep never re-runs the attribute
    # descriptor lookups per instance.
    lowest_allowed = None if constraint is None else constraint.lowest_allowed
    allows = None if constraint is None else constraint.allows
    count = 0
    prev_seq = -1
    skip_seq = -1
    last_position = 0
    plist = None
    plen = 0
    # reprolint: hot-loop
    for k in range(n):
        i = seqs[k]
        if i == skip_seq:
            continue
        if i != prev_seq:
            prev_seq = i
            last_position = 0
            plist = get(i)
            if not plist:
                skip_seq = i
                continue
            plen = len(plist)
        last = lasts[k]
        lowest = last if last >= last_position else last_position
        if lowest_allowed is not None:
            bound = lowest_allowed(last)
            if bound > lowest:
                lowest = bound
        idx = bisect_right(plist, lowest)
        if idx >= plen:
            skip_seq = i
            continue
        position = plist[idx]
        if allows is not None and not allows(last, position):
            # Under a maximum-gap constraint the nearest occurrence may be
            # too far away for *this* instance while still usable by a later
            # one, so skip rather than break.
            continue
        last_position = position
        out_seqs[count] = i
        out_firsts[count] = firsts[k]
        out_lasts[count] = position
        count += 1
    if count < n:
        out_seqs = out_seqs[:count]
        out_firsts = out_firsts[:count]
        out_lasts = out_lasts[:count]
    return out_seqs, out_firsts, out_lasts


def _grow_triples_numpy(
    seqs: Any,
    firsts: array[int],
    lasts: array[int],
    get: PositionGetter,
    changes: Any = None,
) -> TripleArrays:
    """Closed-form sweep: one searchsorted + cumulative maximum per run.

    ``seqs`` may be the raw ``array('q')`` column or an ``np.int64`` view of
    it; ``changes`` are the precomputed run boundaries, if the caller (the
    :func:`grow_triples` gate) already paid for them.
    """
    np = _np
    seqs_np = seqs if isinstance(seqs, np.ndarray) else np.frombuffer(seqs, dtype=np.int64)
    lasts_np = np.frombuffer(lasts, dtype=np.int64)
    n = len(seqs_np)
    keep = np.zeros(n, dtype=bool)
    new_lasts = np.empty(n, dtype=np.int64)
    if changes is None:
        # Instances of one sequence are contiguous in right-shift order, so
        # the run boundaries are the points where the sequence index changes.
        changes = np.flatnonzero(seqs_np[1:] != seqs_np[:-1]) + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes, [n]))
    arange = np.arange(int((ends - starts).max())) if n else None
    for a, b in zip(starts, ends, strict=False):
        plist = get(int(seqs_np[a]))
        if not plist:
            continue
        positions = np.frombuffer(plist, dtype=np.int64)
        idx = positions.searchsorted(lasts_np[a:b], side="right")
        offsets = arange[: b - a]
        chosen = np.maximum.accumulate(idx - offsets) + offsets
        valid = chosen < len(positions)
        keep[a:b] = valid
        run_lasts = new_lasts[a:b]
        run_lasts[valid] = positions[chosen[valid]]
    firsts_np = np.frombuffer(firsts, dtype=np.int64)
    out_seqs = array(POSITION_TYPECODE)
    out_firsts = array(POSITION_TYPECODE)
    out_lasts = array(POSITION_TYPECODE)
    # Boolean fancy indexing always yields fresh contiguous arrays.
    out_seqs.frombytes(seqs_np[keep].tobytes())
    out_firsts.frombytes(firsts_np[keep].tobytes())
    out_lasts.frombytes(new_lasts[keep].tobytes())
    return out_seqs, out_firsts, out_lasts
