"""Storage backends for the inverted event index (the ``ColumnStore`` seam).

The inverted index (:class:`repro.db.index.InvertedEventIndex`) keeps its
position lists behind a small protocol, :class:`ColumnStore`, with two
implementations:

* :class:`RamColumnStore` — every position list is an ``array('q')`` in
  RAM, laid out event-major (``by_event[eid] -> {i: array('q')}``) so the
  growth sweeps reach a column with one dict probe.  Fastest, and the
  byte-identity reference the disk backend is tested against.
* :class:`~repro.db.backend.disk.DiskColumnStore` — sealed mmap'd segment
  files plus a small journalled in-RAM tail, for databases bigger than
  RAM.  Built with :func:`make_backend("disk", ...) <make_backend>`.

The seam's contract (what the index relies on):

* Sequences are dense 1-based indices assigned by :meth:`ColumnStore.add_sequence`.
* Events are interned small-int ids — the interner stays in the index
  layer; the store never sees user event objects.  Reads of an id the
  store has never seen — including a negative one such as the index's
  ``NO_EVENT`` (``-1``) — answer "no positions"; an event-major list must
  never let ``-1`` wrap around to the last event.
* :meth:`ColumnStore.get` returns a sorted int64 *column* — either an
  ``array('q')`` or a ``memoryview`` cast to ``'q'``.  Both support
  ``len``/indexing/iteration/``bisect`` and the buffer protocol, so the
  vectorized sweep's ``numpy.frombuffer`` zero-copy view keeps working.
  Callers must never mutate a returned column.
* :meth:`ColumnStore.positions_of` returns one event's columns as an
  :class:`EventColumns` object whose ``get(i)`` is ``get(i, eid)``.  The
  growth sweeps hoist that bound ``get`` once per call and then pay one
  call per sequence run.  The RAM store hands out its live per-event dict;
  the disk store a stateless accessor over :meth:`~ColumnStore.get`, never
  a cached per-event copy (that would pull a bigger-than-RAM index into
  RAM).
* :meth:`ColumnStore.size_one` returns the flat ``(sequence indices,
  positions)`` arrays of all occurrences of one event — the size-1
  support set.  The RAM store memoises them per event id and drops an
  event's arrays whenever a write touches that event; the disk store
  builds them afresh on every call.  Callers share the returned arrays
  and must never mutate them.
* Positions only ever grow: :meth:`ColumnStore.append_position` appends a
  position strictly larger than every existing one for that pair, which
  is what keeps columns sorted without re-sorting (the streaming
  invariant).

Byte-format internals (:mod:`~repro.db.backend.layout`,
:mod:`~repro.db.backend.disk`) may only be imported from inside
:mod:`repro.db` — reprolint rule RL007 enforces the seam.  Everything else
uses this facade: :func:`make_backend` plus the re-exported names below.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Protocol, runtime_checkable

from repro.db.backend.layout import (
    FORMAT_VERSION,
    POSITION_TYPECODE,
    BackendFormatError,
    Column,
    PathLike,
    can_map_zero_copy,
)

__all__ = [
    "BackendFormatError",
    "Column",
    "ColumnStore",
    "EventColumns",
    "FORMAT_VERSION",
    "POSITION_TYPECODE",
    "RamColumnStore",
    "SizeOneArrays",
    "can_map_zero_copy",
    "flatten_occurrences",
    "make_backend",
]

_ITEMSIZE = array(POSITION_TYPECODE).itemsize

#: ``(sequence indices, positions)`` of every occurrence of one event, in
#: right-shift order (ascending sequence index, then ascending position).
SizeOneArrays = tuple["array[int]", "array[int]"]

#: What :meth:`RamColumnStore.positions_of` returns for an unknown event id.
_NO_COLUMNS: Mapping[int, "array[int]"] = MappingProxyType({})


class EventColumns(Protocol):
    """One event's columns, keyed by sequence index (see :meth:`ColumnStore.positions_of`)."""

    def get(self, i: int, /) -> Column | None:
        """The sorted position column of ``(S_i, eid)``, or ``None``."""
        ...


def flatten_occurrences(occurrences: Iterable[tuple[int, Column]]) -> SizeOneArrays:
    """Flatten ``(i, positions)`` pairs into ``(sequence indices, positions)`` arrays."""
    seqs = array(POSITION_TYPECODE)
    positions = array(POSITION_TYPECODE)
    for i, plist in occurrences:
        seqs.extend(array(POSITION_TYPECODE, [i]) * len(plist))
        positions.extend(plist)
    return seqs, positions


@runtime_checkable
class ColumnStore(Protocol):
    """Storage seam behind :class:`~repro.db.index.InvertedEventIndex`.

    Implementations store one sorted int64 position column per
    ``(sequence, event id)`` pair; see the module docstring for the full
    contract (dense 1-based sequence indices, interned event ids, unknown
    ids read as absent, append-only growth, immutable returned columns).
    """

    name: str

    def sequence_count(self) -> int:
        """Number of sequences added so far."""
        ...

    def add_sequence(self, per_event: Mapping[int, "array[int]"]) -> int:
        """Add a new sequence's per-event position lists; return its 1-based index.

        The store may take ownership of the passed arrays.
        """
        ...

    def append_position(self, i: int, eid: int, position: int) -> None:
        """Append ``position`` (strictly larger than all existing) to ``(S_i, eid)``."""
        ...

    def get(self, i: int, eid: int) -> Column | None:
        """The sorted position column of ``(S_i, eid)``, or ``None``."""
        ...

    def positions_of(self, eid: int) -> EventColumns:
        """Event ``eid``'s columns: ``positions_of(eid).get(i) == get(i, eid)`` (hot path)."""
        ...

    def size_one(self, eid: int) -> SizeOneArrays:
        """Flat ``(sequence indices, positions)`` arrays of every occurrence of ``eid``."""
        ...

    def event_ids(self, i: int) -> set[int]:
        """Distinct event ids occurring in sequence ``S_i``."""
        ...

    def occurrences(self, eid: int) -> Iterator[tuple[int, Column]]:
        """``(i, positions)`` for every sequence containing ``eid``, ascending ``i``."""
        ...

    def flush(self) -> None:
        """Make journalled state durable (no-op for RAM)."""
        ...

    def close(self) -> None:
        """Release held resources (mappings, file handles, temp dirs)."""
        ...

    def memory_stats(self) -> dict[str, int]:
        """At least ``resident_bytes`` and ``mapped_bytes`` (see obs gauges)."""
        ...


class RamColumnStore:
    """The in-RAM layout, event-major: ``by_event[eid] -> {i: array('q')}``.

    Each column is an ``array('q')`` that grows in place under
    :meth:`append_position`.  :meth:`positions_of` hands out the live
    per-event dict, so a sweep's per-sequence lookup is one C-level dict
    probe.  Size-1 arrays are memoised per event id until the next write
    to that event.
    """

    __slots__ = ("name", "_by_event", "_count", "_size_one")

    def __init__(self) -> None:
        self.name = "ram"
        self._by_event: list[dict[int, "array[int]"]] = []
        self._count = 0
        self._size_one: dict[int, SizeOneArrays] = {}

    def sequence_count(self) -> int:
        return self._count

    def add_sequence(self, per_event: Mapping[int, "array[int]"]) -> int:
        self._count += 1
        i = self._count
        for eid, plist in per_event.items():
            self._columns(eid)[i] = plist
            self._size_one.pop(eid, None)
        return i

    def append_position(self, i: int, eid: int, position: int) -> None:
        columns = self._columns(eid)
        plist = columns.get(i)
        if plist is None:
            columns[i] = array(POSITION_TYPECODE, (position,))
        else:
            plist.append(position)
        self._size_one.pop(eid, None)

    def get(self, i: int, eid: int) -> Column | None:
        by_event = self._by_event
        if 0 <= eid < len(by_event):
            return by_event[eid].get(i)
        return None

    def positions_of(self, eid: int) -> Mapping[int, "array[int]"]:
        by_event = self._by_event
        if 0 <= eid < len(by_event):
            return by_event[eid]
        return _NO_COLUMNS

    def size_one(self, eid: int) -> SizeOneArrays:
        arrays = self._size_one.get(eid)
        if arrays is None:
            arrays = flatten_occurrences(self.occurrences(eid))
            if 0 <= eid < len(self._by_event):
                self._size_one[eid] = arrays
        return arrays

    def event_ids(self, i: int) -> set[int]:
        return {eid for eid, columns in enumerate(self._by_event) if i in columns}

    def occurrences(self, eid: int) -> Iterator[tuple[int, Column]]:
        columns = self.positions_of(eid)
        # Sorted: extend_sequence may give an older sequence its first
        # occurrence of eid after newer ones, out of insertion order.
        for i in sorted(columns):
            plist = columns[i]
            if plist:
                yield i, plist

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def memory_stats(self) -> dict[str, int]:
        resident = sum(
            len(plist) * _ITEMSIZE
            for columns in self._by_event
            for plist in columns.values()
        )
        return {
            "resident_bytes": resident,
            "mapped_bytes": 0,
            "segments": 0,
            "seals": 0,
            "sequences": self._count,
        }

    def _columns(self, eid: int) -> dict[int, "array[int]"]:
        """The live per-event dict of ``eid``, growing the event list to reach it."""
        by_event = self._by_event
        while len(by_event) <= eid:
            by_event.append({})
        return by_event[eid]


def make_backend(
    spec: "str | ColumnStore | None",
    *,
    directory: PathLike | None = None,
    segment_bytes: int | None = None,
    use_mmap: bool | str = "auto",
) -> ColumnStore:
    """Resolve a backend spec into a :class:`ColumnStore`.

    ``spec`` is ``"ram"``/``None`` (the default in-RAM store), ``"disk"``
    (a :class:`~repro.db.backend.disk.DiskColumnStore` in ``directory`` —
    a temp dir removed on close when ``directory`` is ``None``), or an
    already-constructed store, returned as-is.  ``segment_bytes`` and
    ``use_mmap`` only apply to ``"disk"``.
    """
    if spec is None or spec == "ram":
        return RamColumnStore()
    if spec == "disk":
        from repro.db.backend.disk import DEFAULT_SEGMENT_BYTES, DiskColumnStore

        return DiskColumnStore(
            directory,
            segment_bytes=DEFAULT_SEGMENT_BYTES if segment_bytes is None else segment_bytes,
            use_mmap=use_mmap,
        )
    if isinstance(spec, str):
        raise ValueError(f"unknown db backend {spec!r} (expected 'ram' or 'disk')")
    return spec
