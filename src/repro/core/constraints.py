"""Gap constraints (the Section V "future work" variant).

The paper mines patterns with *arbitrary* gaps and mentions gap-constrained
(and approximate) mining as future work.  :class:`GapConstraint` implements
the natural constrained variant: the number of events strictly between two
consecutive landmark positions must lie within ``[min_gap, max_gap]``.

Caveat on semantics
-------------------
The optimality proof of instance growth (Lemma 4) relies on unbounded gaps:
with a *maximum* gap constraint the greedy leftmost extension is no longer
guaranteed to realise the maximum number of non-overlapping instances, so the
constrained miners report a lower bound on the constrained repetitive
support (they remain exact whenever ``max_gap`` is unbounded, and the
reported instance sets are always valid non-overlapping instance sets that
satisfy the constraint).  This is documented behaviour, not a bug; the exact
constrained problem is outside the paper's scope.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GapConstraint:
    """Bounds on the gap between consecutive landmark positions.

    The *gap* between consecutive positions ``l_{j-1}`` and ``l_j`` is the
    number of events strictly between them, i.e. ``l_j - l_{j-1} - 1``.

    Parameters
    ----------
    min_gap:
        Minimum allowed gap (``0`` means adjacent events are allowed).
    max_gap:
        Maximum allowed gap, or ``None`` for unbounded (the paper's setting).
    """

    min_gap: int = 0
    max_gap: int | None = None

    def __post_init__(self):
        if self.min_gap < 0:
            raise ValueError(f"min_gap must be >= 0, got {self.min_gap}")
        if self.max_gap is not None and self.max_gap < self.min_gap:
            raise ValueError(
                f"max_gap ({self.max_gap}) must be >= min_gap ({self.min_gap})"
            )

    @property
    def unbounded(self) -> bool:
        """True when no maximum gap is imposed (exact-semantics regime)."""
        return self.max_gap is None

    def lowest_allowed(self, previous_position: int) -> int:
        """Smallest exclusive lower bound on the next position.

        The next landmark position must be ``> previous_position + min_gap``;
        this returns that exclusive bound for use with ``next()`` queries.
        """
        return previous_position + self.min_gap

    def highest_allowed(self, previous_position: int) -> int | None:
        """Largest position allowed after ``previous_position`` (or None)."""
        if self.max_gap is None:
            return None
        return previous_position + self.max_gap + 1

    def allows(self, previous_position: int, next_position: int) -> bool:
        """True if moving from ``previous_position`` to ``next_position`` is legal."""
        gap = next_position - previous_position - 1
        if gap < self.min_gap:
            return False
        if self.max_gap is not None and gap > self.max_gap:
            return False
        return True

    def allows_landmark(self, landmark) -> bool:
        """True if every consecutive pair of positions in ``landmark`` is legal."""
        return all(self.allows(a, b) for a, b in zip(landmark, landmark[1:], strict=False))

    def describe(self) -> str:
        """Human readable description used in experiment reports."""
        upper = "∞" if self.max_gap is None else str(self.max_gap)
        return f"gap in [{self.min_gap}, {upper}]"


#: The paper's default setting: any gap is allowed.
UNCONSTRAINED = GapConstraint(0, None)


def apriori_holds(constraint: GapConstraint | None) -> bool:
    """Whether Theorem 1 bounds every super-pattern by its sub-patterns.

    Dropping a middle event from each instance merges two gaps, which may
    break ``max_gap``.  The miners' sibling rule and the closure checker's
    2-gram filter rest on this bound, and both consult this one test.
    """
    return constraint is None
