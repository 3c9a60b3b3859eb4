"""Per-attribute predicates and their conjunctions.

The paper's model (Sec 4.1, Eq. 16) restricts every statistic and every
query to a conjunction ``π = ρ_1 ∧ ... ∧ ρ_m`` with one predicate per
attribute (``ρ_i ≡ true`` when the attribute is unconstrained).  All
predicates operate on dense domain indices; label translation happens
at the query front-end.

Every predicate exposes:

* ``mask(size)`` — boolean vector over the domain (``True`` = passes),
* ``is_true`` — whether it is the trivial predicate,
* interval accessors for range predicates (the compression needs them).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.data.schema import Schema
from repro.errors import StatisticError


class Predicate:
    """Abstract per-attribute predicate over domain indices."""

    is_true = False

    def mask(self, size: int) -> np.ndarray:
        raise NotImplementedError

    def matches(self, index: int) -> bool:
        raise NotImplementedError


class TruePredicate(Predicate):
    """``ρ ≡ true`` — the attribute is unconstrained."""

    is_true = True

    def mask(self, size: int) -> np.ndarray:
        return np.ones(size, dtype=bool)

    def matches(self, index: int) -> bool:
        return True

    def __eq__(self, other):
        return isinstance(other, TruePredicate)

    def __hash__(self):
        return hash("TruePredicate")

    def __repr__(self):
        return "true"


#: Shared trivial predicate instance.
TRUE = TruePredicate()


class RangePredicate(Predicate):
    """``A ∈ [low, high]`` over dense indices, both ends inclusive.

    Point predicates are ranges with ``low == high``; the compression
    assumptions of Sec 4.1 (every ``ρ_ij`` is a range) are therefore
    satisfied by construction.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int):
        if low > high:
            raise StatisticError(f"empty range [{low}, {high}]")
        if low < 0:
            raise StatisticError(f"range lower bound must be >= 0, got {low}")
        self.low = int(low)
        self.high = int(high)

    @classmethod
    def point(cls, index: int) -> "RangePredicate":
        return cls(index, index)

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def mask(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=bool)
        out[self.low : self.high + 1] = True
        return out

    def matches(self, index: int) -> bool:
        return self.low <= index <= self.high

    def intersect(self, other: "RangePredicate") -> "RangePredicate | None":
        """Intersection as a range, or ``None`` when empty."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return RangePredicate(low, high)

    def contains_range(self, other: "RangePredicate") -> bool:
        return self.low <= other.low and other.high <= self.high

    def width(self) -> int:
        return self.high - self.low + 1

    def __eq__(self, other):
        if not isinstance(other, RangePredicate):
            return NotImplemented
        return (self.low, self.high) == (other.low, other.high)

    def __hash__(self):
        return hash((self.low, self.high))

    def __repr__(self):
        if self.is_point:
            return f"=[{self.low}]"
        return f"in[{self.low},{self.high}]"


class SetPredicate(Predicate):
    """``A ∈ {v1, v2, ...}`` over dense indices.

    Used only by the *query* side (e.g. SQL ``IN`` lists); statistics
    are restricted to ranges per the paper's assumptions.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        indices = frozenset(int(index) for index in indices)
        if not indices:
            raise StatisticError("empty set predicate")
        if min(indices) < 0:
            raise StatisticError("set predicate indices must be >= 0")
        self.indices = indices

    def mask(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=bool)
        out[list(self.indices)] = True
        return out

    def matches(self, index: int) -> bool:
        return index in self.indices

    def __eq__(self, other):
        if not isinstance(other, SetPredicate):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"in{{{','.join(map(str, sorted(self.indices)))}}}"


class Conjunction:
    """``π = ∧_i ρ_i`` — a per-attribute conjunction over a schema.

    Attributes not mentioned are unconstrained.  Immutable.  ``masks``
    optionally carries the constrained attributes' value masks, built
    once by the caller (the planner's canonical predicate hands its
    read-only ones), which :meth:`attribute_masks` then returns instead
    of building fresh ones.
    """

    __slots__ = ("schema", "_predicates", "_masks")

    def __init__(
        self,
        schema: Schema,
        predicates: Mapping | None = None,
        masks: Mapping[int, np.ndarray] | None = None,
    ):
        self.schema = schema
        resolved: dict[int, Predicate] = {}
        for attr, predicate in (predicates or {}).items():
            pos = schema.position(attr)
            if not isinstance(predicate, Predicate):
                raise StatisticError(
                    f"predicate for attribute {attr!r} must be a Predicate, "
                    f"got {type(predicate).__name__}"
                )
            if not predicate.is_true:
                resolved[pos] = predicate
        self._predicates = resolved
        self._masks = masks

    @property
    def constrained_positions(self) -> list[int]:
        """Positions with a non-trivial predicate, sorted."""
        return sorted(self._predicates)

    def predicate_at(self, pos: int) -> Predicate:
        return self._predicates.get(pos, TRUE)

    def attribute_masks(self) -> dict[int, np.ndarray]:
        """Masks for the constrained attributes only."""
        if self._masks is not None:
            return dict(self._masks)
        return {
            pos: predicate.mask(self.schema.domain(pos).size)
            for pos, predicate in self._predicates.items()
        }

    def matches_tuple(self, indices) -> bool:
        """Does a full tuple of domain indices satisfy the conjunction?"""
        return all(
            predicate.matches(indices[pos])
            for pos, predicate in self._predicates.items()
        )

    def is_trivial(self) -> bool:
        return not self._predicates

    def __eq__(self, other):
        if not isinstance(other, Conjunction):
            return NotImplemented
        return self.schema == other.schema and self._predicates == other._predicates

    def __hash__(self):
        return hash((self.schema, tuple(sorted(self._predicates.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self._predicates:
            return "Conjunction(true)"
        names = self.schema.attribute_names
        parts = " AND ".join(
            f"{names[pos]}{self._predicates[pos]!r}"
            for pos in self.constrained_positions
        )
        return f"Conjunction({parts})"


def conjunction_from_masks(schema: Schema, masks: Mapping) -> Conjunction:
    """Build a conjunction from per-attribute boolean masks, choosing
    the tightest predicate class (point/range/set) for each mask."""
    predicates: dict[int, Predicate] = {}
    for attr, mask in masks.items():
        pos = schema.position(attr)
        mask = np.asarray(mask, dtype=bool)
        hits = np.flatnonzero(mask)
        if hits.size == 0:
            raise StatisticError(
                f"mask for {schema.attribute_names[pos]!r} selects nothing"
            )
        if hits.size == mask.size:
            continue
        if hits[-1] - hits[0] + 1 == hits.size:
            predicates[pos] = RangePredicate(int(hits[0]), int(hits[-1]))
        else:
            predicates[pos] = SetPredicate(hits.tolist())
    return Conjunction(schema, predicates)
