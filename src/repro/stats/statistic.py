"""Statistics ``Φ = {(c_j, s_j)}`` over a relation (paper Sec 3.1).

A :class:`Statistic` couples a counting-query predicate with its
observed value on the data.  A :class:`StatisticSet` holds the complete
1D statistics plus the budgeted multi-dimensional ones and validates
the structural assumptions the compression relies on:

* every 1D domain value has exactly one point statistic;
* every multi-dimensional statistic is a conjunction of *range*
  predicates;
* multi-dimensional statistics over the same attribute set are
  pairwise disjoint.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.data.counts import Counts
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import StatisticError
from repro.stats.predicates import Conjunction, RangePredicate


class Statistic:
    """One ``(c_j, s_j)`` pair: a conjunctive counting query and its
    asserted value on the summarized instance."""

    __slots__ = ("predicate", "value")

    def __init__(self, predicate: Conjunction, value: float):
        if value < 0:
            raise StatisticError(f"statistic value must be >= 0, got {value}")
        self.predicate = predicate
        self.value = float(value)

    @property
    def positions(self) -> tuple[int, ...]:
        """Constrained attribute positions (the statistic's dimension)."""
        return tuple(self.predicate.constrained_positions)

    @property
    def dimension(self) -> int:
        return len(self.positions)

    def range_at(self, pos: int) -> RangePredicate:
        """The range predicate at an attribute position.

        Statistics used by the MaxEnt polynomial must be conjunctions
        of ranges; anything else is a :class:`StatisticError`.
        """
        predicate = self.predicate.predicate_at(pos)
        if predicate.is_true:
            size = self.predicate.schema.domain(pos).size
            return RangePredicate(0, size - 1)
        if not isinstance(predicate, RangePredicate):
            raise StatisticError(
                "polynomial statistics must use range predicates, "
                f"found {type(predicate).__name__}"
            )
        return predicate

    def measure(self, relation: Relation) -> int:
        """Evaluate the counting query on the rows — the row-level
        reference that :meth:`repro.data.counts.Counts.count` matches."""
        return relation.count_where(self.predicate.attribute_masks())

    def __repr__(self):
        return f"Statistic({self.predicate!r}, s={self.value:g})"


def point_statistic(schema: Schema, attr, index: int, value: float) -> Statistic:
    """1D statistic ``A = v`` with asserted count ``value``."""
    pos = schema.position(attr)
    predicate = Conjunction(schema, {pos: RangePredicate.point(index)})
    return Statistic(predicate, value)


def range_statistic_2d(
    schema: Schema,
    attr_a,
    range_a: tuple[int, int],
    attr_b,
    range_b: tuple[int, int],
    value: float,
) -> Statistic:
    """2D statistic ``A ∈ [u1,v1] ∧ B ∈ [u2,v2]`` with asserted count."""
    pos_a = schema.position(attr_a)
    pos_b = schema.position(attr_b)
    if pos_a == pos_b:
        raise StatisticError("2D statistic needs two distinct attributes")
    predicate = Conjunction(
        schema,
        {
            pos_a: RangePredicate(*range_a),
            pos_b: RangePredicate(*range_b),
        },
    )
    return Statistic(predicate, value)


#: Cells of one pairwise-overlap broadcast (statistics × statistics);
#: bounds the check's boolean temporaries to a few MiB.
_OVERLAP_CELLS = 1 << 20


def rectangles(
    statistics: Sequence[Statistic],
) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Multi-dimensional statistics grouped by attribute set, in
    ascending set order: each set's statistic indices (ascending) and
    their inclusive bounds as ``int64[K, d]`` ``(ids, lo, hi)``."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, statistic in enumerate(statistics):
        groups.setdefault(statistic.positions, []).append(index)
    out = {}
    for positions in sorted(groups):
        ids = groups[positions]
        bounds = np.array(
            [
                [(rng.low, rng.high) for rng in map(statistics[i].range_at, positions)]
                for i in ids
            ],
            dtype=np.int64,
        )
        out[positions] = (np.asarray(ids, dtype=np.int64), bounds[..., 0], bounds[..., 1])
    return out


def _first_overlap(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int] | None:
    """``(j, i)``, ``i < j``, of the first pair of overlapping rectangles
    in (later, earlier) order — the pair an insertion-order scan meets
    first — or ``None`` when the rectangles are pairwise disjoint."""
    count = lo.shape[0]
    chunk = max(1, _OVERLAP_CELLS // max(count, 1))
    for start in range(1, count, chunk):
        later = np.arange(start, min(start + chunk, count))
        # Rectangles meet iff their ranges meet on every attribute.
        meet = later[:, None] > np.arange(later[-1])
        for dim in range(lo.shape[1]):
            meet &= lo[later, None, dim] <= hi[None, : later[-1], dim]
            meet &= lo[None, : later[-1], dim] <= hi[later, None, dim]
        hits = np.argwhere(meet)
        if hits.size:
            row, earlier = hits[0]
            return int(later[row]), int(earlier)
    return None


def _check_multi_dim(statistics: Sequence[Statistic], total: int) -> None:
    """Every statistic constrains >= 2 attributes and asserts at most
    ``total`` rows, and statistics over the same attribute set are
    pairwise disjoint (the Sec 4.1 assumption) — one vectorised pairwise
    test per attribute set."""
    for statistic in statistics:
        if statistic.dimension < 2:
            raise StatisticError(
                "multi-dimensional statistics must constrain >= 2 attributes"
            )
        if statistic.value > total:
            raise StatisticError(
                f"statistic value {statistic.value:g} exceeds cardinality {total}"
            )
    overlaps = []
    for ids, lo, hi in rectangles(statistics).values():
        pair = _first_overlap(lo, hi)
        if pair is not None:
            overlaps.append((int(ids[pair[0]]), int(ids[pair[1]])))
    if overlaps:
        later, earlier = min(overlaps)
        raise StatisticError(
            "multi-dimensional statistics over the same attribute set "
            f"must be disjoint; {statistics[later]!r} overlaps {statistics[earlier]!r}"
        )


class StatisticSet:
    """The full statistic collection Φ backing one summary.

    Parameters
    ----------
    schema:
        Relation schema.
    total:
        Relation cardinality ``n`` (known and fixed, Sec 3.1).
    one_dim:
        For each attribute position, a sequence of per-value counts
        (length = domain size).  These become the complete 1D point
        statistics; overcompleteness requires them to sum to ``total``.
    multi_dim:
        Multi-dimensional :class:`Statistic` objects (typically 2D range
        statistics from the selection heuristics).
    """

    def __init__(
        self,
        schema: Schema,
        total: int,
        one_dim: Sequence[Sequence[float]],
        multi_dim: Iterable[Statistic] = (),
    ):
        if total <= 0:
            raise StatisticError(f"relation cardinality must be positive, got {total}")
        if len(one_dim) != schema.num_attributes:
            raise StatisticError(
                "need one 1D count vector per attribute "
                f"({schema.num_attributes}), got {len(one_dim)}"
            )
        self.schema = schema
        self.total = int(total)
        self.one_dim: list[list[float]] = []
        for pos, counts in enumerate(one_dim):
            counts = [float(count) for count in counts]
            size = schema.domain(pos).size
            if len(counts) != size:
                raise StatisticError(
                    f"1D counts for {schema.attribute_names[pos]!r} must have "
                    f"length {size}, got {len(counts)}"
                )
            if any(count < 0 for count in counts):
                raise StatisticError("1D counts must be non-negative")
            if abs(sum(counts) - total) > 1e-6 * max(total, 1):
                raise StatisticError(
                    f"1D counts for {schema.attribute_names[pos]!r} sum to "
                    f"{sum(counts):g}, expected n = {total} (overcompleteness)"
                )
            self.one_dim.append(counts)
        self.multi_dim: list[Statistic] = list(multi_dim)
        _check_multi_dim(self.multi_dim, self.total)

    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls,
        counts: Counts,
        multi_dim: Iterable[Statistic] = (),
    ) -> "StatisticSet":
        """The complete 1D statistics from a relation's counts, plus the
        given multi-dimensional statistics."""
        return cls(counts.schema, counts.total, counts.marginals, multi_dim)

    def add_multi_dim(self, statistic: Statistic) -> None:
        """Add one multi-dimensional statistic, checked as the
        constructor checks the whole set."""
        _check_multi_dim([*self.multi_dim, statistic], self.total)
        self.multi_dim.append(statistic)

    # ------------------------------------------------------------------
    @property
    def num_one_dim(self) -> int:
        return sum(len(counts) for counts in self.one_dim)

    @property
    def num_multi_dim(self) -> int:
        return len(self.multi_dim)

    @property
    def num_statistics(self) -> int:
        """``k`` — total number of statistics."""
        return self.num_one_dim + self.num_multi_dim

    def attribute_pairs(self) -> set[tuple[int, ...]]:
        """Distinct multi-dimensional attribute sets (``B_a`` of them)."""
        return {statistic.positions for statistic in self.multi_dim}

    def verify_against(self, relation: Relation, tolerance: float = 0.0) -> None:
        """Check, row by row, that every statistic matches the data it
        claims to describe (the test oracle for the count path)."""
        for pos in range(self.schema.num_attributes):
            observed = relation.marginal(pos).astype(float)
            for index, expected in enumerate(self.one_dim[pos]):
                if abs(observed[index] - expected) > tolerance:
                    raise StatisticError(
                        f"1D statistic mismatch at attribute {pos}, value "
                        f"{index}: asserted {expected:g}, observed {observed[index]:g}"
                    )
        for statistic in self.multi_dim:
            observed = statistic.measure(relation)
            if abs(observed - statistic.value) > tolerance:
                raise StatisticError(
                    f"multi-dim statistic mismatch: {statistic!r} observed {observed}"
                )

    def __repr__(self):
        return (
            f"StatisticSet(n={self.total}, one_dim={self.num_one_dim}, "
            f"multi_dim={self.num_multi_dim})"
        )
