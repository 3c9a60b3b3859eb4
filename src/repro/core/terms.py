"""Construction of the compressed polynomial's terms (Theorem 4.1).

Starting point is the identity (the paper's Theorem 4.1 regrouped by
statistic set, proved in ``docs`` and tested against the naive
polynomial):

    P  =  Σ_S  Π_{j∈S} (δ_j − 1)  ·  Π_i  rangesum_i(ρ_iS)

where ``S`` ranges over all sets of multi-dimensional statistics whose
predicate intersection is non-empty, ``ρ_iS`` is the intersected range
of ``S`` projected on attribute ``i`` (the full domain when ``S`` does
not constrain ``i``), and ``rangesum_i`` sums the attribute's 1D
variables over that range.  ``S = ∅`` contributes the pure product of
full sums — the "only 1D statistics" polynomial.

Two structural facts keep the term count small:

* statistics over the same attribute set are **disjoint** (Sec 4.1
  assumption), so ``S`` holds at most one statistic per attribute set;
* the sum factorizes over **connected components** of the attribute-
  overlap graph: if two groups of statistics share no attribute, their
  cross terms are products of smaller sums.  Theorem 4.1 admits this
  but enumerates the cross product; we factor it, which is what makes
  configurations like Ent3&4 (pairs with disjoint attributes) cheap.

The output is a list of :class:`Component`, each holding a dense,
numpy-friendly term table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StatisticError
from repro.stats.statistic import Statistic, StatisticSet

#: Hard cap on terms per component; hitting it means the statistic
#: configuration genuinely has exponentially many overlaps and needs a
#: different selection (the paper's worst case, end of Sec 4.1).
MAX_TERMS_PER_COMPONENT = 2_000_000


class MultiDimStat:
    """Internal view of one multi-dimensional statistic: its global
    index (the δ variable id), attribute positions, and per-position
    inclusive index ranges."""

    __slots__ = ("index", "positions", "ranges", "value")

    def __init__(self, index: int, positions: tuple[int, ...], ranges: dict, value: float):
        self.index = index
        self.positions = positions
        self.ranges = ranges
        self.value = value

    def __repr__(self):
        return f"MultiDimStat({self.index}, {self.ranges})"


class Component:
    """One connected component of the compressed polynomial.

    Attributes
    ----------
    positions:
        Attribute positions constrained by this component's statistics.
    num_terms:
        ``T`` — number of terms, including the leading empty-set term.
    lo, hi:
        Dicts mapping each position to ``int64[T]`` arrays of inclusive
        range bounds (the empty-set term uses the full domain).
    stat_indptr, stat_ids:
        CSR layout of each term's statistic set ``S`` (global δ ids).
    stat_terms:
        For each δ id used here, the term rows containing it — derived
        from the CSR layout on first use (only fitting needs it).
    term_stats:
        Each term's statistic set as a tuple, rebuilt from the CSR
        layout on every access (a debugging/test view, not a hot path).
    """

    __slots__ = (
        "positions",
        "num_terms",
        "lo",
        "hi",
        "stat_indptr",
        "stat_ids",
        "_stat_terms",
    )

    def __init__(self, positions, lo, hi, stat_indptr, stat_ids):
        self.positions = tuple(positions)
        self.lo = lo
        self.hi = hi
        self.stat_indptr = stat_indptr
        self.stat_ids = stat_ids
        self.num_terms = int(stat_indptr.shape[0] - 1)
        self._stat_terms = None

    @property
    def stat_terms(self) -> dict[int, np.ndarray]:
        if self._stat_terms is None:
            # Stable sort keeps each statistic's rows in ascending term order.
            order = np.argsort(self.stat_ids, kind="stable")
            stats, starts = np.unique(self.stat_ids[order], return_index=True)
            term_of_entry = np.repeat(
                np.arange(self.num_terms), np.diff(self.stat_indptr)
            )
            self._stat_terms = dict(
                zip(stats.tolist(), np.split(term_of_entry[order], starts[1:]))
            )
        return self._stat_terms

    @property
    def term_stats(self) -> list[tuple[int, ...]]:
        ids, indptr = self.stat_ids.tolist(), self.stat_indptr.tolist()
        return [tuple(ids[indptr[t] : indptr[t + 1]]) for t in range(self.num_terms)]

    def delta_products(self, deltas: np.ndarray) -> np.ndarray:
        """``Π_{j∈S_t} (δ_j − 1)`` for every term ``t``."""
        out = np.ones(self.num_terms, dtype=float)
        if self.stat_ids.size:
            entries = deltas[self.stat_ids] - 1.0
            term_of_entry = np.repeat(
                np.arange(self.num_terms),
                np.diff(self.stat_indptr),
            )
            np.multiply.at(out, term_of_entry, entries)
        return out

    def __repr__(self):
        return f"Component(positions={self.positions}, terms={self.num_terms})"


def build_components(
    statistic_set: StatisticSet,
    max_terms: int = MAX_TERMS_PER_COMPONENT,
) -> tuple[list[Component], list[int]]:
    """Enumerate compressed terms for all multi-dimensional statistics.

    Returns ``(components, free_positions)`` where ``free_positions``
    are attributes untouched by any multi-dimensional statistic (their
    contribution to P is a plain full-sum factor).
    """
    schema = statistic_set.schema
    stats = [
        _to_multidim(index, statistic, schema)
        for index, statistic in enumerate(statistic_set.multi_dim)
    ]
    groups = _group_by_positions(stats)
    component_groups = _connected_components(groups)

    components = []
    used_positions: set[int] = set()
    for group_list in component_groups:
        component = _enumerate_component(schema, group_list, max_terms)
        components.append(component)
        used_positions.update(component.positions)
    free_positions = [
        pos
        for pos in range(schema.num_attributes)
        if pos not in used_positions
    ]
    return components, free_positions


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _to_multidim(index: int, statistic: Statistic, schema) -> MultiDimStat:
    positions = statistic.positions
    ranges = {}
    for pos in positions:
        rng = statistic.range_at(pos)
        size = schema.domain(pos).size
        if rng.high >= size:
            raise StatisticError(
                f"statistic range {rng!r} exceeds domain size {size} at "
                f"attribute position {pos}"
            )
        ranges[pos] = (rng.low, rng.high)
    return MultiDimStat(index, positions, ranges, statistic.value)


def _group_by_positions(stats: Sequence[MultiDimStat]):
    """Group statistics by their attribute set (the disjoint groups)."""
    groups: dict[tuple[int, ...], list[MultiDimStat]] = {}
    for stat in stats:
        groups.setdefault(stat.positions, []).append(stat)
    return [groups[key] for key in sorted(groups)]


def _connected_components(groups):
    """Partition groups into connected components by shared attributes
    (union-find over attribute positions)."""
    parent: dict[int, int] = {}

    def find(pos):
        root = pos
        while parent[root] != root:
            root = parent[root]
        while parent[pos] != root:
            parent[pos], pos = root, parent[pos]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for group in groups:
        positions = group[0].positions
        for pos in positions:
            parent.setdefault(pos, pos)
        for pos in positions[1:]:
            union(positions[0], pos)

    by_root: dict[int, list] = {}
    for group in groups:
        root = find(group[0].positions[0])
        by_root.setdefault(root, []).append(group)
    return [by_root[root] for root in sorted(by_root)]


class _ValueIndex:
    """Per-group, per-position index: which stats of the group cover a
    given domain value.  Used to find intersection candidates without
    scanning the whole group."""

    def __init__(self, group, positions, sizes):
        self.positions = positions
        self.cover = {}
        for pos in positions:
            lists = [[] for _ in range(sizes[pos])]
            for local, stat in enumerate(group):
                low, high = stat.ranges[pos]
                for value in range(low, high + 1):
                    lists[value].append(local)
            self.cover[pos] = lists

    def candidates(self, pos, low, high):
        """Locals of stats whose range at ``pos`` meets ``[low, high]``."""
        seen: set[int] = set()
        lists = self.cover[pos]
        for value in range(low, high + 1):
            seen.update(lists[value])
        return seen


def _enumerate_component(schema, group_list, max_terms) -> Component:
    """DFS over groups (ascending order, at most one stat per group)
    emitting every statistic set with a non-empty intersection."""
    sizes = schema.sizes()
    positions = sorted({pos for group in group_list for pos in group[0].positions})
    indexes = [
        _ValueIndex(group, group[0].positions, sizes) for group in group_list
    ]

    terms_lo: list[dict] = []
    terms_hi: list[dict] = []
    terms_stats: list[tuple[int, ...]] = []

    full = {pos: (0, sizes[pos] - 1) for pos in positions}

    def emit(ranges, stats):
        if len(terms_stats) >= max_terms:
            raise StatisticError(
                "compressed polynomial exceeds "
                f"{max_terms} terms in one component; the statistic "
                "configuration has too many overlapping sets (Sec 4.1 "
                "worst case) — reduce the budget or choose disjoint pairs"
            )
        terms_lo.append({pos: ranges[pos][0] for pos in ranges})
        terms_hi.append({pos: ranges[pos][1] for pos in ranges})
        terms_stats.append(stats)

    emit(full, ())

    def extend(start_group, ranges, stats):
        for gi in range(start_group, len(group_list)):
            group = group_list[gi]
            group_positions = group[0].positions
            shared = [pos for pos in group_positions if ranges[pos] != full[pos]]
            if shared:
                # Use the narrowest already-constrained position for
                # candidate lookup, then verify every shared position.
                probe = min(shared, key=lambda pos: ranges[pos][1] - ranges[pos][0])
                locals_ = indexes[gi].candidates(probe, *ranges[probe])
            else:
                locals_ = range(len(group))
            for local in locals_:
                stat = group[local]
                new_ranges = dict(ranges)
                empty = False
                for pos in group_positions:
                    low = max(ranges[pos][0], stat.ranges[pos][0])
                    high = min(ranges[pos][1], stat.ranges[pos][1])
                    if low > high:
                        empty = True
                        break
                    new_ranges[pos] = (low, high)
                if empty:
                    continue
                new_stats = stats + (stat.index,)
                emit(new_ranges, new_stats)
                extend(gi + 1, new_ranges, new_stats)

    extend(0, full, ())

    num_terms = len(terms_stats)
    lo = {
        pos: np.asarray([term[pos] for term in terms_lo], dtype=np.int64)
        for pos in positions
    }
    hi = {
        pos: np.asarray([term[pos] for term in terms_hi], dtype=np.int64)
        for pos in positions
    }
    lengths = np.asarray([len(stats) for stats in terms_stats], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    ids = np.asarray(
        [stat for stats in terms_stats for stat in stats], dtype=np.int64
    )
    if ids.size == 0:
        ids = np.empty(0, dtype=np.int64)
    assert num_terms == indptr.shape[0] - 1
    return Component(positions, lo, hi, indptr, ids)
