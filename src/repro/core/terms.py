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

A component is enumerated level by level in numpy: starting from the
empty-set term, each group (attribute set, ascending) intersects every
term so far with every one of its rectangles in one chunked broadcast
and appends the non-empty intersections.

**Canonical term order.**  A term's *path* lists its statistics as
``(group, statistic)`` steps, groups ascending and statistics in
``StatisticSet.multi_dim`` order within a group.  Terms are ordered
lexicographically by path, a path before its extensions: the empty set
first, then exactly the preorder of a depth-first search that tries
groups and candidates in ascending order.  Each term's ``stat_ids``
follow its path.  The solver's summation order, and so its fitted
parameters bit for bit, depend on this order.

The output is a list of :class:`Component`, each holding a dense,
numpy-friendly term table.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StatisticError
from repro.stats.statistic import StatisticSet, rectangles

#: Hard cap on terms per component; hitting it means the statistic
#: configuration genuinely has exponentially many overlaps and needs a
#: different selection (the paper's worst case, end of Sec 4.1).
MAX_TERMS_PER_COMPONENT = 2_000_000

#: Cells of one terms × rectangles broadcast; bounds a level's boolean
#: temporaries to a few MiB.
_CHUNK_CELLS = 1 << 20

#: ``ndarray.sum`` without its Python wrapper: the same pairwise sum.
_add_reduce = np.add.reduce


class DeltaRun:
    """The solver's plan for one run: statistics ``start … stop − 1``,
    consecutive in ``StatisticSet.multi_dim`` and over one attribute set.

    Such statistics are disjoint, so no term holds two of them and none
    of their partials depends on another's δ: one pass yields them all.

    Attributes
    ----------
    rows:
        The term rows of each statistic in turn (ascending per
        statistic), concatenated.
    bounds:
        ``rows[bounds[i]:bounds[i + 1]]`` are statistic ``start + i``'s.
    others:
        ``(width × entries)``: the *other* statistics of each row in CSR
        order, one column per row.  Padding holds ``-1``, which indexes
        the sentinel slot of the extended δ vector (δ = 2.0, so
        ``δ − 1`` multiplies by exactly 1.0).
    """

    __slots__ = ("start", "stop", "rows", "bounds", "others")

    def __init__(self, start, stop, rows, bounds, others):
        self.start = start
        self.stop = stop
        self.rows = rows
        self.bounds = bounds
        self.others = others

    def partials(self, extended: np.ndarray, range_products: np.ndarray) -> list[float]:
        """``∂Q_c/∂δ_j`` of every statistic of the run: the terms holding
        ``j`` with its ``(δ_j − 1)`` factor dropped.  ``extended`` is the
        δ vector plus the trailing sentinel slot; ``range_products`` is
        the component's per-term range product.

        Bit for bit this is, per statistic, ``np.prod(rows × width,
        axis=1)`` and then ``.sum()``: the columns multiply left to
        right, and each statistic's slice is summed on its own by
        ``.sum()``'s own reduction, so numpy keeps its pairwise
        summation (``docs/architecture.md`` says why no segmented sum
        will do)."""
        factors = extended[self.others] - 1.0
        dprod = factors[0]
        for factor in factors[1:]:
            dprod *= factor
        terms = range_products[self.rows] * dprod
        bounds = self.bounds
        return [
            float(_add_reduce(terms[bounds[i] : bounds[i + 1]]))
            for i in range(len(bounds) - 1)
        ]


class Component:
    """One connected component of the compressed polynomial.

    Terms are in the canonical order of the module docstring: the
    empty-set term first, then lexicographic in the (group, statistic)
    path.

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
    run_bounds:
        ``(start, stop)`` of each run of statistics here: a maximal
        stretch of consecutive δ ids over one attribute set, ascending.
    stat_terms:
        For each δ id used here, the term rows containing it, rebuilt
        from the CSR layout on every access (a test view).
    runs:
        The :class:`DeltaRun` plan of each run, built on first use with
        the padded statistic matrix that :meth:`delta_products` then
        reuses; :meth:`release_plans` drops both when a fit ends.
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
        "run_bounds",
        "_runs",
        "_stat_matrix",
    )

    def __init__(self, positions, lo, hi, stat_indptr, stat_ids, run_bounds):
        self.positions = tuple(positions)
        self.lo = lo
        self.hi = hi
        self.stat_indptr = stat_indptr
        self.stat_ids = stat_ids
        self.run_bounds = tuple(run_bounds)
        self.num_terms = int(stat_indptr.shape[0] - 1)
        self._runs = None
        self._stat_matrix = None

    def _rows_by_stat(self) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, rows)``: every CSR entry's statistic and term row,
        grouped by statistic (a stable sort keeps each statistic's rows
        in ascending term order)."""
        order = np.argsort(self.stat_ids, kind="stable")
        term_of_entry = np.repeat(np.arange(self.num_terms), np.diff(self.stat_indptr))
        return self.stat_ids[order], term_of_entry[order]

    @property
    def stat_terms(self) -> dict[int, np.ndarray]:
        owners, rows = self._rows_by_stat()
        stats, starts = np.unique(owners, return_index=True)
        return dict(zip(stats.tolist(), np.split(rows, starts[1:])))

    def _padded_stats(self) -> np.ndarray:
        """``(width × T)``: each term's statistics in CSR order, one
        column per term, padded with ``-1`` to the widest term."""
        lengths = np.diff(self.stat_indptr)
        slots = np.arange(lengths.max())[:, None]
        matrix = self.stat_ids[
            np.minimum(self.stat_indptr[:-1] + slots, self.stat_ids.size - 1)
        ]
        matrix[slots >= lengths] = -1
        return matrix

    @property
    def runs(self) -> list[DeltaRun]:
        if self._runs is None:
            self._stat_matrix = self._padded_stats()
            owners, rows_by_stat = self._rows_by_stat()
            runs = []
            for start, stop in self.run_bounds:
                bounds = np.searchsorted(owners, np.arange(start, stop + 1))
                rows = rows_by_stat[bounds[0] : bounds[-1]]
                # Drop each row's own slot (its factor is the one the
                # partial leaves out); the others keep their CSR order.
                columns = self._stat_matrix[:, rows].T
                owner = owners[bounds[0] : bounds[-1], None]
                others = columns[columns != owner].reshape(rows.size, -1).T
                if not others.shape[0]:
                    others = np.full((1, rows.size), -1)
                runs.append(
                    DeltaRun(
                        start,
                        stop,
                        rows,
                        (bounds - bounds[0]).tolist(),
                        np.ascontiguousarray(others),
                    )
                )
            self._runs = runs
        return self._runs

    def release_plans(self) -> None:
        """Drop the run plans and the padded matrix built with them: a
        fit's working state, which a fitted model does not need."""
        self._runs = self._stat_matrix = None

    @property
    def term_stats(self) -> list[tuple[int, ...]]:
        ids, indptr = self.stat_ids.tolist(), self.stat_indptr.tolist()
        return [tuple(ids[indptr[t] : indptr[t + 1]]) for t in range(self.num_terms)]

    def delta_products(self, deltas: np.ndarray) -> np.ndarray:
        """``Π_{j∈S_t} (δ_j − 1)`` for every term ``t``: the columns of
        the padded ``(width × T)`` statistic matrix multiplied left to
        right, so each term's factors associate in CSR order; padding
        reads the sentinel slot, ``δ − 1 = 1``.  The matrix is the one
        kept with the run plans while a fit runs, else built here."""
        matrix = self._padded_stats() if self._stat_matrix is None else self._stat_matrix
        factors = np.append(deltas, 2.0)[matrix] - 1.0
        out = factors[0].copy()
        for factor in factors[1:]:
            out *= factor
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
    sizes = np.asarray(statistic_set.schema.sizes(), dtype=np.int64)
    groups = rectangles(statistic_set.multi_dim)
    outside = [
        (int(ids[row]), positions[dim])
        for positions, (ids, _, hi) in groups.items()
        for row, dim in np.argwhere(hi >= sizes[list(positions)])
    ]
    if outside:
        stat_id, pos = min(outside)
        rng = statistic_set.multi_dim[stat_id].range_at(pos)
        raise StatisticError(
            f"statistic range {rng!r} exceeds domain size {sizes[pos]} at "
            f"attribute position {pos}"
        )

    components = [
        _enumerate_component([(key, groups[key]) for key in keys], sizes, max_terms)
        for keys in _connected_components(list(groups))
    ]
    used = {pos for component in components for pos in component.positions}
    free_positions = [pos for pos in range(sizes.size) if pos not in used]
    return components, free_positions


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _connected_components(attribute_sets):
    """Partition attribute sets (ascending) into connected components
    by shared attributes (union-find over attribute positions)."""
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

    for positions in attribute_sets:
        for pos in positions:
            parent.setdefault(pos, pos)
        for pos in positions[1:]:
            union(positions[0], pos)

    by_root: dict[int, list] = {}
    for positions in attribute_sets:
        by_root.setdefault(find(positions[0]), []).append(positions)
    return [by_root[root] for root in sorted(by_root)]


def _check_cap(num_terms: int, max_terms: int) -> None:
    if num_terms > max_terms:
        raise StatisticError(
            "compressed polynomial exceeds "
            f"{max_terms} terms in one component; the statistic "
            "configuration has too many overlapping sets (Sec 4.1 "
            "worst case) — reduce the budget or choose disjoint pairs"
        )


def _meeting(lo, hi, group_lo, group_hi, num_terms, max_terms):
    """``(terms, stats)`` of every term × rectangle pair whose ranges
    meet on all of the group's positions (``lo`` / ``hi``: those
    positions × the terms so far).  Survivors are counted chunk by
    chunk, so a level that would cross ``max_terms`` raises before any
    new term is materialised."""
    chunk = max(1, _CHUNK_CELLS // group_lo.shape[0])
    found, count = [], num_terms
    for start in range(0, lo.shape[1], chunk):
        stop = min(start + chunk, lo.shape[1])
        meet = np.ones((stop - start, group_lo.shape[0]), dtype=bool)
        for dim in range(lo.shape[0]):
            meet &= lo[dim, start:stop, None] <= group_hi[:, dim]
            meet &= group_lo[:, dim] <= hi[dim, start:stop, None]
        terms, stats = np.nonzero(meet)
        count += terms.size
        _check_cap(count, max_terms)
        found.append((terms + start, stats))
    return [np.concatenate(parts) for parts in zip(*found)]


def _enumerate_component(groups, sizes, max_terms) -> Component:
    """Every statistic set (at most one statistic per group) with a
    non-empty intersection, built one group at a time, then put in the
    canonical order."""
    positions = sorted({pos for group_positions, _ in groups for pos in group_positions})
    column = {pos: i for i, pos in enumerate(positions)}
    _check_cap(1, max_terms)
    # Terms are columns: ranges per position, the left-aligned path of
    # statistic ranks (-1 past the end) and the path length.
    lo = np.zeros((len(positions), 1), dtype=np.int64)
    hi = sizes[positions, None] - 1
    path = np.full((len(groups), 1), -1, dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)
    rank = 0
    for group_positions, (_, group_lo, group_hi) in groups:
        cols = [column[pos] for pos in group_positions]
        terms, stats = _meeting(
            lo[cols], hi[cols], group_lo, group_hi, depth.size, max_terms
        )
        new_lo, new_hi, new_path = (a.take(terms, axis=1) for a in (lo, hi, path))
        new_lo[cols] = np.maximum(new_lo[cols], group_lo[stats].T)
        new_hi[cols] = np.minimum(new_hi[cols], group_hi[stats].T)
        new_path[depth[terms], np.arange(terms.size)] = rank + stats
        lo = np.concatenate([lo, new_lo], axis=1)
        hi = np.concatenate([hi, new_hi], axis=1)
        path = np.concatenate([path, new_path], axis=1)
        depth = np.concatenate([depth, depth[terms] + 1])
        rank += group_lo.shape[0]

    # lexsort's last key is the primary one: the path's first step.
    # take(axis=1) keeps every position's row contiguous (a[:, order]
    # would be Fortran-ordered, and every evaluation gathers along rows).
    order = np.lexsort(path[::-1])
    path = path.take(order, axis=1).T
    ranked_ids = np.concatenate([ids for _, (ids, _, _) in groups])
    stat_ids = ranked_ids[path[path >= 0]]
    indptr = np.concatenate([[0], np.cumsum(depth[order])])
    return Component(
        positions,
        dict(zip(positions, lo.take(order, axis=1))),
        dict(zip(positions, hi.take(order, axis=1))),
        indptr,
        stat_ids,
        _runs_of([ids for _, (ids, _, _) in groups]),
    )


def _runs_of(group_ids) -> list[tuple[int, int]]:
    """``(start, stop)`` of every run, ascending: a group's (ascending)
    ids split where they stop being consecutive."""
    runs = []
    for ids in group_ids:
        for run in np.split(ids, np.flatnonzero(np.diff(ids) != 1) + 1):
            runs.append((int(run[0]), int(run[-1]) + 1))
    return sorted(runs)
