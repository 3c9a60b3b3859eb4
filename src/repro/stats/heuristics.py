"""2D statistic selection heuristics (Sec 4.3): LARGE, ZERO, COMPOSITE.

Each heuristic reads the true 2D contingency table of an attribute pair
from ``relation`` — a :class:`~repro.data.relation.Relation` or its
:class:`~repro.data.counts.Counts` — and, given a budget ``Bs``,
returns :class:`~repro.stats.statistic.Statistic` objects — point
statistics for LARGE/ZERO, disjoint range rectangles for COMPOSITE.
"""

from __future__ import annotations

import numpy as np

from repro.data.relation import Relation
from repro.errors import BudgetError
from repro.stats.kdtree import composite_rectangles
from repro.stats.statistic import Statistic, range_statistic_2d

#: Heuristic names accepted by :func:`select_pair_statistics`.
HEURISTICS = ("large", "zero", "composite")


def large_single_cell(
    relation: Relation, attr_a, attr_b, budget: int
) -> list[Statistic]:
    """LARGE SINGLE CELL: the ``Bs`` most popular (u1, u2) cells as
    point statistics."""
    counts = relation.contingency(attr_a, attr_b)
    budget = _check_budget(budget, counts.size)
    order = np.argsort(counts, axis=None, kind="stable")[::-1][:budget]
    return _cells_to_statistics(relation, attr_a, attr_b, counts, order)


def zero_single_cell(
    relation: Relation, attr_a, attr_b, budget: int, seed: int = 0
) -> list[Statistic]:
    """ZERO SINGLE CELL: up to ``Bs`` empty cells (count 0) as point
    statistics; remaining budget is filled with the most popular cells
    as in LARGE.  Empty cells are sampled uniformly with ``seed`` when
    there are more than the budget."""
    counts = relation.contingency(attr_a, attr_b)
    budget = _check_budget(budget, counts.size)
    zero_cells = np.flatnonzero(counts.ravel() == 0)
    rng = np.random.default_rng(seed)
    if zero_cells.size > budget:
        chosen = rng.choice(zero_cells, size=budget, replace=False)
    else:
        chosen = zero_cells
    statistics = _cells_to_statistics(relation, attr_a, attr_b, counts, chosen)
    remaining = budget - len(statistics)
    if remaining > 0:
        nonzero_order = np.argsort(counts, axis=None, kind="stable")[::-1]
        nonzero_order = nonzero_order[counts.ravel()[nonzero_order] > 0]
        statistics.extend(
            _cells_to_statistics(
                relation, attr_a, attr_b, counts, nonzero_order[:remaining]
            )
        )
    return statistics


def composite(
    relation: Relation, attr_a, attr_b, budget: int
) -> list[Statistic]:
    """COMPOSITE: partition the pair grid into ``Bs`` disjoint
    rectangles with the modified KD-tree and emit one range statistic
    per rectangle."""
    counts = relation.contingency(attr_a, attr_b)
    _check_budget(budget, counts.size)
    statistics = []
    for rect in composite_rectangles(counts, budget):
        (a_lo, a_hi), (b_lo, b_hi) = rect.ranges
        statistics.append(
            range_statistic_2d(
                relation.schema,
                attr_a,
                (a_lo, a_hi),
                attr_b,
                (b_lo, b_hi),
                rect.count,
            )
        )
    return statistics


def select_pair_statistics(
    relation: Relation,
    attr_a,
    attr_b,
    budget: int,
    heuristic: str = "composite",
    seed: int = 0,
) -> list[Statistic]:
    """Dispatch to one of the three heuristics by name."""
    if heuristic == "large":
        return large_single_cell(relation, attr_a, attr_b, budget)
    if heuristic == "zero":
        return zero_single_cell(relation, attr_a, attr_b, budget, seed=seed)
    if heuristic == "composite":
        return composite(relation, attr_a, attr_b, budget)
    raise BudgetError(
        f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}"
    )


def _check_budget(budget: int, num_cells: int) -> int:
    if budget < 1:
        raise BudgetError(f"per-pair budget must be >= 1, got {budget}")
    return min(budget, num_cells)


def _cells_to_statistics(relation, attr_a, attr_b, counts, flat_cells):
    size_b = counts.shape[1]
    statistics = []
    for flat in np.asarray(flat_cells, dtype=np.int64).tolist():
        u1, u2 = divmod(flat, size_b)
        statistics.append(
            range_statistic_2d(
                relation.schema,
                attr_a,
                (u1, u1),
                attr_b,
                (u2, u2),
                float(counts[u1, u2]),
            )
        )
    return statistics
