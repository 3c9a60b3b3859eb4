"""Attribute-pair selection under a budget ``B = Ba × Bs`` (Sec 4.3).

Two strategies from the paper:

* **correlation** — greedily take the most-correlated non-uniform
  pairs, requiring each new pair to contribute at least one attribute
  not already covered by a previously chosen (more correlated) pair.
* **cover** — prefer pairs that extend the set of covered attributes
  (the paper's example: given BC, AB, CD, AD ranked by correlation and
  ``Ba = 2``, correlation picks {BC, AB} while cover picks {AB, CD}).

The evaluation (Sec 6.4) concludes *cover* gives more precise answers
for the same budget; both are available.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.data.counts import Counts
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import BudgetError
from repro.stats.correlation import pair_correlations
from repro.stats.heuristics import select_pair_statistics
from repro.stats.statistic import Statistic, StatisticSet


def choose_pairs_by_correlation(
    ranked_pairs: Sequence[tuple[tuple[int, int], float]],
    num_pairs: int,
) -> list[tuple[int, int]]:
    """Correlation-first choice: walk pairs from most to least
    correlated, keeping a pair if it has at least one attribute not in
    any previously kept pair."""
    if num_pairs < 1:
        raise BudgetError(f"num_pairs must be >= 1, got {num_pairs}")
    chosen: list[tuple[int, int]] = []
    covered: set[int] = set()
    for pair, _ in ranked_pairs:
        if len(chosen) == num_pairs:
            break
        if not covered or not set(pair) <= covered:
            chosen.append(pair)
            covered.update(pair)
    return chosen


def choose_pairs_by_cover(
    ranked_pairs: Sequence[tuple[tuple[int, int], float]],
    num_pairs: int,
) -> list[tuple[int, int]]:
    """Cover-first choice: at each step prefer the pair adding the most
    uncovered attributes, breaking ties by correlation rank."""
    if num_pairs < 1:
        raise BudgetError(f"num_pairs must be >= 1, got {num_pairs}")
    remaining = list(ranked_pairs)
    chosen: list[tuple[int, int]] = []
    covered: set[int] = set()
    while remaining and len(chosen) < num_pairs:
        best_index = None
        best_gain = -1
        for index, (pair, _) in enumerate(remaining):
            gain = len(set(pair) - covered)
            if gain > best_gain:
                best_gain = gain
                best_index = index
        pair, _ = remaining.pop(best_index)
        chosen.append(pair)
        covered.update(pair)
    return chosen


def select_statistics(
    relation: Relation | Counts,
    budget: int,
    num_pairs: int,
    strategy: str = "cover",
    heuristic: str = "composite",
    exclude_attrs: Sequence = (),
    uniform_threshold: float = 0.05,
    seed: int = 0,
) -> list[Statistic]:
    """End-to-end statistic selection.

    Ranks attribute pairs by Cramér's V, drops nearly uniform pairs
    (V below ``uniform_threshold``, the paper's footnote-5 check),
    chooses ``num_pairs`` of them with the given strategy, splits the
    budget evenly (``Bs = B // Ba``), and runs the per-pair heuristic.

    Parameters
    ----------
    relation:
        The data, or its :class:`~repro.data.counts.Counts` holding
        every candidate pair's table.
    exclude_attrs:
        Attributes never used in 2D statistics (the paper excludes
        ``fl_date`` because it is uniform).
    """
    if budget < num_pairs:
        raise BudgetError(
            f"budget {budget} cannot fund {num_pairs} pairs with >= 1 "
            "statistic each"
        )
    candidates = _candidate_positions(relation.schema, exclude_attrs)
    ranked = [
        (pair, score)
        for pair, score in pair_correlations(relation, candidates)
        if score >= uniform_threshold
    ]
    if not ranked:
        return []
    if strategy == "correlation":
        pairs = choose_pairs_by_correlation(ranked, num_pairs)
    elif strategy == "cover":
        pairs = choose_pairs_by_cover(ranked, num_pairs)
    else:
        raise BudgetError(
            f"unknown strategy {strategy!r}; expected 'correlation' or 'cover'"
        )
    per_pair = budget // max(len(pairs), 1)
    statistics: list[Statistic] = []
    for pair in pairs:
        statistics.extend(
            select_pair_statistics(
                relation, pair[0], pair[1], per_pair, heuristic, seed=seed
            )
        )
    return statistics


def selection_pairs(
    schema: Schema,
    pairs: Sequence[tuple] | None = None,
    budget: int = 0,
    num_pairs: int = 0,
    exclude_attrs: Sequence = (),
    **_options,
) -> list[tuple]:
    """The attribute pairs whose tables :func:`build_statistic_set`
    reads under these options: the explicit ``pairs``, every pair of
    non-excluded attributes under automatic selection, none for a
    1D-only model.  Other ``build_statistic_set`` options are ignored,
    so callers can pass the whole option set."""
    if pairs is not None:
        return list(pairs)
    if budget and num_pairs:
        return list(
            itertools.combinations(_candidate_positions(schema, exclude_attrs), 2)
        )
    return []


def build_statistic_set(
    source: Relation | Counts,
    budget: int = 0,
    num_pairs: int = 0,
    pairs: Sequence[tuple] | None = None,
    per_pair_budget: int | None = None,
    strategy: str = "cover",
    heuristic: str = "composite",
    exclude_attrs: Sequence = (),
    seed: int = 0,
) -> StatisticSet:
    """Build a complete :class:`StatisticSet` from data.

    Either give explicit ``pairs`` (attribute name/position pairs) with
    a ``per_pair_budget`` — the paper's Fig. 4 configurations — or a
    global ``budget``/``num_pairs`` for automatic selection.

    ``source`` is a relation, reduced once to the
    :func:`selection_pairs` these options need, or a
    :class:`~repro.data.counts.Counts` that already holds them.
    """
    if pairs is not None and per_pair_budget is None:
        if not (budget and len(pairs)):
            raise BudgetError("explicit pairs need a per_pair_budget or budget")
        per_pair_budget = budget // len(pairs)
    if isinstance(source, Relation):
        source = Counts.of(
            source,
            selection_pairs(source.schema, pairs, budget, num_pairs, exclude_attrs),
        )
    multi_dim: list[Statistic] = []
    if pairs is not None:
        for attr_a, attr_b in pairs:
            multi_dim.extend(
                select_pair_statistics(
                    source, attr_a, attr_b, per_pair_budget, heuristic, seed=seed
                )
            )
    elif budget and num_pairs:
        multi_dim = select_statistics(
            source,
            budget,
            num_pairs,
            strategy=strategy,
            heuristic=heuristic,
            exclude_attrs=exclude_attrs,
            seed=seed,
        )
    return StatisticSet.from_counts(source, multi_dim)


def _candidate_positions(schema: Schema, exclude_attrs: Sequence) -> list[int]:
    excluded = {schema.position(attr) for attr in exclude_attrs}
    return [pos for pos in range(schema.num_attributes) if pos not in excluded]
