"""Statistic model and selection: predicates, 1D/2D statistics,
correlation ranking, and the LARGE / ZERO / COMPOSITE heuristics."""

from repro.stats.correlation import (
    chi_squared,
    cramers_v,
    is_nearly_uniform_pair,
    pair_correlations,
)
from repro.stats.heuristics import (
    HEURISTICS,
    composite,
    large_single_cell,
    select_pair_statistics,
    zero_single_cell,
)
from repro.stats.kdtree import KDRectangle, best_split, composite_rectangles
from repro.stats.predicates import (
    TRUE,
    Conjunction,
    Predicate,
    RangePredicate,
    SetPredicate,
    TruePredicate,
    conjunction_from_masks,
)
from repro.stats.selection import (
    build_statistic_set,
    choose_pairs_by_correlation,
    choose_pairs_by_cover,
    select_statistics,
)
from repro.stats.statistic import (
    Statistic,
    StatisticSet,
    point_statistic,
    range_statistic_2d,
)

__all__ = [
    "HEURISTICS",
    "TRUE",
    "Conjunction",
    "KDRectangle",
    "Predicate",
    "RangePredicate",
    "SetPredicate",
    "Statistic",
    "StatisticSet",
    "TruePredicate",
    "best_split",
    "build_statistic_set",
    "chi_squared",
    "choose_pairs_by_correlation",
    "choose_pairs_by_cover",
    "composite",
    "composite_rectangles",
    "conjunction_from_masks",
    "cramers_v",
    "is_nearly_uniform_pair",
    "large_single_cell",
    "pair_correlations",
    "point_statistic",
    "range_statistic_2d",
    "select_pair_statistics",
    "select_statistics",
    "zero_single_cell",
]
