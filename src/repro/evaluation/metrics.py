"""Accuracy metrics of the evaluation (Sec 6.2).

* relative error ``|true − est| / (true + est)`` for heavy/light
  hitters (symmetric, bounded in [0, 1] for non-negative inputs);
* the F measure over light hitters vs. null values, scoring how well a
  method distinguishes *rare* from *nonexistent*:

      precision = |{est > 0 : t ∈ light}| / |{est > 0 : t ∈ light ∪ null}|
      recall    = |{est > 0 : t ∈ light}| / |light|
      F         = 2·precision·recall / (precision + recall)

Estimates are rounded the paper's way (≥ 0.5 rounds up) before the
positivity test.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.arena import round_half_up
from repro.errors import ReproError


def relative_error(true_count: float, estimate: float) -> float:
    """``|true − est| / (true + est)``; 0 when both are 0."""
    if true_count < 0:
        raise ReproError("true counts must be non-negative")
    estimate = max(estimate, 0.0)
    denominator = true_count + estimate
    if denominator == 0:
        return 0.0
    return abs(true_count - estimate) / denominator


def mean_relative_error(
    true_counts: Sequence[float], estimates: Sequence[float]
) -> float:
    """Average relative error over a workload."""
    if len(true_counts) != len(estimates):
        raise ReproError("need one estimate per true count")
    if not true_counts:
        raise ReproError("empty workload")
    return sum(
        relative_error(true, est) for true, est in zip(true_counts, estimates)
    ) / len(true_counts)


def precision_recall(
    light_estimates: Sequence[float], null_estimates: Sequence[float]
) -> tuple[float, float]:
    """Precision and recall of 'value exists' over light + null items."""
    if not light_estimates:
        raise ReproError("need at least one light-hitter estimate")
    positive_light = sum(
        1 for est in light_estimates if round_half_up(est) > 0
    )
    positive_null = sum(1 for est in null_estimates if round_half_up(est) > 0)
    total_positive = positive_light + positive_null
    precision = positive_light / total_positive if total_positive else 0.0
    recall = positive_light / len(light_estimates)
    return precision, recall


def f_measure(
    light_estimates: Sequence[float], null_estimates: Sequence[float]
) -> float:
    """``2·p·r / (p + r)`` (0 when both are 0)."""
    precision, recall = precision_recall(light_estimates, null_estimates)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
