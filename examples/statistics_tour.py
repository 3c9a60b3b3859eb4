"""A tour of 2D-statistic selection (Sec 4.3).

Shows the machinery behind ``repro.api.SummaryBuilder(...).fit()``:

* ranking attribute pairs by (bias-corrected) Cramér's V,
* the *correlation* vs *attribute cover* pair-choice strategies,
* the three per-pair heuristics — LARGE / ZERO / COMPOSITE — and how
  the modified KD-tree carves the value grid,
* the accuracy effect of each heuristic on heavy hitters and empty
  cells.

Run:  python examples/statistics_tour.py
"""

from repro.core import EntropySummary
from repro.data.counts import Counts
from repro.datasets import generate_flights
from repro.stats import (
    choose_pairs_by_correlation,
    choose_pairs_by_cover,
    composite_rectangles,
    pair_correlations,
    select_pair_statistics,
)
from repro.stats.statistic import StatisticSet
from repro.workloads import standard_workloads
from repro.evaluation.harness import run_workload
from repro.api import Explorer


def main() -> None:
    dataset = generate_flights(num_rows=60_000, seed=7)
    relation = dataset.coarse
    names = relation.schema.attribute_names

    # ------------------------------------------------------------------
    print("== pair ranking (bias-corrected Cramér's V) ==")
    ranked = pair_correlations(relation)
    for (a, b), score in ranked:
        print(f"  {names[a]:13s} {names[b]:13s} {score:.3f}")

    print("\n== strategy comparison for Ba = 2 ==")
    by_corr = choose_pairs_by_correlation(ranked, 2)
    by_cover = choose_pairs_by_cover(ranked, 2)
    print("  correlation:", [(names[a], names[b]) for a, b in by_corr])
    print("  cover:      ", [(names[a], names[b]) for a, b in by_cover])

    # ------------------------------------------------------------------
    print("\n== the modified KD-tree on (fl_time, distance) ==")
    counts = relation.contingency("fl_time", "distance")
    rectangles = composite_rectangles(counts, 12)
    print(f"  {len(rectangles)} rectangles over a {counts.shape} grid:")
    for rect in sorted(rectangles, key=lambda r: -r.count)[:6]:
        (a_lo, a_hi), (b_lo, b_hi) = rect.ranges
        print(
            f"    time[{a_lo:2d},{a_hi:2d}] x dist[{b_lo:2d},{b_hi:2d}]"
            f"  count={rect.count:8.0f}  cells={rect.num_cells():4d}"
        )

    # ------------------------------------------------------------------
    print("\n== heuristic accuracy on the restricted relation ==")
    restricted = relation.project(["fl_date", "fl_time", "distance"])
    workloads = standard_workloads(
        restricted, ("fl_time", "distance"),
        num_heavy=40, num_light=40, num_null=80, seed=5,
    )
    print(f"  {'heuristic':10s} {'heavy':>8s} {'light':>8s} {'null':>8s}")
    for heuristic in ("zero", "large", "composite"):
        stats = select_pair_statistics(
            restricted, "fl_time", "distance", 300, heuristic, seed=3
        )
        summary = EntropySummary.from_statistics(
            StatisticSet.from_counts(Counts.of(restricted), stats),
            max_iterations=15,
            name=heuristic,
        )
        backend = Explorer.attach(summary, rounded=True)
        row = []
        for kind in ("heavy", "light", "null"):
            run = run_workload(
                backend, heuristic, workloads[kind], restricted.schema
            )
            row.append(run.mean_error)
        print(
            f"  {heuristic:10s} {row[0]:8.3f} {row[1]:8.3f} {row[2]:8.3f}"
        )
    print(
        "\nCOMPOSITE wins overall — the paper's Sec 4.3 conclusion, and the"
        "\nheuristic every summary in the evaluation uses."
    )


if __name__ == "__main__":
    main()
