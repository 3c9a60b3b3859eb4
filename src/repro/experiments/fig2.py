"""Fig. 2(b): statistic-selection heuristics vs budget.

Reproduces the Sec 4.3 experiment: on flights restricted to
``(fl_date, fl_time, distance)``, gather 2D statistics over
``(fl_time, distance)`` with each heuristic (ZERO / LARGE / COMPOSITE)
at each budget, fit the MaxEnt model, and measure the average error of
the point-query template

    SELECT fl_time, distance, COUNT(*) FROM Flights
    WHERE fl_time = x AND distance = y

on heavy hitters, nonexistent values, and light hitters.
"""

from __future__ import annotations

from repro.api.explorer import Explorer
from repro.core.summary import EntropySummary
from repro.evaluation.harness import run_workload
from repro.evaluation.reporting import ExperimentResult
from repro.experiments.configs import ExperimentStore, default_store
from repro.datasets.flights import flights_restricted
from repro.stats.selection import build_statistic_set
from repro.workloads.selection_queries import standard_workloads

PAIR = ("fl_time", "distance")
HEURISTICS = ("zero", "large", "composite")


def build_heuristic_summary(
    relation, heuristic: str, budget: int, iterations: int
) -> EntropySummary:
    """Summary with 2D statistics from one heuristic on the pair."""
    statistic_set = build_statistic_set(
        relation, pairs=[PAIR], per_pair_budget=budget, heuristic=heuristic, seed=3
    )
    return EntropySummary.from_statistics(
        statistic_set,
        max_iterations=iterations,
        name=f"{heuristic}-{budget}",
    )


def run_fig2(store: ExperimentStore | None = None) -> ExperimentResult:
    """Regenerate Fig. 2(b): heuristic error vs budget on (fl_time, distance)."""
    store = store or default_store()
    scale = store.scale
    relation = flights_restricted(store.flights())
    workloads = standard_workloads(
        relation,
        PAIR,
        num_heavy=scale.num_heavy,
        num_light=scale.num_light,
        num_null=scale.num_null,
        seed=5,
    )

    result = ExperimentResult(
        "Fig 2(b): heuristic accuracy vs budget",
        "Average relative error of point queries on (fl_time, distance) "
        f"for each heuristic and budget ({scale.describe()}). Paper shape: "
        "COMPOSITE best overall; ZERO wins on nonexistent values; "
        "LARGE/COMPOSITE near-zero error on heavy hitters.",
    )
    rows = []
    for budget in scale.fig2_budgets:
        for heuristic in HEURISTICS:
            key = f"fig2-{heuristic}-{budget}"
            summary = store.summary(
                key,
                lambda h=heuristic, b=budget: build_heuristic_summary(
                    relation, h, b, scale.solver_iterations
                ),
            )
            backend = Explorer.attach(summary, rounded=True)
            row = {"budget": budget, "heuristic": heuristic}
            for kind, workload in workloads.items():
                run = run_workload(backend, heuristic, workload, relation.schema)
                row[f"{kind}_error"] = run.mean_error
            row["terms"] = summary.polynomial.num_terms
            rows.append(row)
    result.add_section("error by heuristic and budget", rows)
    return result


if __name__ == "__main__":
    print(run_fig2().to_text())
