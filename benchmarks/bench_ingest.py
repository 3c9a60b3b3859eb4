"""Ingest acceptance: delta refresh vs full rebuild on an append.

The incremental-maintenance claim of the ingest subsystem
(:mod:`repro.ingest`): on a **10% append that touches 1 of 4 shards**
of an attribute-partitioned summary, the delta-refresh path —

* route the batch to the shards whose value ranges it touches,
* re-measure only those shards' statistics (bucket structure reused,
  no re-selection),
* warm-start each touched shard's solver from its previous solution,
* reuse the untouched shard models as-is —

is **at least 3x faster** than rebuilding the whole sharded summary
from scratch on the combined relation, while the refreshed model's
mean relative error vs ground truth stays within a bounded factor of
the from-scratch fit's.  Both paths run serially (``workers=1``) so
the comparison measures compute, not process-pool parallelism.

Numbers land in ``BENCH_ingest.json`` through the shared emitter; the
CI ``perf-regression`` job gates on them via ``tools/check_bench.py``.

Scale via ``REPRO_SCALE`` (``paper`` default, ``small`` for CI).
"""

import time

import numpy as np

from benchmarks._emit import BenchReport
from repro.api import SummaryBuilder
from repro.data.relation import Relation
from repro.datasets import generate_flights
from repro.experiments.configs import active_scale
from repro.ingest import IngestPipeline
from repro.stats.predicates import Conjunction, RangePredicate

REPORT = BenchReport("ingest")

NUM_SHARDS = 4
SHARD_BY = "origin_state"
ITERATIONS = 12
TOTAL_PER_PAIR_BUDGET = 180
PAIRS = (
    ("origin_state", "distance"),
    ("dest_state", "distance"),
    ("fl_time", "distance"),
)
#: Appended rows as a fraction of the base relation.
APPEND_FRACTION = 0.10


def _relation():
    return generate_flights(
        num_rows=active_scale().flights_rows, seed=7
    ).coarse


def _builder(relation):
    return (
        SummaryBuilder(relation)
        .pairs(*PAIRS)
        .per_pair_budget(TOTAL_PER_PAIR_BUDGET)
        .iterations(ITERATIONS)
        .shards(NUM_SHARDS, by=SHARD_BY, workers=1)
    )


def _single_shard_batch(base: Relation, summary, size: int) -> Relation:
    """An append batch routed entirely to shard 0.

    Rows are drawn (with replacement) from the base rows whose shard
    attribute falls in shard 0's owned range — the append-mostly shape
    the LSST design motivates: new data lands in one partition.
    """
    low, high = summary.owned_ranges[0]
    column = base.column(summary.by_position)
    candidates = np.flatnonzero((column >= low) & (column <= high))
    rng = np.random.default_rng(23)
    return base.sample_rows(rng.choice(candidates, size=size, replace=True))


def _workload(schema, rng, count):
    """Mixed single- and two-attribute counting queries (the
    bench_sharding shape), weighted toward the appended shard's
    attribute so the refreshed statistics actually get exercised."""
    predicates = []
    origin_size = schema.domain("origin_state").size
    time_size = schema.domain("fl_time").size
    distance_size = schema.domain("distance").size
    for index in range(count):
        state = int(rng.integers(0, origin_size))
        if index % 3 == 0:
            predicates.append(
                Conjunction(schema, {"origin_state": RangePredicate.point(state)})
            )
        elif index % 3 == 1:
            low = int(rng.integers(0, distance_size - 12))
            predicates.append(
                Conjunction(
                    schema,
                    {
                        "origin_state": RangePredicate.point(state),
                        "distance": RangePredicate(low, low + 11),
                    },
                )
            )
        else:
            low = int(rng.integers(0, time_size - 8))
            predicates.append(
                Conjunction(schema, {"fl_time": RangePredicate(low, low + 7)})
            )
    return predicates


def test_delta_refresh_speedup_and_accuracy():
    """Acceptance: >= 3x faster than a full rebuild, error growth bounded."""
    base = _relation()
    _builder(base).iterations(2).fit()  # warm numpy/solver caches

    summary = _builder(base).name("flights-ingest").fit()
    batch = _single_shard_batch(
        base, summary, int(base.num_rows * APPEND_FRACTION)
    )
    combined = Relation.concat([base, batch])

    start = time.perf_counter()
    rebuilt = _builder(combined).name("flights-rebuilt").fit()
    rebuild_s = time.perf_counter() - start

    pipeline = IngestPipeline(summary, max_iterations=ITERATIONS)
    start = time.perf_counter()
    report = pipeline.append(batch)
    delta_s = time.perf_counter() - start
    refreshed = report.summary

    speedup = rebuild_s / delta_s
    print(
        f"\n10% append to 1 of {NUM_SHARDS} shards: full rebuild "
        f"{rebuild_s:.2f}s vs delta refresh {delta_s:.2f}s "
        f"({speedup:.2f}x), shards refit: {report.shards_refit}"
    )
    assert report.shards_refit == (0,), (
        "batch was crafted for shard 0 only; routing sent it to "
        f"{report.shards_refit}"
    )
    assert refreshed.total == combined.num_rows

    # Accuracy: the delta-refreshed model tracks ground truth about as
    # well as the from-scratch fit (same statistic structure, slightly
    # staler bucket boundaries on the touched shard).
    predicates = _workload(combined.schema, np.random.default_rng(29), 60)
    rebuilt_errors = []
    delta_errors = []
    for predicate in predicates:
        exact = float(combined.count_where(predicate.attribute_masks()))
        floor = max(exact, 8.0)
        rebuilt_errors.append(
            abs(rebuilt.estimate(predicate).expectation - exact) / floor
        )
        delta_errors.append(
            abs(refreshed.estimate(predicate).expectation - exact) / floor
        )
    rebuilt_error = float(np.mean(rebuilt_errors))
    delta_error = float(np.mean(delta_errors))
    error_ratio = (delta_error + 0.01) / (rebuilt_error + 0.01)
    print(
        f"accuracy over {len(predicates)} queries: mean relative error "
        f"rebuild {rebuilt_error:.4f} vs delta {delta_error:.4f} "
        f"(padded ratio {error_ratio:.2f}x)"
    )

    REPORT.record(
        {
            "num_shards": NUM_SHARDS,
            "append_fraction": APPEND_FRACTION,
            "rebuild_s": round(rebuild_s, 3),
            "delta_refresh_s": round(delta_s, 3),
            "ingest_speedup": round(speedup, 2),
            "accuracy_queries": len(predicates),
            "mean_rel_error_rebuild": round(rebuilt_error, 5),
            "mean_rel_error_delta": round(delta_error, 5),
            "error_ratio": round(error_ratio, 3),
        },
        thresholds=[
            ("ingest_speedup", ">=", 3.0),
            ("error_ratio", "<=", 1.5),
        ],
    )
    assert speedup >= 3.0, (
        f"delta refresh {delta_s:.2f}s is only {speedup:.2f}x faster than "
        f"the {rebuild_s:.2f}s full rebuild (need >= 3x)"
    )
    assert delta_error <= 1.5 * rebuilt_error + 0.015, (
        f"delta-refresh mean error {delta_error:.4f} grew beyond the bound "
        f"vs the from-scratch fit's {rebuilt_error:.4f}"
    )


def test_warm_start_reports_and_converges():
    """The refit path records its warm start and reaches the same
    constraint error the cold path does."""
    base = _relation()
    summary = _builder(base).name("flights-warm").fit()
    batch = _single_shard_batch(base, summary, max(base.num_rows // 20, 10))
    report = IngestPipeline(summary, max_iterations=ITERATIONS).append(batch)
    refit_shard = report.summary.shards[0]
    assert refit_shard.report is not None
    assert refit_shard.report.warm_started
    # Shard 0's rows after the append: the base rows it owns plus the
    # batch, which was crafted for shard 0 only.
    combined = Relation.concat([base, batch])
    low, high = summary.owned_ranges[0]
    column = combined.column(summary.by_position)
    cold = summary.shards[0].refit(
        combined.sample_rows(np.flatnonzero((column >= low) & (column <= high))),
        max_iterations=ITERATIONS,
        warm_start=False,
    )
    warm_error = refit_shard.report.final_error
    cold_error = cold.report.final_error
    print(
        f"\nwarm-start final error {warm_error:.3g} vs cold {cold_error:.3g}"
    )
    REPORT.record(
        {
            "warm_final_error": warm_error,
            "cold_final_error": cold_error,
        },
    )
    assert warm_error <= cold_error * 2 + 1e-6
