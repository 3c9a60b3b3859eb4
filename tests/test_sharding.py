"""Sharded summaries: partitioning, merge math, pruning, persistence.

Documented merge tolerances (asserted here and relied on by
``benchmarks/bench_sharding.py`` and ``docs/api.md``):

* ``total`` — exact: shard cardinalities add up to the relation's.
* single-attribute COUNT — sharded and unsharded estimates agree
  within 2% relative + 0.5 absolute (both reproduce the fitted 1D
  marginals, which partition exactly across shards).
* unconstrained SUM / AVG — within 2% relative (same argument, by
  linearity).
* multi-attribute COUNT — within 25% relative + 2.0 absolute of the
  unsharded estimate (different MaxEnt models of the same data; both
  are *estimates*, and their modeling error dominates the gap).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Explorer, SummaryBuilder, SummaryStore
from repro.core.arena import QueryEstimate
from repro.core.sharding import (
    ShardedSummary,
    load_model,
    partition_relation,
    shard_prefix,
)
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ReproError
from repro.stats.predicates import Conjunction, RangePredicate
from tests import reference
from tests.conftest import relations


def _fit(relation, num_shards=0, by=None, iterations=60, pairs=None, budget=None):
    builder = SummaryBuilder(relation).iterations(iterations)
    if pairs:
        builder.pairs(*pairs).per_pair_budget(budget)
    if num_shards:
        builder.shards(num_shards, by=by, workers=1)
    return builder.fit()


@pytest.fixture(scope="module")
def relation():
    rng = np.random.default_rng(99)
    schema = Schema(
        [integer_domain("A", 4), integer_domain("B", 5), integer_domain("C", 3)]
    )
    columns = []
    for size in schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        weights /= weights.sum()
        columns.append(rng.choice(size, size=600, p=weights))
    return Relation(schema, columns)


@pytest.fixture(scope="module")
def full_1d(relation):
    return _fit(relation)


@pytest.fixture(scope="module")
def sharded_1d(relation):
    return _fit(relation, num_shards=4)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

class TestPartition:
    def test_round_robin_sizes_and_marginals(self, relation):
        partition = partition_relation(relation, 4)
        assert partition.num_shards == 4
        assert partition.by_position is None and partition.ranges is None
        sizes = [shard.num_rows for shard in partition.relations]
        assert sum(sizes) == relation.num_rows
        assert max(sizes) - min(sizes) <= 1
        for pos in range(relation.schema.num_attributes):
            merged = sum(shard.marginal(pos) for shard in partition.relations)
            assert np.array_equal(merged, relation.marginal(pos))

    def test_by_attribute_ranges_partition_domain(self, relation):
        partition = partition_relation(relation, 2, by="B")
        assert partition.by_position == 1
        ranges = partition.ranges
        assert ranges[0][0] == 0
        assert ranges[-1][1] == relation.schema.domain("B").size - 1
        for (_, high), (low, _) in zip(ranges, ranges[1:]):
            assert low == high + 1
        total = 0
        for shard, (low, high) in zip(partition.relations, ranges):
            column = shard.column("B")
            assert column.min() >= low and column.max() <= high
            total += shard.num_rows
        assert total == relation.num_rows

    def test_rejects_bad_shard_counts(self, relation):
        with pytest.raises(ReproError, match=">= 2 shards"):
            partition_relation(relation, 1)
        with pytest.raises(ReproError, match="cannot cut"):
            partition_relation(relation, relation.num_rows + 1)
        with pytest.raises(ReproError, match="only"):
            partition_relation(relation, 6, by="A")  # A has 4 values

    def test_rejects_unsplittable_skew(self):
        schema = Schema([integer_domain("A", 3), integer_domain("B", 2)])
        # Every row holds A=1: no balanced 3-way cut of A exists.
        relation = Relation(
            schema,
            [np.ones(30, dtype=np.int64), np.zeros(30, dtype=np.int64)],
        )
        with pytest.raises(ReproError, match="skew|no rows"):
            partition_relation(relation, 3, by="A")


# ----------------------------------------------------------------------
# Merged estimates
# ----------------------------------------------------------------------

class TestMergedEstimate:
    """A merged answer is a ``QueryEstimate`` carrying the shards'
    summed variance."""

    def test_quadrature_std(self):
        estimate = QueryEstimate(3.0, 4.0, 100)
        assert estimate.std == 2.0
        low, high = estimate.ci95
        assert low == pytest.approx(0.0)  # clipped at zero
        assert high == pytest.approx(3.0 + 1.959963984540054 * 2.0)

    def test_rounding_half_up(self):
        assert QueryEstimate(0.5, 0.0, 10).rounded == 1
        assert QueryEstimate(0.49, 0.0, 10).rounded == 0

    def test_merge_requires_two_shards(self, full_1d):
        with pytest.raises(ReproError, match="two shards"):
            ShardedSummary([full_1d])


# ----------------------------------------------------------------------
# Merge math vs the unsharded model
# ----------------------------------------------------------------------

class TestMergeMath:
    def test_total_is_exact(self, relation, sharded_1d):
        assert sharded_1d.total == relation.num_rows

    def test_single_attribute_counts_match_unsharded(
        self, relation, full_1d, sharded_1d
    ):
        schema = relation.schema
        for attr in schema.attribute_names:
            size = schema.domain(attr).size
            for low in range(size):
                for high in range(low, size):
                    predicate = Conjunction(
                        schema, {attr: RangePredicate(low, high)}
                    )
                    reference = full_1d.engine.estimate(predicate).expectation
                    merged = sharded_1d.estimate(predicate).expectation
                    assert merged == pytest.approx(reference, rel=0.02, abs=0.5)

    def test_multi_attribute_counts_within_documented_tolerance(
        self, relation, full_1d, sharded_1d
    ):
        schema = relation.schema
        for a_value in range(schema.domain("A").size):
            for b_low in range(0, schema.domain("B").size - 1):
                predicate = Conjunction(
                    schema,
                    {
                        "A": RangePredicate.point(a_value),
                        "B": RangePredicate(b_low, b_low + 1),
                    },
                )
                reference = full_1d.engine.estimate(predicate).expectation
                merged = sharded_1d.estimate(predicate).expectation
                assert merged == pytest.approx(reference, rel=0.25, abs=2.0)

    def test_variances_add(self, relation, sharded_1d):
        predicate = Conjunction(relation.schema, {"A": RangePredicate.point(0)})
        merged = sharded_1d.estimate(predicate)
        parts = [
            shard.engine.estimate(predicate) for shard in sharded_1d.shards
        ]
        assert merged.expectation == pytest.approx(
            sum(part.expectation for part in parts)
        )
        assert merged.variance == pytest.approx(
            sum(part.variance for part in parts)
        )

    def test_sum_and_avg_match_unsharded(self, relation, full_1d, sharded_1d):
        weights = np.arange(relation.schema.domain("B").size, dtype=float)
        reference = full_1d.engine.sum_estimate(1, weights)
        merged = sharded_1d.sum_estimate("B", weights)
        assert merged == pytest.approx(reference, rel=0.02)
        assert sharded_1d.avg_estimate("B", weights) == pytest.approx(
            reference / relation.num_rows, rel=0.02
        )

    def test_group_by_sums_to_total(self, relation, sharded_1d):
        grouped = sharded_1d.group_by(["B"])
        assert sum(e.expectation for e in grouped.values()) == pytest.approx(
            sharded_1d.total, rel=1e-6
        )

    def test_group_by_matches_unsharded(self, relation, full_1d, sharded_1d):
        reference = full_1d.group_by(["A"])
        merged = sharded_1d.group_by(["A"])
        assert set(merged) == set(reference)
        for labels, estimate in merged.items():
            assert estimate.expectation == pytest.approx(
                reference[labels].expectation, rel=0.02, abs=0.5
            )

    def test_estimate_batch_equals_per_query(self, relation, sharded_1d):
        schema = relation.schema
        predicates = [
            Conjunction(schema, {"A": RangePredicate.point(0)}),
            Conjunction(schema, {"B": RangePredicate(1, 3)}),
            Conjunction(
                schema,
                {"A": RangePredicate(1, 2), "C": RangePredicate.point(1)},
            ),
            Conjunction(schema, {}),
        ]
        sharded_1d.clear_cache()
        batch = sharded_1d.estimate_batch(predicates)
        for predicate, merged in zip(predicates, batch):
            single = sharded_1d.estimate(predicate)
            assert merged.expectation == single.expectation
            assert merged.variance == single.variance
            expectation, variance = reference.count(sharded_1d, predicate)
            assert merged.expectation == pytest.approx(expectation)
            assert merged.variance == pytest.approx(variance)

    @settings(max_examples=8, deadline=None)
    @given(data=relations(max_rows=120), seed=st.integers(0, 10_000))
    def test_property_single_attribute_merge(self, data, seed):
        """Round-robin shards of any relation merge single-attribute
        counts to the unsharded answer (both recover 1D marginals)."""
        if data.num_rows < 3:
            return
        full = _fit(data, iterations=40)
        sharded = _fit(data, num_shards=3, iterations=40)
        assert sharded.total == data.num_rows
        rng = np.random.default_rng(seed)
        attr = int(rng.integers(0, data.schema.num_attributes))
        size = data.schema.domain(attr).size
        low = int(rng.integers(0, size))
        high = int(rng.integers(low, size))
        predicate = Conjunction(data.schema, {attr: RangePredicate(low, high)})
        reference = full.engine.estimate(predicate).expectation
        merged = sharded.estimate(predicate).expectation
        assert merged == pytest.approx(reference, rel=0.02, abs=0.5)


# ----------------------------------------------------------------------
# Attribute partitioning: pruning and narrowing
# ----------------------------------------------------------------------

class TestPruning:
    @pytest.fixture(scope="class")
    def by_sharded(self, relation):
        return _fit(relation, num_shards=2, by="B")

    def test_point_query_touches_one_shard(self, relation, by_sharded):
        # The router sends it to one shard, and in the arena — which
        # folds the owned ranges into its constants instead of skipping
        # shards — every other shard's contribution is exactly zero.
        predicate = Conjunction(relation.schema, {"B": RangePredicate.point(0)})
        assert by_sharded.live_shards(predicate) == [0]
        assert list(reference.count_parts(by_sharded, predicate)) == [0]
        arena = by_sharded.arena
        _, _, (expectations, variances) = arena.merge(
            arena._masked_values(predicate.attribute_masks())
        )
        assert expectations[0] > 0.0
        assert not expectations[1:].any() and not variances[1:].any()

    def test_pruned_shards_contribute_zero(self, relation, full_1d, by_sharded):
        schema = relation.schema
        for value in range(schema.domain("B").size):
            predicate = Conjunction(schema, {"B": RangePredicate.point(value)})
            reference = full_1d.engine.estimate(predicate).expectation
            merged = by_sharded.estimate(predicate).expectation
            assert merged == pytest.approx(reference, rel=0.02, abs=0.5)

    def test_cross_shard_range_merges(self, relation, full_1d, by_sharded):
        schema = relation.schema
        size = schema.domain("B").size
        predicate = Conjunction(schema, {"B": RangePredicate(0, size - 1)})
        merged = by_sharded.estimate(predicate).expectation
        assert merged == pytest.approx(relation.num_rows, rel=0.02)

    def test_group_by_on_shard_attribute_partitions_labels(
        self, relation, by_sharded
    ):
        grouped = by_sharded.group_by(["B"])
        assert len(grouped) == relation.schema.domain("B").size
        assert sum(e.expectation for e in grouped.values()) == pytest.approx(
            by_sharded.total, rel=0.02
        )


# ----------------------------------------------------------------------
# Parallel build
# ----------------------------------------------------------------------

class TestParallelBuild:
    def test_worker_processes_match_serial(self, relation):
        serial = _fit(relation, num_shards=2, iterations=20)
        builder = (
            SummaryBuilder(relation).iterations(20).shards(2, workers=2)
        )
        parallel = builder.fit()
        predicate = Conjunction(relation.schema, {"A": RangePredicate(1, 2)})
        assert parallel.estimate(predicate).expectation == pytest.approx(
            serial.estimate(predicate).expectation
        )

    def test_budget_divides_across_shards(self, relation):
        sharded = _fit(
            relation, num_shards=2, iterations=10, pairs=[("A", "B")], budget=8
        )
        # ceil(8 / 2) = 4 buckets per shard pair: the sharded model's
        # total 2D budget stays at the unsharded level.
        for shard in sharded.shards:
            assert shard.statistic_set.num_multi_dim <= 4

    def test_shard_names_derive_from_summary_name(self, relation):
        sharded = (
            SummaryBuilder(relation)
            .iterations(5)
            .name("demo")
            .shards(2, workers=1)
            .fit()
        )
        assert [shard.name for shard in sharded.shards] == [
            "demo/shard0",
            "demo/shard1",
        ]

    def test_builder_validation(self, relation):
        with pytest.raises(ReproError, match="shards"):
            SummaryBuilder(relation).shards(0)
        with pytest.raises(ReproError, match="workers"):
            SummaryBuilder(relation).shards(2, workers=0)
        # shards(1) restores the unsharded fit.
        summary = SummaryBuilder(relation).iterations(5).shards(1).fit()
        assert not isinstance(summary, ShardedSummary)


# ----------------------------------------------------------------------
# Persistence: prefix save/load and the versioned store
# ----------------------------------------------------------------------

class TestPersistence:
    def test_prefix_round_trip(self, relation, tmp_path):
        sharded = _fit(relation, num_shards=2, by="B", iterations=10)
        prefix = tmp_path / "model"
        sharded.save(prefix)
        assert prefix.with_suffix(".json").exists()
        assert shard_prefix(prefix, 0).with_suffix(".npz").exists()
        loaded = load_model(prefix)
        assert isinstance(loaded, ShardedSummary)
        assert loaded.shard_by == "B"
        predicate = Conjunction(relation.schema, {"B": RangePredicate(1, 3)})
        assert loaded.estimate(predicate).expectation == pytest.approx(
            sharded.estimate(predicate).expectation
        )

    def test_load_model_dispatches_plain_summaries(self, full_1d, tmp_path):
        prefix = tmp_path / "plain"
        full_1d.save(prefix)
        loaded = load_model(prefix)
        assert not isinstance(loaded, ShardedSummary)

    def test_store_round_trip(self, relation, tmp_path):
        sharded = _fit(relation, num_shards=3, iterations=10)
        store = SummaryStore(tmp_path / "store")
        record = store.save(sharded, "demo", tag="first")
        assert record.shards == 3
        assert record.shard_by is None
        assert record.num_statistics == sharded.num_statistics
        assert "3 shards" in record.describe()
        loaded = store.load("demo")
        assert isinstance(loaded, ShardedSummary)
        assert loaded.num_shards == 3
        predicate = Conjunction(relation.schema, {"C": RangePredicate.point(1)})
        assert loaded.estimate(predicate).expectation == pytest.approx(
            sharded.estimate(predicate).expectation
        )

    def test_store_mixes_plain_and_sharded_versions(
        self, relation, full_1d, tmp_path
    ):
        store = SummaryStore(tmp_path / "store")
        store.save(full_1d, "model")
        sharded = _fit(relation, num_shards=2, iterations=10)
        store.save(sharded, "model")
        assert store.record("model", version=1).shards == 0
        assert store.record("model", version=2).shards == 2
        assert not isinstance(
            store.load("model", version=1), ShardedSummary
        )
        assert isinstance(store.load("model", version=2), ShardedSummary)

    def test_store_delete_removes_shard_files(self, relation, tmp_path):
        root = tmp_path / "store"
        store = SummaryStore(root)
        sharded = _fit(relation, num_shards=2, iterations=10)
        store.save(sharded, "doomed")
        assert any(root.rglob("*-shard*.npz"))
        store.delete("doomed")
        assert not any(root.rglob("*-shard*.npz"))
        assert not any(root.rglob("*-shard*.json"))


# ----------------------------------------------------------------------
# Explorer integration
# ----------------------------------------------------------------------

class TestExplorerIntegration:
    @pytest.fixture(scope="class")
    def session(self, relation):
        return Explorer.attach(_fit(relation, num_shards=2, iterations=30))

    def test_attach_uses_sharded_backend(self, session):
        card = session.describe()
        assert card["type"] == "SummaryBackend"
        assert card["shards"] == 2 and card["shard_by"] is None

    def test_sql_scalar_carries_error_bounds(self, session):
        result = session.sql("SELECT COUNT(*) FROM R WHERE A = 1")
        assert result.is_scalar
        assert result.std is not None and result.std >= 0.0
        low, high = result.ci95
        assert low <= result.scalar <= high

    def test_group_by_sql(self, session, relation):
        result = session.sql(
            "SELECT B, COUNT(*) AS c FROM R GROUP BY B ORDER BY c DESC"
        )
        assert len(result.rows) == relation.schema.domain("B").size

    def test_run_many_matches_sequential(self, session):
        queries = [
            session.query().where(A=value).to_ast() for value in range(4)
        ] + [session.query().where(B__between=(1, 3)).to_ast()]
        session.clear_cache()
        batched = [result.scalar for result in session.run_many(queries)]
        session.clear_cache()
        sequential = [session.execute(query).scalar for query in queries]
        assert batched == pytest.approx(sequential)

    def test_rounded_session(self, relation):
        sharded = _fit(relation, num_shards=2, iterations=10)
        rounded = Explorer.attach(sharded, rounded=True)
        value = rounded.sql("SELECT COUNT(*) FROM R WHERE A = 3 AND C = 2").scalar
        assert value == int(value)

    def test_avg_query(self, session, relation):
        value = session.query().avg("B").value()
        exact = float(relation.column("B").mean())
        assert value == pytest.approx(exact, rel=0.05, abs=0.1)

    def test_open_from_store(self, relation, tmp_path):
        sharded = _fit(relation, num_shards=2, iterations=10)
        store = SummaryStore(tmp_path / "store")
        store.save(sharded, "demo")
        session = Explorer.open(store, "demo")
        assert session.summary.num_shards == 2
        assert session.sql("SELECT COUNT(*) FROM R").scalar == pytest.approx(
            relation.num_rows, rel=0.01
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_sharded_build_query_info(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data"
        assert main(
            ["generate", "flights", "--rows", "2000", "--seed", "3",
             "--out", str(data)]
        ) == 0
        store = tmp_path / "models"
        assert main(
            [
                "build", "--data", str(data),
                "--pairs", "fl_time:distance", "--budget", "12",
                "--iterations", "5", "--shards", "2", "--workers", "1",
                "--store", str(store), "--name", "fl",
            ]
        ) == 0
        assert "shards=2" in capsys.readouterr().out
        assert main(
            [
                "query", "--store", str(store), "--name", "fl",
                "--sql", "SELECT COUNT(*) FROM R WHERE distance >= 1000",
            ]
        ) == 0
        assert float(capsys.readouterr().out.strip()) >= 0.0
        assert main(["info", "--store", str(store), "--name", "fl"]) == 0
        out = capsys.readouterr().out
        assert "sharding:   2 shards" in out

    def test_shard_by_requires_shards(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data"
        assert main(
            ["generate", "flights", "--rows", "500", "--out", str(data)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "build", "--data", str(data), "--shard-by", "origin_state",
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 1
        assert "--shards" in capsys.readouterr().err
