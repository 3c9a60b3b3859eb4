"""Tests for EntropySummary: build, query, persist."""

import numpy as np
import pytest

from repro.api import SummaryBuilder
from repro.core.summary import EntropySummary
from repro.data.binning import Bucket, EquiWidthBinner
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.stats.predicates import Conjunction, RangePredicate


@pytest.fixture
def relation():
    schema = Schema(
        [
            Domain("state", ["CA", "NY", "WA"]),
            integer_domain("hour", 6),
            Domain("kind", [("a", "x"), ("a", "Other"), ("b", "y")]),
        ]
    )
    rng = np.random.default_rng(77)
    rows = rng.integers(0, [3, 6, 3], size=(500, 3))
    return Relation.from_index_rows(schema, rows)


@pytest.fixture
def summary(relation):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(6)
        .iterations(60)
        .name("test")
        .fit()
    )


class TestBuild:
    def test_no2d_build(self, relation):
        summary = SummaryBuilder(relation).iterations(30).fit()
        assert summary.statistic_set.num_multi_dim == 0
        assert summary.total == 500

    def test_build_with_pairs(self, summary):
        assert summary.statistic_set.num_multi_dim > 0
        assert summary.report is not None
        assert summary.report.final_error < 0.01

    def test_automatic_selection(self, relation):
        summary = (
            SummaryBuilder(relation)
            .budget(8)
            .num_pairs(2)
            .iterations(20)
            .fit()
        )
        assert summary.total == 500

    def test_count_matches_one_dim_stats(self, summary, relation):
        for index, label in enumerate(["CA", "NY", "WA"]):
            estimate = summary.count_labels({"state": label})
            true = relation.marginal("state")[index]
            assert estimate.expectation == pytest.approx(true, abs=0.1)


class TestQuerying:
    def test_count_range(self, summary, relation):
        predicate = Conjunction(relation.schema, {"hour": RangePredicate(0, 2)})
        estimate = summary.count(predicate)
        true = relation.count_where(predicate.attribute_masks())
        assert estimate.expectation == pytest.approx(true, abs=0.5)

    def test_group_by_labels(self, summary, relation):
        grouped = summary.group_by(["state"])
        assert set(grouped) == {("CA",), ("NY",), ("WA",)}
        for (label,), estimate in grouped.items():
            index = relation.schema.domain("state").index_of(label)
            assert estimate.expectation == pytest.approx(
                relation.marginal("state")[index], abs=0.1
            )

    def test_group_by_sums_to_total(self, summary):
        grouped = summary.group_by(["kind", "state"])
        total = sum(e.expectation for e in grouped.values())
        assert total == pytest.approx(summary.total, rel=1e-9)

    def test_size_report(self, summary):
        report = summary.size_report()
        assert report["total_bytes"] > 0
        assert report["num_terms"] >= 1
        assert report["num_uncompressed_monomials"] == 3 * 6 * 3


class TestPersistence:
    def test_save_load_round_trip(self, summary, relation, tmp_path):
        prefix = tmp_path / "model"
        summary.save(prefix)
        loaded = EntropySummary.load(prefix)
        assert loaded.total == summary.total
        assert loaded.schema == summary.schema
        predicate = Conjunction(
            relation.schema,
            {"state": RangePredicate.point(0), "hour": RangePredicate(1, 4)},
        )
        assert loaded.count(predicate).expectation == pytest.approx(
            summary.count(predicate).expectation, rel=1e-12
        )

    def test_save_load_preserves_statistics(self, summary, tmp_path):
        prefix = tmp_path / "model"
        summary.save(prefix)
        loaded = EntropySummary.load(prefix)
        assert loaded.statistic_set.num_multi_dim == (
            summary.statistic_set.num_multi_dim
        )
        for original, restored in zip(
            summary.statistic_set.multi_dim, loaded.statistic_set.multi_dim
        ):
            assert original.value == restored.value
            assert original.positions == restored.positions

    def test_bucket_labels_survive(self, tmp_path):
        binner = EquiWidthBinner("x", 0.0, 10.0, 4)
        schema = Schema([binner.domain, integer_domain("y", 3)])
        rng = np.random.default_rng(5)
        relation = Relation(
            schema,
            [rng.integers(0, 4, 100), rng.integers(0, 3, 100)],
        )
        summary = SummaryBuilder(relation).iterations(20).fit()
        summary.save(tmp_path / "buckets")
        loaded = EntropySummary.load(tmp_path / "buckets")
        labels = loaded.schema.domain("x").labels
        assert all(isinstance(label, Bucket) for label in labels)
        assert labels == binner.domain.labels

    def test_tuple_labels_survive(self, summary, tmp_path):
        summary.save(tmp_path / "tuples")
        loaded = EntropySummary.load(tmp_path / "tuples")
        assert loaded.schema.domain("kind").labels == [
            ("a", "x"), ("a", "Other"), ("b", "y"),
        ]
