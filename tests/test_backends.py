"""Tests for the SummaryBackend adapter and ExactBackend."""

import numpy as np
import pytest

from repro.api import SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.query.backends import SummaryBackend
from repro.stats.predicates import Conjunction, RangePredicate


@pytest.fixture
def relation():
    schema = Schema([Domain("s", ["u", "v"]), integer_domain("h", 3)])
    rng = np.random.default_rng(13)
    return Relation(
        schema,
        [rng.integers(0, 2, 200), rng.integers(0, 3, 200)],
    )


@pytest.fixture
def summary(relation):
    return SummaryBuilder(relation).iterations(50).fit()


class TestSummaryBackend:
    def test_count(self, summary, relation):
        backend = SummaryBackend(summary)
        predicate = Conjunction(relation.schema, {"s": RangePredicate.point(0)})
        assert backend.count(predicate) == pytest.approx(
            relation.marginal("s")[0], abs=0.1
        )

    def test_rounded_mode(self, summary, relation):
        backend = SummaryBackend(summary, rounded=True)
        predicate = Conjunction(relation.schema, {"s": RangePredicate.point(0)})
        value = backend.count(predicate)
        assert value == int(value)

    def test_group_counts(self, summary, relation):
        backend = SummaryBackend(summary)
        grouped = backend.group_counts(["s"], None)
        assert set(grouped) == {("u",), ("v",)}
        assert sum(grouped.values()) == pytest.approx(relation.num_rows, rel=1e-6)

    def test_group_counts_rounded(self, summary):
        backend = SummaryBackend(summary, rounded=True)
        grouped = backend.group_counts(["h"], None)
        assert all(value == int(value) for value in grouped.values())

    def test_describe_names_shards_only_for_sharded_models(self, summary):
        card = SummaryBackend(summary).describe()
        assert card["type"] == "SummaryBackend"
        assert "shards" not in card and "shard_by" not in card


class TestExactBackend:
    def test_count(self, relation):
        backend = ExactBackend(relation)
        predicate = Conjunction(relation.schema, {"h": RangePredicate(0, 1)})
        assert backend.count(predicate) == relation.count_where(
            predicate.attribute_masks()
        )

    def test_group_counts_only_existing(self, relation):
        backend = ExactBackend(relation)
        grouped = backend.group_counts(["s", "h"], None)
        assert sum(grouped.values()) == relation.num_rows
        assert all(count > 0 for count in grouped.values())

    def test_group_counts_with_predicate(self, relation):
        backend = ExactBackend(relation)
        predicate = Conjunction(relation.schema, {"s": RangePredicate.point(1)})
        grouped = backend.group_counts(["h"], predicate)
        assert sum(grouped.values()) == relation.marginal("s")[1]
