"""Tests for the SUM/AVG aggregate extension (Sec 7 "other aggregates").

SUM over a numeric attribute is a weighted linear query; the model
answers it with one gradient pass.  Exact and sampling backends
implement the same interface, so one Explorer per backend runs
SUM/AVG against all three.
"""

import numpy as np
import pytest

from repro.api import Explorer, SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.baselines.uniform import uniform_sample
from repro.data.binning import EquiWidthBinner
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.query.backends import SummaryBackend
from repro.query.linear import numeric_weights
from repro.query.parser import parse_query


@pytest.fixture(scope="module")
def relation():
    schema = Schema(
        [
            Domain("kind", ["a", "b", "c"]),
            integer_domain("amount", 10),
            Domain("flag", ["yes", "no"]),
        ]
    )
    rng = np.random.default_rng(55)
    kind = rng.choice(3, size=2000, p=[0.5, 0.3, 0.2])
    amount = np.clip(kind * 3 + rng.integers(0, 4, 2000), 0, 9)
    flag = rng.integers(0, 2, 2000)
    return Relation(schema, [kind, amount, flag])


@pytest.fixture(scope="module")
def engines(relation):
    summary = (
        SummaryBuilder(relation)
        .pairs(("kind", "amount"))
        .per_pair_budget(15)
        .iterations(80)
        .fit()
    )
    return {
        "exact": Explorer(ExactBackend(relation)),
        "summary": Explorer(SummaryBackend(summary)),
        "sample": Explorer(uniform_sample(relation, fraction=0.2, seed=1)),
    }


class TestNumericWeights:
    def test_integer_labels(self):
        domain = integer_domain("x", 4)
        assert numeric_weights(domain).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_bucket_labels_use_midpoints(self):
        binner = EquiWidthBinner("x", 0.0, 10.0, 2)
        assert numeric_weights(binner.domain).tolist() == [2.5, 7.5]

    def test_string_labels_rejected(self):
        with pytest.raises(QueryError, match="not numeric"):
            numeric_weights(Domain("s", ["a", "b"]))


class TestParserAggregates:
    def test_sum(self):
        query = parse_query("SELECT SUM(amount) FROM R WHERE kind = 'a'")
        assert query.aggregate == "sum"
        assert query.aggregate_attr == "amount"

    def test_avg_with_alias(self):
        query = parse_query("SELECT AVG(amount) AS mean FROM R")
        assert query.aggregate == "avg"

    def test_sum_with_group_by_rejected(self):
        with pytest.raises(QueryError, match="GROUP BY"):
            parse_query("SELECT SUM(amount) FROM R GROUP BY kind")

    def test_repr_round_trip(self):
        query = parse_query("SELECT SUM(amount) FROM R WHERE flag = 'yes'")
        assert parse_query(repr(query)).aggregate == "sum"


class TestSumAccuracy:
    def test_exact_unconditional(self, engines, relation):
        total = engines["exact"].count("SELECT SUM(amount) FROM R")
        assert total == float(relation.column("amount").sum())

    def test_summary_tracks_exact(self, engines):
        for sql in (
            "SELECT SUM(amount) FROM R",
            "SELECT SUM(amount) FROM R WHERE kind = 'b'",
            "SELECT SUM(amount) FROM R WHERE flag = 'yes' AND amount >= 3",
        ):
            estimate = engines["summary"].count(sql)
            truth = engines["exact"].count(sql)
            assert estimate == pytest.approx(truth, rel=0.1, abs=20)

    def test_sample_tracks_exact(self, engines):
        sql = "SELECT SUM(amount) FROM R WHERE kind = 'a'"
        assert engines["sample"].count(sql) == pytest.approx(
            engines["exact"].count(sql), rel=0.25
        )

    def test_avg(self, engines):
        sql = "SELECT AVG(amount) FROM R WHERE kind = 'c'"
        estimate = engines["summary"].count(sql)
        truth = engines["exact"].count(sql)
        assert estimate == pytest.approx(truth, rel=0.1)

    def test_avg_empty_predicate_fails_cleanly(self, engines, relation):
        # kind='a' AND amount=9 never co-occur (amount <= 6 for kind a).
        sql = "SELECT AVG(amount) FROM R WHERE kind = 'a' AND amount = 9"
        with pytest.raises(QueryError, match="AVG undefined"):
            engines["exact"].count(sql)


class TestModelSumConsistency:
    def test_sum_equals_weighted_group_by(self, engines):
        """SUM must equal Σ_v v · E[amount = v] — internal consistency
        of the gradient-pass implementation."""
        summary_engine = engines["summary"]
        backend = summary_engine.backend
        grouped = backend.summary.group_by(["amount"])
        expected = sum(
            float(label) * estimate.expectation
            for (label,), estimate in grouped.items()
        )
        total = summary_engine.count("SELECT SUM(amount) FROM R")
        assert total == pytest.approx(expected, rel=1e-9)

    def test_sum_additive_over_predicate_partition(self, engines):
        summary_engine = engines["summary"]
        parts = [
            summary_engine.count(
                f"SELECT SUM(amount) FROM R WHERE kind = '{kind}'"
            )
            for kind in ("a", "b", "c")
        ]
        whole = summary_engine.count("SELECT SUM(amount) FROM R")
        assert sum(parts) == pytest.approx(whole, rel=1e-9)
