"""Tests for SQL execution through the Explorer against exact and summary
backends."""

import numpy as np
import pytest

from repro.api import Explorer, SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.query.backends import SummaryBackend


@pytest.fixture
def relation():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(3)
    weights = np.array([0.5, 0.3, 0.2])
    states = rng.choice(3, size=300, p=weights)
    hours = rng.integers(0, 4, 300)
    return Relation(schema, [states, hours])


@pytest.fixture
def exact_engine(relation):
    return Explorer(ExactBackend(relation), table_name="R")


class TestExactExecution:
    def test_scalar_count(self, exact_engine, relation):
        count = exact_engine.count("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        assert count == relation.marginal("state")[0]

    def test_full_count(self, exact_engine, relation):
        assert exact_engine.count("SELECT COUNT(*) FROM R") == relation.num_rows

    def test_group_by(self, exact_engine, relation):
        result = exact_engine.execute(
            "SELECT state, COUNT(*) FROM R GROUP BY state"
        )
        counts = {row.labels[0]: row.count for row in result.rows}
        marginal = relation.marginal("state")
        assert counts == {
            "CA": marginal[0], "NY": marginal[1], "WA": marginal[2],
        }

    def test_order_and_limit(self, exact_engine):
        result = exact_engine.execute(
            "SELECT state, COUNT(*) AS cnt FROM R GROUP BY state "
            "ORDER BY cnt DESC LIMIT 2"
        )
        assert len(result.rows) == 2
        assert result.rows[0].count >= result.rows[1].count

    def test_group_by_with_where(self, exact_engine, relation):
        result = exact_engine.execute(
            "SELECT hour, COUNT(*) FROM R WHERE state = 'NY' GROUP BY hour"
        )
        total = sum(row.count for row in result.rows)
        assert total == relation.marginal("state")[1]

    def test_wrong_table(self, exact_engine):
        with pytest.raises(QueryError, match="unknown table"):
            exact_engine.count("SELECT COUNT(*) FROM other")

    def test_unknown_group_attribute(self, exact_engine):
        with pytest.raises(Exception):
            exact_engine.execute("SELECT nope, COUNT(*) FROM R GROUP BY nope")

    def test_group_and_where_same_attribute(self, exact_engine, relation):
        # Filter-then-group: only the matching value appears as a group.
        result = exact_engine.execute(
            "SELECT state, COUNT(*) FROM R WHERE state = 'CA' GROUP BY state"
        )
        assert [row.labels[0] for row in result.rows] == ["CA"]
        assert result.rows[0].count == relation.marginal("state")[0]

    def test_group_and_where_in_filter(self, exact_engine, relation):
        result = exact_engine.execute(
            "SELECT state, COUNT(*) FROM R WHERE state IN ('CA', 'WA') "
            "GROUP BY state"
        )
        marginal = relation.marginal("state")
        assert {row.labels[0]: row.count for row in result.rows} == {
            "CA": marginal[0], "WA": marginal[2],
        }

    def test_count_on_grouped_query_rejected(self, exact_engine):
        with pytest.raises(QueryError, match="grouped"):
            exact_engine.count("SELECT state, COUNT(*) FROM R GROUP BY state")


class TestSummaryExecution:
    @pytest.fixture
    def summary_engine(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("state", "hour"))
            .per_pair_budget(4)
            .iterations(60)
            .fit()
        )
        return Explorer(SummaryBackend(summary), table_name="R")

    def test_estimates_track_exact(self, summary_engine, exact_engine):
        for sql in (
            "SELECT COUNT(*) FROM R WHERE state = 'CA'",
            "SELECT COUNT(*) FROM R WHERE hour = 2",
            "SELECT COUNT(*) FROM R WHERE state IN ('CA','NY') AND hour >= 1",
        ):
            estimate = summary_engine.count(sql)
            exact = exact_engine.count(sql)
            assert estimate == pytest.approx(exact, rel=0.25, abs=6)

    def test_group_by_covers_all_values(self, summary_engine):
        result = summary_engine.execute(
            "SELECT state, COUNT(*) FROM R GROUP BY state"
        )
        # Model-side group-by reports every domain value.
        assert {row.labels[0] for row in result.rows} == {"CA", "NY", "WA"}

    def test_same_query_same_answer(self, summary_engine):
        sql = "SELECT COUNT(*) FROM R WHERE state = 'WA' AND hour = 3"
        assert summary_engine.count(sql) == summary_engine.count(sql)

    def test_group_and_where_same_attribute(self, summary_engine, exact_engine):
        sql = (
            "SELECT state, COUNT(*) FROM R WHERE state IN ('CA', 'NY') "
            "GROUP BY state"
        )
        approx = summary_engine.execute(sql)
        exact = exact_engine.execute(sql)
        # Model-side group-by only reports the allowed values ...
        assert {row.labels[0] for row in approx.rows} == {"CA", "NY"}
        # ... and the estimates track the exact filtered counts.
        exact_counts = {row.labels[0]: row.count for row in exact.rows}
        for row in approx.rows:
            assert row.count == pytest.approx(
                exact_counts[row.labels[0]], rel=0.25, abs=6
            )

    def test_group_and_where_with_extra_predicate(
        self, summary_engine, exact_engine
    ):
        sql = (
            "SELECT state, COUNT(*) FROM R WHERE state = 'CA' AND hour >= 2 "
            "GROUP BY state"
        )
        approx = summary_engine.execute(sql)
        assert [row.labels[0] for row in approx.rows] == ["CA"]
        exact = exact_engine.execute(sql).rows[0].count
        assert approx.rows[0].count == pytest.approx(exact, rel=0.3, abs=8)


class TestQueryResult:
    def test_scalar_repr(self, exact_engine):
        result = exact_engine.execute("SELECT COUNT(*) FROM R")
        assert result.is_scalar

    def test_rows_iteration(self, exact_engine):
        result = exact_engine.execute("SELECT state, COUNT(*) FROM R GROUP BY state")
        for row in result.rows:
            labels_and_count = list(row)
            assert len(labels_and_count) == 2
