"""End-to-end integration tests: data → statistics → model → SQL.

These exercise the full pipeline the way the examples and benchmarks
do, including the paper's headline behaviours on small instances.
"""

import numpy as np
import pytest

from repro.api import Explorer, SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.baselines.uniform import uniform_sample
from repro.core.summary import EntropySummary
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.evaluation.metrics import f_measure
from repro.query.backends import SummaryBackend
from repro.workloads.selection_queries import light_hitters, nonexistent_values


@pytest.fixture(scope="module")
def relation():
    """Correlated, skewed data: s determines the likely range of d."""
    schema = Schema(
        [
            Domain("s", ["a", "b", "c", "d"]),
            integer_domain("d", 8),
            integer_domain("u", 3),  # uniform, uncorrelated
        ]
    )
    rng = np.random.default_rng(99)
    num_rows = 3000
    s = rng.choice(4, size=num_rows, p=[0.55, 0.3, 0.12, 0.03])
    d = np.clip(s * 2 + rng.integers(0, 3, num_rows), 0, 7)
    u = rng.integers(0, 3, num_rows)
    return Relation(schema, [s, d, u])


class TestFullyDeterminedModel:
    """When statistics pin down every 2D cell of the correlated pair,
    the model reproduces the exact (s, d) joint distribution."""

    def test_point_queries_exact(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(32)  # every (s, d) cell gets a statistic
            .iterations(100)
            .fit()
        )
        truth = relation.contingency("s", "d")
        for s_value in range(4):
            for d_value in range(8):
                estimate = summary.engine.point_estimate(
                    {"s": s_value, "d": d_value}
                )
                assert estimate.expectation == pytest.approx(
                    truth[s_value, d_value], abs=0.51
                )


class TestCorrelationCorrection:
    """2D statistics must beat the independence (No2D) model on
    correlated point queries — the core EntropyDB value proposition."""

    def test_2d_summary_beats_no2d(self, relation):
        no2d = SummaryBuilder(relation).iterations(60).fit()
        with2d = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(16)
            .iterations(60)
            .fit()
        )
        truth = relation.contingency("s", "d")
        errors = {"no2d": 0.0, "with2d": 0.0}
        for summary, key in ((no2d, "no2d"), (with2d, "with2d")):
            for s_value in range(4):
                for d_value in range(8):
                    estimate = summary.engine.point_estimate(
                        {"s": s_value, "d": d_value}
                    ).expectation
                    errors[key] += abs(estimate - truth[s_value, d_value])
        assert errors["with2d"] < 0.5 * errors["no2d"]

    def test_uniform_attribute_needs_no_statistics(self, relation):
        summary = SummaryBuilder(relation).iterations(60).fit()
        truth = relation.contingency("s", "u")
        worst = 0.0
        for s_value in range(4):
            for u_value in range(3):
                estimate = summary.engine.point_estimate(
                    {"s": s_value, "u": u_value}
                ).expectation
                worst = max(
                    worst,
                    abs(estimate - truth[s_value, u_value])
                    / max(truth[s_value, u_value], 1),
                )
        # Independence is the right model here; errors stay moderate.
        assert worst < 0.35


class TestSQLAgainstExact:
    def test_sql_pipeline(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(16)
            .iterations(60)
            .fit()
        )
        approx = Explorer(SummaryBackend(summary), table_name="flights")
        exact = Explorer(ExactBackend(relation), table_name="flights")
        queries = [
            "SELECT COUNT(*) FROM flights WHERE s = 'a'",
            "SELECT COUNT(*) FROM flights WHERE s = 'b' AND d BETWEEN 2 AND 4",
            "SELECT COUNT(*) FROM flights WHERE d >= 6",
            "SELECT COUNT(*) FROM flights WHERE s IN ('c', 'd') AND u = 1",
        ]
        for sql in queries:
            estimate = approx.count(sql)
            truth = exact.count(sql)
            assert estimate == pytest.approx(truth, rel=0.2, abs=10)

    def test_group_by_top_k(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(16)
            .iterations(60)
            .fit()
        )
        engine = Explorer(SummaryBackend(summary), table_name="flights")
        result = engine.execute(
            "SELECT s, COUNT(*) AS cnt FROM flights GROUP BY s "
            "ORDER BY cnt DESC LIMIT 2"
        )
        # The two most popular s values in the data are 'a' then 'b'.
        assert [row.labels[0] for row in result.rows] == ["a", "b"]


class TestRareVersusNonexistent:
    """The paper's headline: summaries distinguish rare from missing
    better than a small uniform sample."""

    def test_f_measure_beats_uniform_sample(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(32)
            .iterations(100)
            .fit()
        )
        backend = SummaryBackend(summary, rounded=True)
        sample = uniform_sample(relation, fraction=0.02, seed=1)
        light = light_hitters(relation, ["s", "d"], 5)
        null = nonexistent_values(relation, ["s", "d"], 8, seed=2)
        schema = relation.schema

        def score(method):
            light_est = [
                float(method.count(q.conjunction(schema))) for q in light
            ]
            null_est = [
                float(method.count(q.conjunction(schema))) for q in null
            ]
            return f_measure(light_est, null_est)

        assert score(backend) > score(sample)


class TestPersistenceEndToEnd:
    def test_save_load_same_sql_answers(self, relation, tmp_path):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(8)
            .iterations(40)
            .fit()
        )
        summary.save(tmp_path / "model")
        loaded = EntropySummary.load(tmp_path / "model")
        sql = "SELECT COUNT(*) FROM R WHERE s = 'b' AND d = 3"
        original = Explorer(SummaryBackend(summary)).count(sql)
        restored = Explorer(SummaryBackend(loaded)).count(sql)
        assert restored == pytest.approx(original, rel=1e-12)


class TestModelInvariants:
    def test_group_by_partitions_total(self, relation):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(8)
            .iterations(40)
            .fit()
        )
        for attrs in (["s"], ["d"], ["s", "u"]):
            grouped = summary.group_by(attrs)
            assert sum(e.expectation for e in grouped.values()) == pytest.approx(
                relation.num_rows, rel=1e-9
            )

    def test_estimates_never_negative(self, relation, rng):
        summary = (
            SummaryBuilder(relation)
            .pairs(("s", "d"))
            .per_pair_budget(8)
            .iterations(40)
            .fit()
        )
        from repro.stats.predicates import Conjunction, RangePredicate

        for _ in range(30):
            masks = {}
            for pos, size in enumerate(relation.schema.sizes()):
                if rng.random() < 0.5:
                    low = int(rng.integers(0, size))
                    high = int(rng.integers(low, size))
                    masks[pos] = RangePredicate(low, min(high, size - 1))
            predicate = Conjunction(relation.schema, masks)
            estimate = summary.count(predicate)
            assert estimate.expectation >= 0.0
            assert estimate.expectation <= estimate.total * (1.0 + 1e-12)
            assert estimate.variance >= 0.0
