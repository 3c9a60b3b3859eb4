"""Tests for possible-world sampling (Sec 2.1 semantics)."""

import numpy as np
import pytest

from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import solve_statistics
from repro.core.worlds import (
    empirical_query_distribution,
    sample_world,
    sample_world_sequential,
)
from repro.data.counts import Counts


@pytest.fixture(scope="module")
def fitted_model():
    import numpy as np

    from repro.data.domain import integer_domain
    from repro.data.relation import Relation
    from repro.data.schema import Schema
    from repro.stats.statistic import StatisticSet, range_statistic_2d

    schema = Schema(
        [integer_domain("A", 4), integer_domain("B", 5), integer_domain("C", 3)]
    )
    generator = np.random.default_rng(1234)
    columns = []
    for size in schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        weights /= weights.sum()
        columns.append(generator.choice(size, size=400, p=weights))
    relation = Relation(schema, columns)

    def count(masks):
        return float(relation.count_where(masks))

    stat = range_statistic_2d(
        schema, "A", (0, 1), "B", (0, 2),
        count({
            "A": np.array([True, True, False, False]),
            "B": np.array([True, True, True, False, False]),
        }),
    )
    statistic_set = StatisticSet.from_counts(Counts.of(relation), [stat])
    poly = CompressedPolynomial(statistic_set)
    params, _ = solve_statistics(poly, max_iterations=200)
    return statistic_set, poly, params


class TestDirectSampling:
    def test_cardinality(self, fitted_model):
        statistic_set, _, params = fitted_model
        world = sample_world(statistic_set, params, rng=0)
        assert world.num_rows == statistic_set.total

    def test_custom_cardinality(self, fitted_model):
        statistic_set, _, params = fitted_model
        world = sample_world(statistic_set, params, rng=0, num_rows=50)
        assert world.num_rows == 50

    def test_deterministic_with_seed(self, fitted_model):
        statistic_set, _, params = fitted_model
        first = sample_world(statistic_set, params, rng=7)
        second = sample_world(statistic_set, params, rng=7)
        assert np.array_equal(first.column(0), second.column(0))

    def test_marginals_close_to_statistics(self, fitted_model):
        statistic_set, _, params = fitted_model
        # Average marginals over worlds approach the 1D statistics.
        totals = np.zeros(4)
        num_worlds = 40
        for seed in range(num_worlds):
            world = sample_world(statistic_set, params, rng=seed)
            totals += world.marginal(0)
        totals /= num_worlds
        expected = np.asarray(statistic_set.one_dim[0])
        np.testing.assert_allclose(totals, expected, rtol=0.12, atol=6)


class TestSequentialSampling:
    def test_cardinality_and_schema(self, fitted_model):
        statistic_set, poly, params = fitted_model
        world = sample_world_sequential(poly, params, rng=0)
        assert world.num_rows == statistic_set.total
        assert world.schema == statistic_set.schema

    def test_distribution_matches_direct(self, fitted_model):
        statistic_set, poly, params = fitted_model
        # Compare attribute marginals between the two samplers over
        # several worlds — they draw from the same distribution.
        direct = np.zeros(5)
        sequential = np.zeros(5)
        for seed in range(25):
            direct += sample_world(statistic_set, params, rng=seed).marginal(1)
            sequential += sample_world_sequential(
                poly, params, rng=1000 + seed
            ).marginal(1)
        direct /= direct.sum()
        sequential /= sequential.sum()
        np.testing.assert_allclose(direct, sequential, atol=0.03)

    def test_respects_zero_alphas(self, fitted_model):
        statistic_set, poly, params = fitted_model
        pinned = params.copy()
        pinned.alphas[2][1] = 0.0
        world = sample_world_sequential(poly, pinned, rng=3)
        assert (world.column(2) != 1).all()


class TestEmpiricalDistribution:
    def test_matches_closed_form_moments(self, fitted_model):
        statistic_set, poly, params = fitted_model
        from repro.core.inference import InferenceEngine

        engine = InferenceEngine(poly, params, statistic_set.total)
        masks = {0: np.array([True, True, False, False])}
        estimate = engine.estimate_masks(masks)
        answers = empirical_query_distribution(
            statistic_set, params, masks, num_worlds=4000, rng=5
        )
        assert answers.mean() == pytest.approx(estimate.expectation, rel=0.05)
        assert answers.var() == pytest.approx(estimate.variance, rel=0.25)
