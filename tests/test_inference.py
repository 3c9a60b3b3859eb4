"""Tests for query answering over fitted models (Sec 3.2 / 4.2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given

from repro.api import SummaryBuilder
from repro.core.arena import QueryEstimate, ShardArena, round_half_up
from repro.core.inference import InferenceEngine
from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import solve_statistics
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.datasets.flights import generate_flights
from repro.errors import QueryError
from repro.stats.predicates import (
    Conjunction,
    RangePredicate,
    SetPredicate,
    conjunction_from_masks,
)

from tests import reference
from tests.conftest import masked_models


@pytest.fixture
def fitted(small_statistics):
    poly = CompressedPolynomial(small_statistics)
    params, _ = solve_statistics(poly, max_iterations=200)
    engine = InferenceEngine(poly, params, small_statistics.total)
    return poly, params, engine, small_statistics


class TestRounding:
    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(0.49) == 0
        assert round_half_up(1.5) == 2
        assert round_half_up(2.4) == 2


class TestQueryEstimate:
    def test_variance_is_binomial(self, fitted):
        """One model's answer is ``Binomial(n, p)``, ``p = E / n``."""
        _, _, engine, statistic_set = fitted
        estimate = engine.estimate_masks({0: np.array([True, False, True, False])})
        n = statistic_set.total
        p = estimate.expectation / n
        assert estimate.variance == pytest.approx(n * p * (1.0 - p), rel=1e-12)
        assert QueryEstimate(50.0, 25.0, 100).std == pytest.approx(5.0)

    def test_ci_clipped(self):
        estimate = QueryEstimate(1.0, 0.99, 100)
        low, high = estimate.ci95
        assert low >= 0.0
        assert high <= 100.0

    def test_rounded(self):
        assert QueryEstimate(0.51, 0.5, 100).rounded == 1
        assert QueryEstimate(0.49, 0.5, 100).rounded == 0


class TestOptimizedQueryAnswering:
    """Sec 4.2: masking equals the extended-polynomial route, here
    checked against the naive polynomial's direct expectation."""

    def test_matches_naive_expectation(self, fitted, rng):
        poly, params, engine, statistic_set = fitted
        naive = NaivePolynomial(statistic_set)
        for _ in range(20):
            masks = {
                pos: rng.random(size) > 0.4
                for pos, size in enumerate(poly.sizes)
                if rng.random() > 0.3
            }
            masks = {
                pos: mask if mask.any() else np.ones_like(mask)
                for pos, mask in masks.items()
            }
            expected = naive.expected_count(params, statistic_set.total, masks)
            actual = engine.estimate_masks(masks).expectation
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_trivial_query_returns_n(self, fitted):
        poly, params, engine, statistic_set = fitted
        predicate = Conjunction(poly.schema, {})
        assert engine.estimate(predicate).expectation == pytest.approx(
            statistic_set.total
        )

    def test_one_dim_statistics_reproduced(self, fitted):
        poly, params, engine, statistic_set = fitted
        for pos in range(poly.schema.num_attributes):
            for index, target in enumerate(statistic_set.one_dim[pos]):
                predicate = Conjunction(
                    poly.schema, {pos: RangePredicate.point(index)}
                )
                estimate = engine.estimate(predicate).expectation
                assert estimate == pytest.approx(target, abs=0.01)

    def test_two_dim_statistics_reproduced(self, fitted):
        poly, params, engine, statistic_set = fitted
        for statistic in statistic_set.multi_dim:
            masks = statistic.predicate.attribute_masks()
            estimate = engine.estimate_masks(masks).expectation
            assert estimate == pytest.approx(statistic.value, abs=0.05)

    def test_estimates_additive_over_partitions(self, fitted):
        poly, params, engine, _ = fitted
        size = poly.sizes[0]
        total = 0.0
        for index in range(size):
            predicate = Conjunction(poly.schema, {0: RangePredicate.point(index)})
            total += engine.estimate(predicate).expectation
        trivial = engine.estimate(Conjunction(poly.schema, {})).expectation
        assert total == pytest.approx(trivial, rel=1e-9)

    def test_probability_bounds(self, fitted, rng):
        poly, params, engine, _ = fitted
        masks = {0: np.array([True, False, False, False])}
        estimate = engine.estimate_masks(masks)
        assert 0.0 <= estimate.expectation <= estimate.total


class TestMaskedKernelRouting:
    """COUNT, batches, GROUP BY, SUM and AVG all run through the one
    evaluator, the engine's lazily built one-shard arena."""

    @given(masked_models())
    def test_property_every_aggregate_equals_naive(self, model):
        statistic_set, poly, params, masks = model
        naive = NaivePolynomial(statistic_set)
        total = statistic_set.total
        engine = InferenceEngine(poly, params, total)

        def expected(extra=None):
            return naive.expected_count(params, total, {**masks, **(extra or {})})

        count = engine.estimate_masks(masks).expectation
        assert count == pytest.approx(expected(), rel=1e-9, abs=1e-9)

        # GROUP BY / SUM / AVG take a conjunction; an all-False mask has
        # no predicate form (the planner answers it without the engine).
        if not all(mask.any() for mask in masks.values()):
            return
        predicate = Conjunction(
            poly.schema,
            {pos: SetPredicate(np.flatnonzero(mask)) for pos, mask in masks.items()},
        )
        for pos, size in enumerate(poly.sizes):
            point = {v: np.arange(size) == v for v in range(size)}
            allowed = masks.get(pos, np.ones(size, dtype=bool))
            grouped = engine.group_by([pos], predicate)
            assert set(grouped) == {(v,) for v in np.flatnonzero(allowed)}
            for (value,), estimate in grouped.items():
                assert estimate.expectation == pytest.approx(
                    expected({pos: point[value]}), rel=1e-9, abs=1e-9
                )
            weights = np.arange(size) * 1.5 + 1.0
            want = sum(
                weights[v] * expected({pos: point[v]}) for v in np.flatnonzero(allowed)
            )
            assert engine.sum_estimate(pos, weights, predicate) == pytest.approx(
                want, rel=1e-9, abs=1e-9
            )
            if count > 1e-6:
                assert engine.avg_estimate(pos, weights, predicate) == pytest.approx(
                    want / count, rel=1e-8
                )

    @given(masked_models())
    def test_property_batch_is_bit_equal_to_single(self, model):
        statistic_set, poly, params, masks = model
        other = {0: np.arange(poly.sizes[0]) == 0}
        queries = [masks, other, {}, masks]
        single = InferenceEngine(poly, params, statistic_set.total)
        batched = InferenceEngine(poly, params, statistic_set.total)
        answers = batched.estimate_masks_batch(queries)
        assert [(a.expectation, a.variance) for a in answers] == [
            (answer.expectation, answer.variance)
            for answer in map(single.estimate_masks, queries)
        ]

    def test_arena_is_built_by_the_first_query(self, fitted):
        poly, params, _, statistic_set = fitted
        engine = InferenceEngine(poly, params, statistic_set.total)
        assert engine.partition_value > 0
        engine.masks_for(Conjunction(poly.schema, {0: RangePredicate(0, 1)}))
        engine.clear_cache()
        assert engine._arena is None
        engine.estimate_masks({0: np.array([True, False, True, False])})
        arena = engine._arena
        assert isinstance(arena, ShardArena)
        # One shard, no shard attribute, no owned ranges.
        assert arena.num_shards == 1 and arena.by_pos is None and arena.owned is None
        assert arena.fulls[0] == engine.partition_value
        engine.group_by([1])
        engine.sum_estimate(2, np.ones(poly.sizes[2]))
        assert engine.arena is arena
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._arena is None


class TestGroupBy:
    def test_group_by_matches_point_queries(self, fitted):
        poly, params, engine, _ = fitted
        grouped = engine.group_by([1])
        for value, estimate in grouped.items():
            predicate = Conjunction(
                poly.schema, {1: RangePredicate.point(value[0])}
            )
            assert estimate.expectation == pytest.approx(
                engine.estimate(predicate).expectation, rel=1e-9
            )

    def test_group_by_two_attributes(self, fitted):
        poly, params, engine, statistic_set = fitted
        grouped = engine.group_by([0, 2])
        assert len(grouped) == poly.sizes[0] * poly.sizes[2]
        total = sum(e.expectation for e in grouped.values())
        assert total == pytest.approx(statistic_set.total, rel=1e-9)

    def test_group_by_with_predicate(self, fitted):
        poly, params, engine, _ = fitted
        predicate = Conjunction(poly.schema, {0: RangePredicate(0, 1)})
        grouped = engine.group_by([1], predicate)
        direct = {}
        for value in range(poly.sizes[1]):
            conj = Conjunction(
                poly.schema,
                {0: RangePredicate(0, 1), 1: RangePredicate.point(value)},
            )
            direct[(value,)] = engine.estimate(conj).expectation
        for key, estimate in grouped.items():
            assert estimate.expectation == pytest.approx(direct[key], rel=1e-9)

    def test_group_by_constrained_attr_filters_groups(self, fitted):
        # Filter-then-group: a predicate on the group attribute restricts
        # which values appear, and each group matches the point estimate.
        poly, params, engine, _ = fitted
        predicate = Conjunction(poly.schema, {0: RangePredicate(0, 1)})
        grouped = engine.group_by([0], predicate)
        assert set(grouped) == {(0,), (1,)}
        for (value,), estimate in grouped.items():
            point = engine.estimate(
                Conjunction(poly.schema, {0: RangePredicate.point(value)})
            )
            assert estimate.expectation == pytest.approx(point.expectation)

    def test_group_by_rejects_duplicates(self, fitted):
        _, _, engine, _ = fitted
        with pytest.raises(QueryError):
            engine.group_by([1, 1])

    def test_group_by_needs_attribute(self, fitted):
        _, _, engine, _ = fitted
        with pytest.raises(QueryError):
            engine.group_by([])


class TestQueryCache:
    def test_repeat_query_hits_cache(self, fitted):
        _, _, engine, _ = fitted
        masks = {0: np.array([True, False, True, False])}
        first = engine.estimate_masks(masks).expectation
        misses = engine.arena.cache_misses
        second = engine.estimate_masks(masks).expectation
        assert second == first
        assert engine.arena.cache_misses == misses
        assert engine.arena.cache_hits >= 1
        engine.clear_cache()
        assert engine.arena.stats()["cache_entries"] == 0

    def test_different_masks_are_distinct_entries(self, fitted):
        _, _, engine, _ = fitted
        a = engine.estimate_masks({0: np.array([True, False, False, False])})
        b = engine.estimate_masks({0: np.array([False, True, False, False])})
        assert a.expectation != b.expectation


class TestPointEstimate:
    def test_by_indices(self, fitted):
        poly, params, engine, _ = fitted
        estimate = engine.point_estimate({"A": 0, "C": 1})
        predicate = Conjunction(
            poly.schema, {0: RangePredicate.point(0), 2: RangePredicate.point(1)}
        )
        assert estimate.expectation == pytest.approx(
            engine.estimate(predicate).expectation
        )

    def test_out_of_range_index(self, fitted):
        _, _, engine, _ = fitted
        with pytest.raises(QueryError):
            engine.point_estimate({"A": 99})


# ----------------------------------------------------------------------
# One evaluator: unsharded answers against the polynomial oracle
# ----------------------------------------------------------------------

def _skewed_relation(seed=5, rows=800):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [integer_domain("A", 4), integer_domain("B", 6), integer_domain("C", 5)]
    )
    columns = []
    for size in schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        columns.append(rng.choice(size, size=rows, p=weights / weights.sum()))
    return Relation(schema, columns)


@pytest.fixture(scope="module", params=["one_dim", "two_dim", "m1_shaped"])
def unsharded(request):
    """A 1D-only model, a small 2D model, and a model shaped like the
    paper's Ent1&2&3 (three 2D pairs over the coarse flights relation)."""
    if request.param == "m1_shaped":
        relation = generate_flights(num_rows=3000, seed=7).coarse
        pairs = [
            ("origin_state", "distance"),
            ("dest_state", "distance"),
            ("fl_time", "distance"),
        ]
        builder = SummaryBuilder(relation).pairs(*pairs).per_pair_budget(40)
        return builder.iterations(5).fit(), ("origin_state", "dest_state")
    builder = SummaryBuilder(_skewed_relation()).iterations(30)
    if request.param == "two_dim":
        builder.pairs(("A", "B")).per_pair_budget(6)
    return builder.fit(), ("A", "B")


def _oracle_close(actual, expected):
    return actual == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestUnshardedMatchesThePolynomial:
    """Every query shape an unsharded summary answers through its
    one-shard arena equals ``tests/reference.py``'s direct
    ``masked_value`` / ``masked_gradient`` evaluation."""

    @staticmethod
    def _predicates(summary):
        rng = np.random.default_rng(11)
        schema = summary.schema
        predicates = [None]
        for _ in range(4):
            masks = {}
            for pos in rng.choice(schema.num_attributes, size=2, replace=False):
                mask = rng.random(schema.domain(int(pos)).size) < 0.5
                mask[rng.integers(mask.size)] = True
                masks[int(pos)] = mask
            predicates.append(conjunction_from_masks(schema, masks))
        return predicates

    def test_count_and_point(self, unsharded):
        summary, _ = unsharded
        predicates = self._predicates(summary)
        for estimate, predicate in zip(summary.estimate_batch(predicates), predicates):
            expectation, variance = reference.count(summary, predicate)
            assert _oracle_close(estimate.expectation, expectation)
            assert _oracle_close(estimate.variance, variance)
        schema = summary.schema
        for index in range(3):
            point = {pos: index % schema.domain(pos).size for pos in (0, 2)}
            conjunction = Conjunction(
                schema, {pos: RangePredicate.point(v) for pos, v in point.items()}
            )
            expectation, variance = reference.count(summary, conjunction)
            estimate = summary.engine.point_estimate(point)
            assert _oracle_close(estimate.expectation, expectation)
            assert _oracle_close(estimate.variance, variance)

    def test_group_by_one_and_two_attributes(self, unsharded):
        summary, pair = unsharded
        for predicate in self._predicates(summary)[:3]:
            for attrs in (pair[:1], pair):
                groups = summary.group_by(attrs, predicate)
                expected = reference.group_by(summary, attrs, predicate)
                assert set(groups) == set(expected)
                for labels, (expectation, variance) in expected.items():
                    assert _oracle_close(groups[labels].expectation, expectation)
                    assert _oracle_close(groups[labels].variance, variance)

    def test_sum_and_avg(self, unsharded):
        summary, pair = unsharded
        attr = pair[1]
        weights = np.arange(summary.schema.domain(attr).size) * 1.5 + 1.0
        for predicate in self._predicates(summary):
            total = reference.sum_estimate(summary, attr, weights, predicate)
            assert _oracle_close(summary.sum_estimate(attr, weights, predicate), total)
            rows = (
                summary.total
                if predicate is None
                else reference.count(summary, predicate)[0]
            )
            assert _oracle_close(
                summary.avg_estimate(attr, weights, predicate), total / rows
            )
