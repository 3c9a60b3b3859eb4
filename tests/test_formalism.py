"""Ties the implementation back to the paper's formal model (Fig. 1).

Every counting query the engine answers corresponds to a 0/1 linear
query vector ``q`` over ``Tup`` with exact answer ``⟨q, n^I⟩``; the
summary's estimate is the model expectation of that inner product.
These tests keep the formal objects and the production code in sync.
"""

import numpy as np
import pytest

from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import solve_statistics
from repro.core.inference import InferenceEngine
from repro.data.counts import Counts
from repro.data.frequency import frequency_vector
from repro.query.linear import LinearQuery
from repro.stats.predicates import Conjunction, RangePredicate, SetPredicate


@pytest.fixture(scope="module")
def model(request):
    import numpy as np

    from repro.data.domain import integer_domain
    from repro.data.relation import Relation
    from repro.data.schema import Schema
    from repro.stats.statistic import StatisticSet, range_statistic_2d

    schema = Schema(
        [integer_domain("A", 3), integer_domain("B", 4), integer_domain("C", 3)]
    )
    rng = np.random.default_rng(321)
    relation = Relation(
        schema,
        [rng.integers(0, 3, 300), rng.integers(0, 4, 300), rng.integers(0, 3, 300)],
    )
    masks = {
        "A": np.array([True, True, False]),
        "B": np.array([False, True, True, False]),
    }
    statistic = range_statistic_2d(
        schema, "A", (0, 1), "B", (1, 2), float(relation.count_where(masks))
    )
    statistic_set = StatisticSet.from_counts(Counts.of(relation), [statistic])
    poly = CompressedPolynomial(statistic_set)
    params, _ = solve_statistics(poly, max_iterations=150)
    engine = InferenceEngine(poly, params, statistic_set.total)
    return relation, statistic_set, poly, params, engine


PREDICATES = [
    {"A": RangePredicate.point(0)},
    {"B": RangePredicate(1, 2)},
    {"A": RangePredicate(0, 1), "C": SetPredicate([0, 2])},
    {"A": SetPredicate([0, 2]), "B": RangePredicate.point(3), "C": RangePredicate(1, 2)},
]


class TestLinearQueryCorrespondence:
    @pytest.mark.parametrize("spec", PREDICATES)
    def test_exact_answer_is_inner_product(self, model, spec):
        relation, *_ = model
        predicate = Conjunction(relation.schema, spec)
        query = LinearQuery.from_conjunction(relation.schema, predicate)
        direct = relation.count_where(predicate.attribute_masks())
        assert query.answer(relation) == direct
        assert np.dot(query.vector, frequency_vector(relation)) == direct

    @pytest.mark.parametrize("spec", PREDICATES)
    def test_estimate_is_model_expectation_of_q(self, model, spec):
        """``E[⟨q, I⟩] = n · Σ_t q_t p_t`` — the engine must equal the
        formal expectation computed from the tuple distribution."""
        relation, statistic_set, poly, params, engine = model
        predicate = Conjunction(relation.schema, spec)
        query = LinearQuery.from_conjunction(relation.schema, predicate)
        naive = NaivePolynomial(statistic_set)
        probabilities = naive.tuple_probabilities(params)
        formal = statistic_set.total * float(
            np.dot(query.vector, probabilities)
        )
        estimate = engine.estimate(predicate).expectation
        assert estimate == pytest.approx(formal, rel=1e-9, abs=1e-9)

    def test_sum_query_is_weighted_linear_query(self, model):
        """SUM(B) equals the linear query with coordinates b(t)."""
        relation, statistic_set, poly, params, engine = model
        naive = NaivePolynomial(statistic_set)
        weights_per_tuple = naive.tuple_indices[:, 1].astype(float)
        query = LinearQuery(relation.schema, weights_per_tuple)
        probabilities = naive.tuple_probabilities(params)
        formal = statistic_set.total * float(
            np.dot(query.vector, probabilities)
        )
        estimate = engine.sum_estimate(1, np.arange(4, dtype=float))
        assert estimate == pytest.approx(formal, rel=1e-9)

    def test_group_by_top_k_matches_paper_template(self, model):
        """The paper's 'GROUP BY A ORDER BY cnt DESC LIMIT k' equals
        per-group linear queries, sorted."""
        relation, statistic_set, poly, params, engine = model
        grouped = engine.group_by([0])
        linear_answers = {}
        for value in range(3):
            predicate = Conjunction(
                relation.schema, {"A": RangePredicate.point(value)}
            )
            query = LinearQuery.from_conjunction(relation.schema, predicate)
            naive = NaivePolynomial(statistic_set)
            linear_answers[value] = statistic_set.total * float(
                np.dot(query.vector, naive.tuple_probabilities(params))
            )
        for (value,), estimate in grouped.items():
            assert estimate.expectation == pytest.approx(
                linear_answers[value], rel=1e-9
            )
