"""Tests for label resolution and the LinearQuery formalism."""

import numpy as np
import pytest

from repro.data.binning import EquiWidthBinner
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.query.ast import Condition
from repro.plan.canonical import canonicalize_conditions
from repro.query.linear import LinearQuery, condition_mask
from repro.stats.predicates import RangePredicate, SetPredicate


@pytest.fixture
def schema():
    binner = EquiWidthBinner("dist", 0.0, 100.0, 5)
    return Schema(
        [
            Domain("state", ["CA", "NY", "WA"]),
            binner.domain,
            Domain("city", [("CA", "LA"), ("CA", "Other"), ("NY", "NYC")]),
            integer_domain("day", 4),
        ]
    )


class TestConditionMask:
    def test_equality_label(self, schema):
        mask = condition_mask(schema.domain("state"), Condition("state", "=", ["NY"]))
        assert mask.tolist() == [False, True, False]

    def test_equality_numeric_bucket(self, schema):
        mask = condition_mask(schema.domain("dist"), Condition("dist", "=", [37]))
        assert mask.tolist() == [False, True, False, False, False]

    def test_equality_tuple_label_via_slash(self, schema):
        mask = condition_mask(schema.domain("city"), Condition("city", "=", ["CA/LA"]))
        assert mask.tolist() == [True, False, False]

    def test_unknown_value_selects_nothing(self, schema):
        domain = schema.domain("state")
        mask = condition_mask(domain, Condition("state", "=", ["TX"]))
        assert mask.tolist() == [False, False, False]
        mask = condition_mask(domain, Condition("state", "!=", ["TX"]))
        assert mask.tolist() == [True, True, True]
        mask = condition_mask(domain, Condition("state", "in", ["TX", "WA"]))
        assert mask.tolist() == [False, False, True]

    def test_not_equal(self, schema):
        mask = condition_mask(schema.domain("state"), Condition("state", "!=", ["NY"]))
        assert mask.tolist() == [True, False, True]

    def test_in_list(self, schema):
        mask = condition_mask(
            schema.domain("state"), Condition("state", "in", ["CA", "WA"])
        )
        assert mask.tolist() == [True, False, True]

    def test_between_integers(self, schema):
        mask = condition_mask(schema.domain("day"), Condition("day", "between", [1, 2]))
        assert mask.tolist() == [False, True, True, False]

    def test_between_buckets_overlap_semantics(self, schema):
        # [30, 70] overlaps buckets [20,40), [40,60), [60,80).
        mask = condition_mask(
            schema.domain("dist"), Condition("dist", "between", [30, 70])
        )
        assert mask.tolist() == [False, True, True, True, False]

    def test_comparison_on_integers(self, schema):
        mask = condition_mask(schema.domain("day"), Condition("day", "<", [2]))
        assert mask.tolist() == [True, True, False, False]
        mask = condition_mask(schema.domain("day"), Condition("day", ">=", [2]))
        assert mask.tolist() == [False, False, True, True]

    def test_comparison_on_buckets(self, schema):
        mask = condition_mask(schema.domain("dist"), Condition("dist", "<", [25]))
        assert mask.tolist() == [True, True, False, False, False]
        mask = condition_mask(schema.domain("dist"), Condition("dist", ">", [75]))
        assert mask.tolist() == [False, False, False, True, True]

    def test_greater_equal_on_a_bucket_boundary(self, schema):
        # 40 is the open upper bound of [20, 40): no value of that bucket
        # is >= 40, so the selection starts at [40, 60).
        mask = condition_mask(schema.domain("dist"), Condition("dist", ">=", [40]))
        assert mask.tolist() == [False, False, True, True, True]
        mask = condition_mask(
            schema.domain("dist"), Condition("dist", "between", [40, 50])
        )
        assert mask.tolist() == [False, False, True, False, False]
        # The last bucket [80, 100] is closed on the right and holds 100.
        mask = condition_mask(schema.domain("dist"), Condition("dist", ">=", [100]))
        assert mask.tolist() == [False, False, False, False, True]

    def test_incomparable_types(self, schema):
        with pytest.raises(QueryError, match="cannot compare"):
            condition_mask(schema.domain("city"), Condition("city", "<", [5]))

    def test_empty_between_selects_nothing(self, schema):
        mask = condition_mask(
            schema.domain("day"), Condition("day", "between", [10, 20])
        )
        assert mask.tolist() == [False, False, False, False]


class TestConjunctionFromConditions:
    def test_builds_tightest_predicates(self, schema):
        conjunction = canonicalize_conditions(
            schema,
            [
                Condition("state", "=", ["CA"]),
                Condition("day", "between", [1, 3]),
                Condition("dist", "in", [5, 85]),
            ],
        ).to_conjunction()
        assert conjunction.predicate_at(0) == RangePredicate.point(0)
        assert conjunction.predicate_at(3) == RangePredicate(1, 3)
        assert conjunction.predicate_at(1) == SetPredicate([0, 4])

    def test_empty_conditions(self, schema):
        conjunction = canonicalize_conditions(schema, []).to_conjunction()
        assert conjunction.is_trivial()


class TestLinearQuery:
    @pytest.fixture
    def small(self):
        return Schema([integer_domain("a", 2), integer_domain("b", 3)])

    def test_counting_query_answer(self, small):
        relation = Relation.from_rows(small, [(0, 0), (0, 1), (1, 2), (0, 0)])
        from repro.stats.predicates import Conjunction

        predicate = Conjunction(small, {"a": RangePredicate.point(0)})
        query = LinearQuery.from_conjunction(small, predicate)
        assert query.is_counting_query()
        assert query.answer(relation) == 3.0

    def test_answer_equals_relation_count(self, small, rng):
        from repro.stats.predicates import Conjunction

        relation = Relation(
            small, [rng.integers(0, 2, 100), rng.integers(0, 3, 100)]
        )
        predicate = Conjunction(
            small,
            {"a": RangePredicate.point(1), "b": RangePredicate(0, 1)},
        )
        query = LinearQuery.from_conjunction(small, predicate)
        assert query.answer(relation) == relation.count_where(
            predicate.attribute_masks()
        )

    def test_linearity(self, small):
        from repro.stats.predicates import Conjunction

        relation = Relation.from_rows(small, [(0, 0), (1, 1), (1, 2)])
        q1 = LinearQuery.from_conjunction(
            small, Conjunction(small, {"a": RangePredicate.point(0)})
        )
        q2 = LinearQuery.from_conjunction(
            small, Conjunction(small, {"a": RangePredicate.point(1)})
        )
        combined = q1 + q2
        assert combined.answer(relation) == relation.num_rows
        scaled = 2.0 * q1
        assert scaled.answer(relation) == 2.0 * q1.answer(relation)

    def test_wrong_vector_length(self, small):
        with pytest.raises(QueryError):
            LinearQuery(small, np.ones(5))

    def test_schema_mismatch(self, small):
        other = Schema([integer_domain("a", 2), integer_domain("b", 2)])
        relation = Relation.from_rows(other, [(0, 0)])
        query = LinearQuery(small, np.ones(6))
        with pytest.raises(QueryError):
            query.answer(relation)
