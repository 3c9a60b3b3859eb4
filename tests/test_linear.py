"""Tests for label resolution and the LinearQuery formalism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.binning import Bucket, EquiWidthBinner
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.query.ast import Condition
from repro.plan.canonical import CanonicalPredicate, canonicalize_conditions
from repro.query.linear import LinearQuery, condition_mask, label_table, resolve
from repro.stats.predicates import RangePredicate, SetPredicate
from tests import reference


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


# ----------------------------------------------------------------------
# Bisection against the per-label oracle
# ----------------------------------------------------------------------

OPS = ("=", "!=", "<", "<=", ">", ">=", "in", "between")


@st.composite
def resolution_domains(draw):
    """Equi-width buckets (last one closed), sorted ints, unsorted
    strings, or composite (state, city) labels in any order."""
    kind = draw(st.sampled_from(["buckets", "ints", "strings", "tuples"]))
    if kind == "buckets":
        low = draw(st.floats(-1e3, 1e3, allow_nan=False))
        width = draw(st.floats(0.01, 100.0, allow_nan=False))
        count = draw(st.integers(1, 12))
        return EquiWidthBinner("x", low, low + width * count, count).domain
    if kind == "ints":
        values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True))
        return Domain("x", sorted(values))
    if kind == "strings":
        alphabet = st.sampled_from("ABCXYZ/")
        values = draw(
            st.lists(st.text(alphabet, max_size=3), min_size=1, max_size=10, unique=True)
        )
        return Domain("x", values)
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["CA", "NY", "WA"]), st.sampled_from(["A", "B", "Other"])
            ),
            min_size=1,
            max_size=9,
            unique=True,
        )
    )
    return Domain("x", pairs)


def _bounds(domain):
    """Every label's low and high key (a plain label is both)."""
    keys = []
    for label in domain.labels:
        if isinstance(label, Bucket):
            keys += [label.low, label.high]
        else:
            keys.append(label)
    return keys


@st.composite
def literals(draw, domain):
    """A literal at a bound, at a float neighbour of one, out of range,
    a composite key, NaN (the fluent API passes any value), or of the
    wrong type."""
    keys = _bounds(domain)
    numeric = [key for key in keys if isinstance(key, (int, float))]
    choices = [
        st.sampled_from(keys),
        st.integers(-100, 100),
        st.text("ABCXYZ/", max_size=3),
        st.just(math.nan),
    ]
    if numeric:
        key = st.sampled_from(numeric)
        choices += [
            key.map(lambda v: math.nextafter(v, math.inf)),
            key.map(lambda v: math.nextafter(v, -math.inf)),
            st.sampled_from([min(numeric) - 1, max(numeric) + 1]),
        ]
    tuples = [label for label in domain.labels if isinstance(label, tuple)]
    if tuples:
        choices.append(st.sampled_from(["/".join(label) for label in tuples]))
    return draw(st.one_of(choices))


@st.composite
def resolution_cases(draw):
    domain = draw(resolution_domains())
    conditions = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(OPS))
        if op == "in":
            values = draw(st.lists(literals(domain), min_size=1, max_size=4))
        elif op == "between":
            values = [draw(literals(domain)), draw(literals(domain))]
            numbers = all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            )
            if numbers:
                values.sort()
        else:
            values = [draw(literals(domain))]
        conditions.append(Condition("x", op, values))
    return Schema([domain, integer_domain("y", 3)]), conditions


def _oracle(schema, conditions):
    """The per-label resolution: masks, intersected, each turned into
    its tightest predicate by ``_entry_from_mask``."""
    masks = {}
    for condition in conditions:
        pos = schema.position(condition.attribute)
        mask = reference.condition_mask(schema.domain(pos), condition)
        masks[pos] = masks[pos] & mask if pos in masks else mask
    entries = []
    for pos, mask in masks.items():
        if not mask.any():
            return CanonicalPredicate(schema, is_empty=True)
        predicate = reference._entry_from_mask(mask)
        if predicate is not None:
            entries.append((pos, predicate))
    return CanonicalPredicate(schema, entries)


class TestBisectionMatchesPerLabelOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=resolution_cases())
    def test_same_entries_key_and_contradictions(self, case):
        schema, conditions = case
        try:
            expected = _oracle(schema, conditions)
        except (QueryError, TypeError):
            # Incomparable types: the oracle raises (a bare TypeError
            # when it compares a bucket's bound with a string), and so
            # must the resolver, with a QueryError naming the attribute.
            with pytest.raises(QueryError, match="attribute 'x'"):
                canonicalize_conditions(schema, conditions)
            return
        got = canonicalize_conditions(schema, conditions)
        assert got.is_empty == expected.is_empty
        assert got.key == expected.key
        assert got.entries == expected.entries
        for condition in conditions:
            assert condition_mask(schema.domain("x"), condition).tolist() == (
                reference.condition_mask(schema.domain("x"), condition).tolist()
            )

    def test_table_is_built_once_per_domain(self, schema):
        domain = schema.domain("dist")
        assert label_table(domain) is label_table(domain)
        # Bucket domains sort in label order: selections are ranges.
        assert label_table(domain).low_order is None
        assert label_table(domain).high_order is None
        unsorted = Domain("s", ["NY", "CA", "WA"])
        assert label_table(unsorted).low_order == [1, 0, 2]
        assert resolve(unsorted, Condition("s", "<", ["NY"])) == [1]
