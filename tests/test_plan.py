"""Tests for the query planner: canonical predicates, routing, the
shared batched executor, and cross-surface equivalence.

The acceptance properties of the planner refactor:

* equivalent query texts produce identical ``CanonicalPredicate`` keys
  and identical answers on exact, summary, and sharded backends;
* contradictory predicates answer ``0`` without invoking any backend;
* ``explain()`` shows the normalize → route → execute stages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Explorer, SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.core.sharding import ShardedSummary, partition_relation
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.plan import (
    CanonicalPredicate,
    Planner,
    canonicalize_conditions,
    canonicalize_conjunction,
)
from repro.plan.canonical import EMPTY_KEY
from repro.query.ast import Condition
from repro.query.parser import parse_query
from repro.stats.predicates import Conjunction, RangePredicate, SetPredicate

HOURS = 8


@pytest.fixture(scope="module")
def relation():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", HOURS)]
    )
    rng = np.random.default_rng(11)
    states = rng.choice(3, size=400, p=[0.5, 0.3, 0.2])
    hours = rng.integers(0, HOURS, 400)
    return Relation(schema, [states, hours])


@pytest.fixture(scope="module")
def schema(relation):
    return relation.schema


@pytest.fixture(scope="module")
def summary(relation):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(6)
        .iterations(40)
        .fit()
    )


@pytest.fixture(scope="module")
def sharded(relation):
    partition = partition_relation(relation, 2, by="hour")
    return ShardedSummary.fit_partitions(
        partition, max_iterations=40, name="sharded", workers=1
    )


@pytest.fixture(scope="module")
def sessions(relation, summary, sharded):
    return {
        "exact": Explorer.attach(relation),
        "summary": Explorer.attach(summary),
        "sharded": Explorer.attach(sharded),
    }


#: Pairs of equivalent query texts — each pair must normalize to one
#: canonical key and return identical answers on every backend.
EQUIVALENT_TEXTS = [
    (
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6",
        "SELECT COUNT(*) FROM R WHERE hour >= 3 AND hour <= 6",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE state = 'CA' AND hour = 2",
        "SELECT COUNT(*) FROM R WHERE hour = 2 AND state = 'CA'",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE state IN ('CA', 'NY')",
        "SELECT COUNT(*) FROM R WHERE state IN ('NY', 'CA', 'CA')",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE hour >= 2 AND hour >= 0",
        "SELECT COUNT(*) FROM R WHERE hour >= 2",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE hour != 0",
        "SELECT COUNT(*) FROM R WHERE hour >= 1",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 3",
        "SELECT COUNT(*) FROM R WHERE hour = 3",
    ),
    (
        "SELECT COUNT(*) FROM R WHERE state IN ('CA', 'NY', 'WA')",
        "SELECT COUNT(*) FROM R",
    ),
]

CONTRADICTIONS = [
    "SELECT COUNT(*) FROM R WHERE hour >= 5 AND hour <= 2",
    "SELECT COUNT(*) FROM R WHERE state = 'CA' AND state = 'NY'",
    "SELECT COUNT(*) FROM R WHERE state = 'ZZ'",
    "SELECT COUNT(*) FROM R WHERE hour = 99",
    "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6 AND hour = 7",
]


def canonical_of(schema, text) -> CanonicalPredicate:
    return canonicalize_conditions(schema, parse_query(text).conditions)


class TestCanonicalKeys:
    @pytest.mark.parametrize("left,right", EQUIVALENT_TEXTS)
    def test_equivalent_texts_share_one_key(self, schema, left, right):
        assert canonical_of(schema, left).key == canonical_of(schema, right).key

    def test_different_predicates_differ(self, schema):
        keys = {
            canonical_of(
                schema, f"SELECT COUNT(*) FROM R WHERE hour = {value}"
            ).key
            for value in range(HOURS)
        }
        assert len(keys) == HOURS

    @pytest.mark.parametrize("text", CONTRADICTIONS)
    def test_contradictions_share_the_empty_key(self, schema, text):
        canonical = canonical_of(schema, text)
        assert canonical.is_empty
        assert canonical.key == EMPTY_KEY

    def test_trivial_predicate(self, schema):
        canonical = canonical_of(schema, "SELECT COUNT(*) FROM R")
        assert canonical.is_trivial
        assert canonical.key == ()

    def test_canonical_is_hashable_and_eq(self, schema):
        a = canonical_of(schema, "SELECT COUNT(*) FROM R WHERE hour >= 3 AND hour <= 6")
        b = canonical_of(schema, "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6")
        assert a == b
        assert hash(a) == hash(b)

    def test_conjunction_canonicalization_matches_sql(self, schema):
        # A contiguous SetPredicate and the matching RangePredicate
        # collapse to one canonical form.
        from_set = canonicalize_conjunction(
            Conjunction(schema, {"hour": SetPredicate([3, 4, 5, 6])})
        )
        from_range = canonicalize_conjunction(
            Conjunction(schema, {"hour": RangePredicate(3, 6)})
        )
        sql = canonical_of(
            schema, "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6"
        )
        assert from_set.key == from_range.key == sql.key

    @settings(max_examples=40, deadline=None)
    @given(
        low=st.integers(min_value=0, max_value=HOURS - 1),
        high=st.integers(min_value=0, max_value=HOURS - 1),
    )
    def test_between_equals_bounds_pair_property(self, schema, low, high):
        """Property: BETWEEN l AND h ≡ (hour >= l AND hour <= h) for
        every bound pair; reversed bounds via two comparisons are a
        contradiction (BETWEEN itself rejects them at parse time)."""
        split = canonicalize_conditions(
            schema,
            [Condition("hour", ">=", [low]), Condition("hour", "<=", [high])],
        )
        if low > high:
            assert split.is_empty
            return
        between = canonicalize_conditions(
            schema, [Condition("hour", "between", [low, high])]
        )
        assert between.key == split.key
        assert not split.is_empty

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=HOURS - 1),
            min_size=1,
            max_size=6,
        ),
        seed=st.randoms(use_true_random=False),
    )
    def test_in_list_order_and_duplicates_property(self, schema, values, seed):
        """Property: IN lists canonicalize independently of order and
        multiplicity."""
        shuffled = list(values)
        seed.shuffle(shuffled)
        original = canonicalize_conditions(
            schema, [Condition("hour", "in", values)]
        )
        doubled = canonicalize_conditions(
            schema, [Condition("hour", "in", shuffled + shuffled)]
        )
        assert original.key == doubled.key


class TestIdenticalAnswers:
    @pytest.mark.parametrize("left,right", EQUIVALENT_TEXTS)
    def test_equivalent_texts_identical_answers(self, sessions, left, right):
        for explorer in sessions.values():
            assert explorer.count(left) == explorer.count(right)

    def test_exact_answers_match_ground_truth(self, sessions, relation):
        hours = relation.column("hour")
        expected = int(((hours >= 3) & (hours <= 6)).sum())
        for text in EQUIVALENT_TEXTS[0]:
            assert sessions["exact"].count(text) == expected

    @pytest.mark.parametrize("text", CONTRADICTIONS)
    def test_contradictions_answer_zero_everywhere(self, sessions, text):
        for explorer in sessions.values():
            assert explorer.count(text) == 0.0

    def test_four_surfaces_one_canonical_key(self, relation, summary):
        """Explorer.run, Explorer.sql, the fluent builder, and the
        harness's conjunctions all normalize to one key."""
        explorer = Explorer.attach(summary)
        sql_plan = explorer.plan(
            "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6"
        )
        fluent_plan = explorer.plan(
            explorer.query().where(hour__between=(3, 6))
        )
        conjunction_plan = explorer.planner.plan_conjunction(
            Conjunction(relation.schema, {"hour": RangePredicate(3, 6)})
        )
        assert (
            sql_plan.predicate.key
            == fluent_plan.predicate.key
            == conjunction_plan.predicate.key
        )
        assert (
            explorer.sql("SELECT COUNT(*) FROM R WHERE hour >= 3 AND hour <= 6").scalar
            == explorer.query().where(hour__between=(3, 6)).value()
            == explorer.count(
                Conjunction(relation.schema, {"hour": RangePredicate(3, 6)})
            )
        )


class _SpyBackend(ExactBackend):
    """Exact backend that counts how often the model is invoked."""

    def __init__(self, relation):
        super().__init__(relation)
        self.calls = 0

    def count(self, predicate):
        self.calls += 1
        return super().count(predicate)

    def group_counts(self, attrs, predicate):
        self.calls += 1
        return super().group_counts(attrs, predicate)

    def sum_values(self, attr, weights, predicate):
        self.calls += 1
        return super().sum_values(attr, weights, predicate)


class TestContradictionShortCircuit:
    def test_no_backend_invocation(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        for text in CONTRADICTIONS:
            assert explorer.count(text) == 0.0
        assert backend.calls == 0

    def test_grouped_contradiction_returns_no_rows(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        result = explorer.sql(
            "SELECT state, COUNT(*) FROM R WHERE hour >= 5 AND hour <= 2 "
            "GROUP BY state"
        )
        assert result.rows == []
        assert backend.calls == 0

    def test_avg_over_contradiction_fails_cleanly(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        with pytest.raises(QueryError, match="AVG undefined"):
            explorer.sql("SELECT AVG(hour) FROM R WHERE hour = 99")
        assert backend.calls == 0

    def test_sum_over_contradiction_is_zero(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        assert explorer.sql(
            "SELECT SUM(hour) FROM R WHERE hour = 99"
        ).scalar == 0.0
        assert backend.calls == 0

    def test_batched_contradictions_skip_backend(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        results = explorer.run_many(CONTRADICTIONS)
        assert [result.scalar for result in results] == [0.0] * len(
            CONTRADICTIONS
        )
        assert backend.calls == 0


class TestResultCacheAcrossVariants:
    def test_variant_texts_hit_one_cache_entry(self, summary):
        explorer = Explorer.attach(summary)
        first = explorer.sql("SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6")
        second = explorer.sql(
            "SELECT COUNT(*) FROM R WHERE hour >= 3 AND hour <= 6"
        )
        assert second is first  # one canonical key → one cache entry
        assert explorer.cache_info()["results"]["hits"] == 1

    def test_run_many_dedupes_equivalent_queries(self, relation):
        backend = _SpyBackend(relation)
        explorer = Explorer.attach(backend)
        results = explorer.run_many(
            [
                "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6",
                "SELECT COUNT(*) FROM R WHERE hour >= 3 AND hour <= 6",
                "SELECT COUNT(*) FROM R WHERE hour <= 6 AND hour >= 3",
            ]
        )
        assert len({result.scalar for result in results}) == 1
        assert backend.calls == 1


class TestRouting:
    def test_exact_route(self, relation):
        plan = Explorer.attach(relation).plan(
            "SELECT COUNT(*) FROM R WHERE hour = 3"
        )
        assert plan.route.target == "exact"
        assert plan.route.cost == relation.num_rows

    def test_summary_route_costs_terms(self, summary):
        plan = Explorer.attach(summary).plan(
            "SELECT COUNT(*) FROM R WHERE hour = 3"
        )
        assert plan.route.target == "summary"
        assert plan.route.cost == summary.polynomial.num_terms
        assert plan.route.batched

    def test_sharded_route_prunes(self, sharded):
        explorer = Explorer.attach(sharded)
        # The 2 shards split hour's domain into two contiguous ranges;
        # a point query on hour can only live in one of them.
        plan = explorer.plan("SELECT COUNT(*) FROM R WHERE hour = 0")
        assert plan.route.target == "sharded"
        assert len(plan.route.detail["live_shards"]) == 1
        assert len(plan.route.detail["pruned_shards"]) == 1
        unconstrained = explorer.plan("SELECT COUNT(*) FROM R")
        assert len(unconstrained.route.detail["live_shards"]) == 2

    def test_cached_sharded_detail_is_safe_across_threads(self, sharded):
        # A cached plan is shared: the cluster's executor thread reads
        # route.detail while the slow log renders explain() on the loop,
        # and the first readers race to resolve the lazy detail.
        import sys
        import threading

        explorer = Explorer.attach(sharded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for hour in range(HOURS):
                text = f"SELECT COUNT(*) FROM R WHERE hour = {hour}"
                plan = explorer.plan(text)
                assert explorer.plan(text) is plan
                barrier = threading.Barrier(8, timeout=10)
                seen, errors = [], []

                def read():
                    try:
                        barrier.wait()
                        detail = plan.route.detail
                        seen.append(
                            (detail["live_shards"], detail["pruned_shards"])
                        )
                    except BaseException as error:
                        errors.append(error)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors[0]
                assert len(seen) == 8 and len(set(seen)) == 1
                live, pruned = seen[0]
                assert len(live) == 1 and len(pruned) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_contradiction_routes_nowhere(self, summary):
        plan = Explorer.attach(summary).plan(
            "SELECT COUNT(*) FROM R WHERE hour = 99"
        )
        assert plan.route.target == "none"

    def test_live_shards_matches_merge_math(self, sharded, relation):
        hours = relation.column("hour")
        for hour in range(HOURS):
            predicate = Conjunction(
                relation.schema, {"hour": RangePredicate.point(hour)}
            )
            live = sharded.live_shards(predicate)
            assert len(live) == 1
            merged = sharded.estimate(predicate)
            expected = int((hours == hour).sum())
            assert merged.expectation == pytest.approx(
                expected, rel=0.25, abs=8
            )


class TestExplain:
    def test_stages_present(self, summary):
        text = Explorer.attach(summary).explain(
            "SELECT COUNT(*) FROM R WHERE hour BETWEEN 3 AND 6"
        )
        assert "normalize:" in text
        assert "route:" in text
        assert "execute:" in text
        assert "ScalarCount" in text

    def test_contradiction_explain(self, relation):
        text = Explorer.attach(relation).explain(
            "SELECT COUNT(*) FROM R WHERE hour >= 5 AND hour <= 2"
        )
        assert "contradiction" in text
        assert "O(1)" in text

    def test_sharded_explain_shows_pruning(self, sharded):
        text = Explorer.attach(sharded).explain(
            "SELECT COUNT(*) FROM R WHERE hour = 0"
        )
        assert "1 pruned" in text

    def test_grouped_explain(self, relation):
        text = Explorer.attach(relation).explain(
            "SELECT state, COUNT(*) FROM R GROUP BY state"
        )
        assert "GroupBy" in text

    def test_engine_explain_matches_explorer(self, relation):
        sql = "SELECT COUNT(*) FROM R WHERE hour = 3"
        planner = Planner(ExactBackend(relation))
        assert planner.explain(sql) == Explorer.attach(relation).explain(sql)


class TestPlannerDirect:
    def test_plan_conjunction_trivial(self, relation):
        planner = Planner(ExactBackend(relation))
        plan = planner.plan_conjunction(None)
        assert plan.predicate.is_trivial
        assert planner.execute(plan).scalar == relation.num_rows

    def test_merged_range_intersection(self, schema):
        canonical = canonicalize_conditions(
            schema,
            [
                Condition("hour", ">=", [2]),
                Condition("hour", "<=", [5]),
                Condition("hour", "!=", [5]),
            ],
        )
        assert canonical.key == (
            (1, ("range", 2, 4)),
        )

    def test_empty_conjunction_roundtrip_raises(self, schema):
        canonical = canonicalize_conditions(
            schema, [Condition("hour", ">=", [5]), Condition("hour", "<=", [2])]
        )
        with pytest.raises(QueryError, match="contradictory"):
            canonical.to_conjunction()


class TestSharedPlanMasks:
    """A cached plan is shared across threads: the masks its conjunction
    hands out are built once, read-only, and answer bit for bit what
    freshly built masks answer."""

    TEXTS = [
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 2 AND 5 AND state != 'NY'",
        "SELECT COUNT(*) FROM R WHERE state IN ('CA', 'WA') AND hour >= 3",
        "SELECT COUNT(*) FROM R WHERE hour = 6",
        "SELECT SUM(hour) FROM R WHERE state = 'NY'",
        "SELECT state, COUNT(*) FROM R WHERE hour < 4 GROUP BY state",
    ]

    @pytest.fixture(scope="class")
    def m8(self, relation):
        partition = partition_relation(relation, 8)
        return ShardedSummary.fit_partitions(
            partition, max_iterations=40, name="m8", workers=1
        )

    def test_masks_are_built_once_and_read_only(self, summary):
        plan = Explorer.attach(summary).plan(self.TEXTS[0])
        masks = plan.conjunction().attribute_masks()
        assert sorted(masks) == [0, 1]
        for pos, mask in masks.items():
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
            assert plan.conjunction().attribute_masks()[pos] is mask

    def test_answers_equal_fresh_masks_bitwise(self, summary, m8):
        for model in (summary, m8):
            explorer = Explorer.attach(model)
            schema = model.schema
            for text in self.TEXTS:
                conjunction = explorer.plan(text).conjunction()
                shared = conjunction.attribute_masks()
                fresh = {
                    pos: conjunction.predicate_at(pos).mask(schema.domain(pos).size)
                    for pos in conjunction.constrained_positions
                }
                assert all(mask.flags.writeable for mask in fresh.values())
                arena = model.arena
                answers = []
                for masks in (shared, fresh):
                    arena.clear_cache()
                    answers.append(
                        (
                            arena.estimate_masks_batch([masks]),
                            arena.sum_estimate(1, np.arange(HOURS, dtype=float), masks),
                            arena.group_by([0], masks),
                        )
                    )
                assert answers[0] == answers[1]
