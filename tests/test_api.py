"""Tests for the session API: Explorer, fluent queries, SummaryBuilder,
and the Backend ABC."""

import numpy as np
import pytest

from repro.api import Backend, Explorer, SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.baselines.uniform import uniform_sample
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError, ReproError
from repro.query.backends import SummaryBackend


@pytest.fixture
def relation():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(3)
    states = rng.choice(3, size=300, p=[0.5, 0.3, 0.2])
    hours = rng.integers(0, 4, 300)
    return Relation(schema, [states, hours])


@pytest.fixture
def summary(relation):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(60)
        .name("api-test")
        .fit()
    )


# ----------------------------------------------------------------------
# SummaryBuilder
# ----------------------------------------------------------------------

class TestSummaryBuilder:
    def test_fit_matches_legacy_build(self, relation, summary):
        """``with_options`` takes the legacy keyword names and fits the
        same model as the fluent setters."""
        legacy = (
            SummaryBuilder(relation)
            .with_options(
                pairs=[("state", "hour")],
                per_pair_budget=4,
                max_iterations=60,
                name="api-test",
            )
            .fit()
        )
        assert legacy.total == summary.total
        assert legacy.statistic_set.one_dim == summary.statistic_set.one_dim
        assert [s.value for s in legacy.statistic_set.multi_dim] == [
            s.value for s in summary.statistic_set.multi_dim
        ]
        assert np.array_equal(legacy.params.deltas, summary.params.deltas)
        predicate_count = Explorer.attach(summary).query().where(state="CA")
        assert Explorer.attach(legacy).query().where(state="CA").value() == (
            pytest.approx(predicate_count.value())
        )

    def test_validation(self, relation):
        builder = SummaryBuilder(relation)
        with pytest.raises(ReproError):
            builder.strategy("nope")
        with pytest.raises(ReproError):
            builder.heuristic("nope")
        with pytest.raises(ReproError):
            builder.iterations(0)
        with pytest.raises(ReproError):
            builder.pairs(("only-one",))
        with pytest.raises(ReproError):
            builder.with_options(bogus_option=3)

    def test_pairs_accepts_iterable(self, relation):
        direct = SummaryBuilder(relation).pairs(("state", "hour"))
        from_list = SummaryBuilder(relation).pairs([("state", "hour")])
        assert direct._pairs == from_list._pairs == [("state", "hour")]

    def test_one_dim_only(self, relation):
        no2d = SummaryBuilder(relation).iterations(20).fit()
        assert no2d.statistic_set.num_multi_dim == 0


# ----------------------------------------------------------------------
# Fluent queries vs raw SQL
# ----------------------------------------------------------------------

class TestFluentEquivalence:
    CASES = [
        (
            lambda q: q.where(state="CA"),
            "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        ),
        (
            lambda q: q.where(hour__ge=2),
            "SELECT COUNT(*) FROM R WHERE hour >= 2",
        ),
        (
            lambda q: q.where(state__in=("CA", "NY"), hour__between=(1, 2)),
            "SELECT COUNT(*) FROM R WHERE state IN ('CA', 'NY') "
            "AND hour BETWEEN 1 AND 2",
        ),
        (
            lambda q: q.where(state__ne="CA"),
            "SELECT COUNT(*) FROM R WHERE state != 'CA'",
        ),
    ]

    @pytest.mark.parametrize("build,sql", CASES)
    def test_scalar_counts_match_sql(self, relation, summary, build, sql):
        for source in (relation, summary):
            explorer = Explorer.attach(source)
            raw_engine = Explorer(explorer.backend, table_name="R")
            assert build(explorer.query()).value() == pytest.approx(
                raw_engine.count(sql)
            )

    def test_grouped_matches_sql(self, relation):
        explorer = Explorer.attach(relation)
        fluent = (
            explorer.query()
            .where(hour__ge=1)
            .group_by("state")
            .order("desc")
            .limit(2)
            .run()
        )
        raw = Explorer(ExactBackend(relation), table_name="R").execute(
            "SELECT state, COUNT(*) AS cnt FROM R WHERE hour >= 1 "
            "GROUP BY state ORDER BY cnt DESC LIMIT 2"
        )
        assert fluent.to_rows() == raw.to_rows()

    def test_group_and_where_same_attribute(self, relation):
        explorer = Explorer.attach(relation)
        result = (
            explorer.query()
            .where(state__in=("CA", "WA"))
            .group_by("state")
            .run()
        )
        assert {labels for labels, _ in result.to_dict().items()} == {
            "CA", "WA",
        }

    def test_sum_and_avg(self, relation, summary):
        exact = Explorer.attach(relation)
        approx = Explorer.attach(summary)
        exact_sum = exact.query().sum("hour").where(state="CA").value()
        raw = Explorer(ExactBackend(relation), table_name="R").count
        # hour labels are their numeric values, so SUM is well-defined.
        assert exact_sum == pytest.approx(
            sum(
                hour * raw(f"SELECT COUNT(*) FROM R WHERE state = 'CA' AND hour = {hour}")
                for hour in range(4)
            )
        )
        approx_avg = approx.query().avg("hour").value()
        assert 0.0 <= approx_avg <= 3.0

    def test_bad_lookup_rejected(self, relation):
        explorer = Explorer.attach(relation)
        with pytest.raises(QueryError):
            explorer.query().where(hour__between=(1, 2, 3))
        with pytest.raises(QueryError):
            explorer.query().where("not-a-condition")

    def test_value_on_grouped_rejected(self, relation):
        explorer = Explorer.attach(relation)
        with pytest.raises(QueryError, match="grouped"):
            explorer.query().group_by("state").value()


# ----------------------------------------------------------------------
# Explorer sessions
# ----------------------------------------------------------------------

class TestExplorer:
    def test_attach_variants(self, relation, summary):
        assert Explorer.attach(relation).backend.is_exact
        assert not Explorer.attach(summary).backend.is_exact
        backend = ExactBackend(relation)
        assert Explorer.attach(backend).backend is backend
        explorer = Explorer.attach(relation)
        assert Explorer.attach(explorer) is explorer
        with pytest.raises(ReproError):
            Explorer.attach(object())

    def test_summary_property(self, relation, summary):
        assert Explorer.attach(summary).summary is summary
        assert Explorer.attach(relation).summary is None

    def test_rounded_view(self, relation, summary):
        explorer = Explorer.attach(summary)
        rounded = explorer.rounded()
        value = rounded.query().where(state="WA", hour=3).value()
        assert value == int(value)
        with pytest.raises(ReproError):
            Explorer.attach(relation).rounded()

    def test_error_bounds_on_summary_results(self, summary):
        result = Explorer.attach(summary).query().where(state="CA").run()
        assert result.std is not None and result.std > 0
        low, high = result.ci95
        assert low <= result.scalar <= high
        as_dict = result.to_dict()
        assert set(as_dict) == {"count", "std", "ci95"}

    def test_no_error_bounds_on_exact_results(self, relation):
        result = Explorer.attach(relation).query().where(state="CA").run()
        assert result.std is None and result.ci95 is None
        assert set(result.to_dict()) == {"count"}

    def test_result_cache_hits(self, summary):
        explorer = Explorer.attach(summary)
        first = explorer.sql("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        second = explorer.sql("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        assert second is first  # served from the session cache
        assert explorer.cache_info()["results"]["hits"] == 1
        explorer.clear_cache()
        assert explorer.cache_info()["results"]["hits"] == 0
        assert explorer.cache_info()["plans"]["size"] == 0

    def test_group_by_results_cached(self, relation):
        explorer = Explorer.attach(relation)
        query = explorer.query().group_by("state").order("desc")
        assert query.run() is query.run()

    def test_cache_info_sections_are_locked_snapshots(self, summary):
        # Regression: cache_info() used to read size/hits/misses field
        # by field without the cache lock; each section now comes from
        # one _LRUCache.stats() snapshot.
        explorer = Explorer.attach(summary)
        explorer.sql("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        info = explorer.cache_info()
        assert set(info) == {"plans", "results"}
        for section in info.values():
            assert set(section) == {"size", "hits", "misses"}
            assert all(value >= 0 for value in section.values())

    def test_describe(self, summary):
        card = Explorer.attach(summary).describe()
        assert card["supports_sum"] is True
        assert card["is_exact"] is False
        assert card["table"] == "R"

    def test_table_name_respected(self, relation):
        explorer = Explorer.attach(relation, table_name="Flights")
        assert explorer.count("SELECT COUNT(*) FROM Flights") == 300
        with pytest.raises(QueryError, match="unknown table"):
            explorer.sql("SELECT COUNT(*) FROM R")


class TestPlanCache:
    """One plan per query text: a repeated query skips every planning
    stage; results still key on the canonical form."""

    @staticmethod
    def _spy_normalize(explorer, monkeypatch):
        calls = []
        normalize = explorer.planner.normalize

        def spy(query):
            calls.append(query)
            return normalize(query)

        monkeypatch.setattr(explorer.planner, "normalize", spy)
        return calls

    def test_repeated_text_normalizes_once(self, summary, monkeypatch):
        explorer = Explorer.attach(summary)
        calls = self._spy_normalize(explorer, monkeypatch)
        sql = "SELECT COUNT(*) FROM R WHERE state = 'CA' AND hour >= 1"
        plans = {id(explorer.plan(sql)) for _ in range(3)}
        explorer.sql(sql)
        assert len(calls) == 1
        assert len(plans) == 1

    def test_repeated_fluent_query_normalizes_once(self, summary, monkeypatch):
        explorer = Explorer.attach(summary)
        calls = self._spy_normalize(explorer, monkeypatch)
        for _ in range(3):
            explorer.query().where(state__in=("CA", "NY"), hour=2).run()
        assert len(calls) == 1

    def test_respelled_text_is_plan_miss_and_result_hit(self, summary):
        explorer = Explorer.attach(summary)
        first = explorer.sql("SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2")
        second = explorer.sql(
            "SELECT COUNT(*) FROM R WHERE hour >= 1 AND hour <= 2"
        )
        assert second is first
        info = explorer.cache_info()
        assert info["plans"] == {"size": 2, "hits": 0, "misses": 2}
        assert (info["results"]["size"], info["results"]["hits"]) == (1, 1)

    def test_failed_plan_is_not_cached(self, relation):
        explorer = Explorer.attach(relation)
        for _ in range(2):
            with pytest.raises(QueryError, match="unknown table"):
                explorer.sql("SELECT COUNT(*) FROM other")
        assert explorer.cache_info()["plans"]["size"] == 0


class TestRunMany:
    def queries(self, explorer):
        return [
            explorer.query().where(state="CA"),
            explorer.query().where(state="NY", hour__ge=2),
            "SELECT COUNT(*) FROM R WHERE hour = 0",
            explorer.query().group_by("state").order("desc"),
            explorer.query().where(hour__between=(1, 3)),
            explorer.query().where(state__in=("NY", "WA")),
            explorer.query().where(state="WA", hour=1),
            explorer.query().where(hour__le=2),
            "SELECT COUNT(*) FROM R",
        ]

    @pytest.mark.parametrize("source", ["relation", "summary"])
    def test_matches_sequential_run(self, relation, summary, source):
        origin = {"relation": relation, "summary": summary}[source]
        batched = Explorer.attach(origin)
        sequential = Explorer.attach(origin)
        batch_results = batched.run_many(self.queries(batched))
        seq_results = [
            sequential.execute(q if isinstance(q, str) else q.to_ast())
            for q in self.queries(sequential)
        ]
        assert len(batch_results) == len(seq_results) == 9
        for got, want in zip(batch_results, seq_results):
            if want.is_scalar:
                assert got.scalar == pytest.approx(want.scalar)
            else:
                assert got.to_rows() == want.to_rows()

    def test_populates_cache(self, summary):
        explorer = Explorer.attach(summary)
        queries = self.queries(explorer)
        explorer.run_many(queries)
        info = explorer.cache_info()["results"]
        assert info["size"] == 9
        explorer.run_many(queries)
        assert explorer.cache_info()["results"]["hits"] >= 9

    def test_batch_carries_error_bounds(self, summary):
        explorer = Explorer.attach(summary)
        results = explorer.run_many(
            [explorer.query().where(state="CA"), explorer.query().where(state="NY")]
        )
        assert all(result.std is not None for result in results)

    def test_count_many_conjunctions(self, relation, summary):
        from repro.stats.predicates import Conjunction, RangePredicate

        schema = relation.schema
        predicates = [
            Conjunction(schema, {"state": RangePredicate.point(index)})
            for index in range(3)
        ]
        exact = Explorer.attach(relation).count_many(predicates)
        assert exact == [float(c) for c in relation.marginal("state")]
        approx = Explorer.attach(summary).count_many(predicates)
        assert len(approx) == 3
        assert approx == pytest.approx(exact, rel=0.25, abs=6)


# ----------------------------------------------------------------------
# Backend ABC
# ----------------------------------------------------------------------

class TestBackendABC:
    def test_concrete_backends_subclass(self, relation, summary):
        assert isinstance(ExactBackend(relation), Backend)
        assert isinstance(SummaryBackend(summary), Backend)
        assert isinstance(uniform_sample(relation, fraction=0.2, seed=1), Backend)

    def test_capability_flags(self, relation, summary):
        exact = ExactBackend(relation)
        assert exact.is_exact and exact.supports_sum
        model = SummaryBackend(summary)
        assert not model.is_exact and model.supports_sum
        sample = uniform_sample(relation, fraction=0.2, seed=1)
        assert not sample.is_exact and sample.supports_sum

    def test_abstract_methods_required(self):
        with pytest.raises(TypeError):
            Backend()  # type: ignore[abstract]

    def test_default_sum_values_raises(self, relation):
        class CountOnly(Backend):
            supports_sum = False

            def __init__(self, inner):
                self.inner = inner
                self.schema = inner.schema
                self.name = "count-only"

            def count(self, predicate):
                return self.inner.count(predicate)

            def group_counts(self, attrs, predicate):
                return self.inner.group_counts(attrs, predicate)

        backend = CountOnly(ExactBackend(relation))
        with pytest.raises(QueryError, match="SUM/AVG"):
            backend.sum_values("hour", [0, 1, 2, 3], None)
        explorer = Explorer.attach(backend)
        with pytest.raises(QueryError, match="SUM/AVG"):
            explorer.sql("SELECT SUM(hour) FROM R")
        # Counting still works, including the default batched path.
        assert explorer.count("SELECT COUNT(*) FROM R") == 300

    def test_default_count_many_loops(self, relation):
        from repro.stats.predicates import Conjunction, RangePredicate

        backend = ExactBackend(relation)
        predicates = [
            Conjunction(relation.schema, {"hour": RangePredicate.point(h)})
            for h in range(4)
        ]
        assert backend.count_many(predicates) == [
            backend.count(p) for p in predicates
        ]

    def test_describe(self, relation):
        card = ExactBackend(relation).describe()
        assert card == {
            "name": "exact",
            "type": "ExactBackend",
            "supports_sum": True,
            "is_exact": True,
        }


# ----------------------------------------------------------------------
# Thread safety: one Explorer shared across threads
# ----------------------------------------------------------------------

class _SlowSpyBackend(Backend):
    """Counts backend invocations; sleeps to widen race windows."""

    is_exact = True

    def __init__(self, relation, delay=0.002):
        from repro.baselines.exact import ExactBackend as _Exact

        self.inner = _Exact(relation)
        self.schema = relation.schema
        self.name = "slow-spy"
        self.delay = delay
        self.calls = 0
        self._lock = __import__("threading").Lock()

    def _tick(self):
        import time

        with self._lock:
            self.calls += 1
        time.sleep(self.delay)

    def count(self, predicate):
        self._tick()
        return self.inner.count(predicate)

    def group_counts(self, attrs, predicate):
        self._tick()
        return self.inner.group_counts(attrs, predicate)


class TestExplorerThreadSafety:
    """Regression: PR 4 made the per-session LRU caches lock-guarded
    and gave execute() single-flight semantics.  Before that, hammering
    one Explorer from threads corrupted the OrderedDicts (KeyError on
    move_to_end) and recomputed one query once per thread."""

    QUERIES = [
        "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        "SELECT COUNT(*) FROM R WHERE state = 'NY' AND hour >= 1",
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2",
        "SELECT COUNT(*) FROM R GROUP BY state",
    ]

    def test_eight_threads_no_corruption_no_double_compute(self, relation):
        import threading

        backend = _SlowSpyBackend(relation)
        explorer = Explorer.attach(backend)
        expected = {
            sql: Explorer.attach(ExactBackend(relation)).execute(sql).to_dict()
            for sql in self.QUERIES
        }

        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def hammer(seed):
            try:
                barrier.wait()
                for index in range(40):
                    sql = self.QUERIES[(seed + index) % len(self.QUERIES)]
                    result = explorer.execute(sql)
                    assert result.to_dict() == expected[sql]
            except BaseException as error:  # propagated to the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        # Single-flight: each of the 4 distinct queries ran exactly once
        # (all 8 threads start together on the same first-query window,
        # so without single-flight this is reliably > 4).
        assert backend.calls == len(self.QUERIES)
        info = explorer.cache_info()
        assert info["results"]["size"] == len(self.QUERIES)

    def test_concurrent_distinct_queries_all_correct(self, relation, monkeypatch):
        import threading

        from repro.api import explorer as explorer_module

        monkeypatch.setattr(explorer_module, "CACHE_SIZE", 2)  # force evictions
        backend = _SlowSpyBackend(relation, delay=0.0005)
        explorer = Explorer.attach(backend)
        reference = Explorer.attach(ExactBackend(relation))
        queries = [
            f"SELECT COUNT(*) FROM R WHERE hour >= {h} AND state = '{s}'"
            for h in range(4)
            for s in ("CA", "NY", "WA")
        ]
        expected = {sql: reference.execute(sql).scalar for sql in queries}
        errors: list[BaseException] = []

        def hammer(offset):
            try:
                for index in range(3 * len(queries)):
                    sql = queries[(offset * 5 + index) % len(queries)]
                    assert explorer.execute(sql).scalar == expected[sql]
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
