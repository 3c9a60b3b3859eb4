"""The :class:`Explorer` — one interactive exploration session.

The paper pitches probabilistic summaries as the engine behind
"human-speed" data exploration (Sec 1): an analyst attaches to a
dataset once, then fires many small counting queries.  The Explorer is
that session object.  It owns

* a :class:`~repro.api.backend.Backend` (exact relation, sample, or
  MaxEnt summary — anything goes),
* a :class:`~repro.plan.Planner` for text and programmatic queries —
  every query normalizes to a :class:`~repro.plan.CanonicalPredicate`,
  routes through the cost/capability model, and runs on the shared
  physical operators (``explain()`` shows the three stages),
* two LRU caches: *plans* keyed on the query itself (the SQL text, or
  the ``repr`` of an AST / fluent query), so a repeated query skips
  parsing, label resolution and routing; and *results* keyed on the
  plan's semantic :attr:`~repro.plan.QueryPlan.cache_key`, so
  syntactic variants like ``BETWEEN 3 AND 7`` vs ``x >= 3 AND x <= 7``
  share one answer,
* ``run_many()`` — batched execution through the planner's shared
  batched executor (one backend call per batch: the model's arena
  kernel once per query, whether the model is sharded or not).

Construction::

    ex = Explorer.attach(relation)                  # exact backend
    ex = Explorer.attach(summary, rounded=True)     # summary backend
    ex = Explorer.open(store, "flights", tag="v2")  # from a SummaryStore
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.api.query import Query
from repro.errors import QueryError, ReproError
from repro.obs import span
from repro.plan.planner import Planner, QueryPlan
from repro.query.ast import CountQuery
from repro.query.results import QueryResult
from repro.stats.predicates import Conjunction

#: Entries each of an Explorer's two LRUs (plans, results) keeps.
CACHE_SIZE = 256


class _LRUCache:
    """Tiny LRU map.

    Every operation is atomic under an internal lock: one Explorer may
    be shared across threads (the serving layer plans every client's
    queries through one), and an unguarded ``OrderedDict.move_to_end``
    racing a ``popitem`` corrupts the map.
    """

    __slots__ = ("maxsize", "data", "hits", "misses", "_lock")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            try:
                value = self.data[key]
            except KeyError:
                self.misses += 1
                return None
            self.data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self.data[key] = value
            self.data.move_to_end(key)
            while len(self.data) > self.maxsize:
                self.data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self.data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Size/hit/miss snapshot taken under the lock — reading the
        fields piecemeal from another thread can tear (a size from
        after an insert with hit counts from before it)."""
        with self._lock:
            return {
                "size": len(self.data),
                "hits": self.hits,
                "misses": self.misses,
            }


class _InFlight:
    """One in-progress execution other threads can wait on."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class Explorer:
    """Session facade over one backend: fluent queries, SQL, batching.

    One plan cache (query text → :class:`QueryPlan`) and one result
    cache (canonical key → :class:`QueryResult`), both sized by
    :data:`CACHE_SIZE`; the server plans every client through one
    Explorer per loaded model version."""

    def __init__(self, backend, *, table_name: str = "R"):
        if not hasattr(backend, "count"):
            raise ReproError(
                f"{type(backend).__name__} is not a query backend "
                "(no count method); use Explorer.attach() for relations "
                "and summaries"
            )
        self.backend = backend
        self.table_name = table_name
        self.planner = Planner(backend, table_name=table_name)
        self._plans = _LRUCache(CACHE_SIZE)
        self._results = _LRUCache(CACHE_SIZE)
        # Single-flight registry: concurrent threads asking the same
        # canonical query share one execution instead of racing to
        # recompute it (see execute()).
        self._inflight: dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        source,
        *,
        rounded: bool = False,
        table_name: str = "R",
    ) -> "Explorer":
        """Open a session on a relation, summary, backend, or Explorer.

        * ``Relation`` → exact full-scan backend,
        * ``EntropySummary`` or ``ShardedSummary`` → model backend
          (``rounded=True`` applies the paper's rounding of estimates
          below 0.5),
        * any :class:`~repro.api.backend.Backend` (or duck-typed object
          with ``count``) → used as is,
        * an ``Explorer`` → returned unchanged.
        """
        if isinstance(source, Explorer):
            return source
        # Imported lazily: these modules subclass Backend from this
        # package, so top-level imports would be circular.
        from repro.core.sharding import ShardedSummary
        from repro.core.summary import EntropySummary
        from repro.data.relation import Relation

        if isinstance(source, (EntropySummary, ShardedSummary)):
            from repro.query.backends import SummaryBackend

            backend = SummaryBackend(source, rounded=rounded)
        elif isinstance(source, Relation):
            from repro.baselines.exact import ExactBackend

            backend = ExactBackend(source)
        else:
            backend = source
        return cls(backend, table_name=table_name)

    @classmethod
    def open(
        cls,
        store,
        name: str,
        *,
        version: int | None = None,
        tag: str | None = None,
        rounded: bool = False,
        table_name: str = "R",
    ) -> "Explorer":
        """Open a session on a summary stored in a :class:`SummaryStore`
        (or a filesystem path to one)."""
        from repro.api.store import SummaryStore

        if not isinstance(store, SummaryStore):
            store = SummaryStore(store)
        summary = store.load(name, version=version, tag=tag)
        return cls.attach(summary, rounded=rounded, table_name=table_name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self.backend.schema

    @property
    def summary(self):
        """The underlying ``EntropySummary``/``ShardedSummary`` (None
        for non-model backends)."""
        return getattr(self.backend, "summary", None)

    def rounded(self, flag: bool = True) -> "Explorer":
        """A sibling session over the same summary with paper-style
        rounding toggled (summaries only)."""
        if self.summary is None:
            raise ReproError("rounded() requires a summary backend")
        return Explorer.attach(
            self.summary, rounded=flag, table_name=self.table_name
        )

    def describe(self) -> dict:
        """Backend capability card plus session cache statistics."""
        describe = getattr(self.backend, "describe", None)
        card = describe() if describe is not None else {
            "name": getattr(self.backend, "name", type(self.backend).__name__),
            "type": type(self.backend).__name__,
        }
        card["table"] = self.table_name
        card["cache"] = self.cache_info()
        return card

    def cache_info(self) -> dict:
        return {"plans": self._plans.stats(), "results": self._results.stats()}

    def clear_cache(self) -> None:
        """Drop the session caches (and the model caches, if any)."""
        self._plans.clear()
        self._results.clear()
        summary = self.summary
        if summary is not None:
            summary.clear_cache()

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self) -> Query:
        """Start a fluent query against this session."""
        return Query(self)

    def sql(self, text: str) -> QueryResult:
        """Execute SQL text (cached)."""
        return self.execute(text)

    def plan(self, query: "CountQuery | Query | str") -> QueryPlan:
        """The normalize → route → execute plan for a query (cached).

        A SQL text is its own cache key; an AST or fluent query keys on
        the ``repr`` of its :class:`CountQuery`, which spells every
        literal with its type, tagged so that a SQL text spelled like
        that ``repr`` never shares its entry.  Each stage annotates the
        ambient request trace when one is active (the serving path): a
        hit returns inside ``parse``, a miss adds ``canonicalize`` and
        ``route``.  Standalone use pays one ContextVar read per stage
        and no more."""
        with span("parse"):
            if isinstance(query, Query):
                query = query.to_ast()
            key = query if isinstance(query, str) else ("ast", repr(query))
            plan = self._plans.get(key)
            if plan is not None:
                return plan
            query = self.planner.parse(query)
        with span("canonicalize"):
            predicate = self.planner.normalize(query)
        with span("route"):
            plan = self.planner.plan(query, predicate=predicate)
        self._plans.put(key, plan)
        return plan

    def explain(self, query: "CountQuery | Query | str") -> str:
        """Render a query's plan: one line per planning stage."""
        return self.plan(query).explain()

    def execute(self, query: "CountQuery | Query | str") -> QueryResult:
        """Execute one query with plan + result caching.

        Results key on the plan's semantic cache key, so syntactic
        variants of one query (reordered conjuncts, ``BETWEEN`` vs
        ``>=``/``<=``) share one entry: a respelled text is a plan miss
        and a result hit.

        Thread-safe with *single-flight* semantics: when several
        threads miss on the same canonical key at once, exactly one
        runs the backend pass and the others block on its result — no
        double-compute, no cache corruption.  (The serving layer plans
        through a shared Explorer but evaluates through its own
        single-flight table; it never calls this method.)
        """
        plan = self.plan(query)
        key = plan.cache_key
        cached = self._results.get(key)
        if cached is not None:
            return cached
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _InFlight()
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        # Leadership won — but a previous leader may have completed
        # (cache put + registry pop) between our cache miss and our
        # registration.  Re-check before paying for the backend pass.
        cached = self._results.get(key)
        if cached is not None:
            flight.value = cached
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()
            return cached
        try:
            result = self.planner.execute(plan)
            self._results.put(key, result)
            flight.value = result
            return result
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def run_many(
        self, queries: Sequence["CountQuery | Query | str"]
    ) -> list[QueryResult]:
        """Execute a batch of queries, vectorizing where possible.

        Plans run through the planner's shared batched executor: all
        batchable scalar ``COUNT(*)`` plans go to a model backend as
        one batch (the model's arena runs its kernel once per query —
        parse, plan and cache work is shared); contradictions answer
        ``0`` without touching the backend; grouped and SUM/AVG queries
        run per-query.  Results come back in input order and populate
        the session cache like sequential ``run()`` calls.
        """
        plans = [self.plan(query) for query in queries]
        results: list[QueryResult | None] = [
            self._results.get(plan.cache_key) for plan in plans
        ]
        # Equivalent queries inside one batch share a cache key, so
        # each distinct key is evaluated once.
        pending: dict[tuple, list[int]] = {}
        for index, result in enumerate(results):
            if result is None:
                pending.setdefault(plans[index].cache_key, []).append(index)
        unique = [plans[indices[0]] for indices in pending.values()]
        for (key, indices), result in zip(
            pending.items(), self.planner.execute_many(unique)
        ):
            self._results.put(key, result)
            for index in indices:
                results[index] = result
        return results  # type: ignore[return-value]

    # -- predicate-level entry points (harness, experiments) ------------
    def count(self, query) -> float:
        """Scalar count of a SQL string, fluent query, or conjunction."""
        if isinstance(query, Conjunction):
            plan = self.planner.plan_conjunction(query)
            return float(self.planner.execute(plan).scalar)
        result = self.execute(query)
        if not result.is_scalar:
            raise QueryError("query is grouped; use execute()")
        return result.scalar

    def count_many(self, predicates: Sequence) -> list[float]:
        """Batched scalar counts.

        Accepts a list of :class:`Conjunction` (the harness's native
        currency) or of SQL/fluent queries.  Either way the batch runs
        through the planner's shared batched executor, so conjunctions
        get the same routing (shard pruning, vectorized backend passes)
        as SQL text.
        """
        predicates = list(predicates)
        if all(isinstance(item, Conjunction) for item in predicates):
            plans = [
                self.planner.plan_conjunction(item) for item in predicates
            ]
            return [
                float(result.scalar)
                for result in self.planner.execute_many(plans)
            ]
        values = []
        for result in self.run_many(predicates):
            if not result.is_scalar:
                raise QueryError("query is grouped; use run_many()")
            values.append(result.scalar)
        return values

    def estimate(self, predicate: Conjunction):
        """Full :class:`QueryEstimate` with error bounds (summaries only)."""
        estimator = getattr(self.backend, "estimate", None)
        if estimator is None:
            raise QueryError(
                f"backend {self.backend!r} does not expose model estimates"
            )
        return estimator(predicate)

    def group_counts(
        self, attrs: Sequence[str], predicate: Conjunction | None = None
    ) -> dict[tuple, float]:
        """Raw grouped counts by label combination (predicate-level)."""
        return self.backend.group_counts(attrs, predicate)

    def __repr__(self):
        return (
            f"Explorer({self.backend!r}, table={self.table_name!r})"
        )
