"""The query planner: one planning layer under every query surface.

EntropyDB's core claim (Sec 4.2) is that a counting query is one cheap
polynomial evaluation.  Everything around that evaluation — resolving
labels to index selections, merging intervals, deciding which backend (or
which shards) to touch, batching compatible queries — is planning, and
it lives here exactly once.  The Explorer (and through it the CLI and
the server), and the evaluation harness all build :class:`QueryPlan`
objects through a :class:`Planner` and run them through the shared
operators in :mod:`repro.plan.operators`.  A plan depends only on the
query and the backend, so the Explorer caches one per SQL text; the
planner itself caches nothing.

A plan has three stages, visible via :meth:`QueryPlan.explain`:

1. **normalize** — interval algebra over the parsed conditions produces
   a hashable :class:`~repro.plan.canonical.CanonicalPredicate`
   (contradictions short-circuit to ``0`` here);
2. **route** — a cost/capability model picks the execution target and
   decides batching and shard pruning
   (:func:`~repro.plan.router.route_query`);
3. **execute** — one of the shared physical operators runs against the
   backend.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import QueryError
from repro.plan.canonical import (
    CanonicalPredicate,
    canonicalize_conditions,
    canonicalize_conjunction,
)
from repro.plan.operators import execute_batch, pick_operator
from repro.plan.router import Route, route_query
from repro.query.ast import CountQuery
from repro.query.parser import parse_query
from repro.query.results import QueryResult
from repro.stats.predicates import Conjunction


class QueryPlan:
    """One planned query: canonical predicate, route, operator.

    ``cache_key`` is hashable and *semantic* — two syntactic variants of
    one query (``BETWEEN 3 AND 7`` vs ``x >= 3 AND x <= 7``, reordered
    conjuncts) plan to equal keys, so result caches collapse them.
    """

    __slots__ = ("query", "predicate", "route", "operator", "cache_key")

    def __init__(
        self,
        query: CountQuery,
        predicate: CanonicalPredicate,
        route: Route,
        operator,
    ):
        self.query = query
        self.predicate = predicate
        self.route = route
        self.operator = operator
        self.cache_key = (
            query.table.lower(),
            query.aggregate,
            query.aggregate_attr,
            predicate.key,
            tuple(query.group_by),
            query.order,
            query.limit,
        )

    # -- predicate views --------------------------------------------------
    def conjunction(self) -> Conjunction:
        """Executable conjunction (trivial when unconstrained)."""
        return self.predicate.to_conjunction()

    def conjunction_or_none(self) -> Conjunction | None:
        """Executable conjunction, or None when unconstrained (the
        form ``group_counts``/``sum_values`` backends expect)."""
        if self.predicate.is_trivial:
            return None
        return self.predicate.to_conjunction()

    # -- introspection ----------------------------------------------------
    def explain(self) -> str:
        """The three planning stages, one line each."""
        return (
            f"plan for: {self.query!r}\n"
            f"  normalize: {self.predicate.describe()}\n"
            f"  route:     {self.route.describe()}\n"
            f"  execute:   {self.operator.describe()}"
        )

    def __repr__(self):
        return (
            f"QueryPlan({self.operator.name} via {self.route.target}, "
            f"{self.predicate.describe()})"
        )


class Planner:
    """Plans and executes queries against one backend."""

    def __init__(self, backend, table_name: str = "R"):
        self.backend = backend
        self.table_name = table_name

    # -- normalize --------------------------------------------------------
    def parse(self, query: "CountQuery | str") -> CountQuery:
        """Parse SQL text (if needed) and validate it for this backend."""
        if isinstance(query, str):
            query = parse_query(query)
        if query.table.lower() != self.table_name.lower():
            raise QueryError(
                f"unknown table {query.table!r}; this engine serves "
                f"{self.table_name!r}"
            )
        for attr in query.group_by:
            self.backend.schema.position(attr)  # raises on unknown attributes
        return query

    def normalize(self, query: CountQuery) -> CanonicalPredicate:
        """Canonicalize a validated query's WHERE clause."""
        return canonicalize_conditions(self.backend.schema, query.conditions)

    # -- plan -------------------------------------------------------------
    def plan(
        self,
        query: "CountQuery | str",
        predicate: CanonicalPredicate | None = None,
    ) -> QueryPlan:
        """Full planning pass: parse/validate → normalize → route.

        Callers that ran the first two stages already (the Explorer, to
        time the stages apart) pass the validated :class:`CountQuery`
        with its :class:`CanonicalPredicate`, and only routing runs.
        """
        if predicate is None:
            query = self.parse(query)
            predicate = self.normalize(query)
        route = route_query(self.backend, query, predicate)
        return QueryPlan(query, predicate, route, pick_operator(query, predicate))

    def plan_conjunction(self, conjunction: Conjunction | None) -> QueryPlan:
        """Plan a predicate-level scalar count (the harness's and the
        experiment drivers' entry point)."""
        predicate = canonicalize_conjunction(
            conjunction, schema=self.backend.schema
        )
        query = CountQuery(self.table_name)
        route = route_query(self.backend, query, predicate)
        return QueryPlan(query, predicate, route, pick_operator(query, predicate))

    # -- execute ----------------------------------------------------------
    def execute(self, plan: QueryPlan) -> QueryResult:
        """Run one plan through its physical operator."""
        return plan.operator.run(self.backend, plan)

    def execute_many(self, plans: Sequence[QueryPlan]) -> list[QueryResult]:
        """Run a batch of plans through the shared batched executor."""
        return execute_batch(self.backend, list(plans))

    def explain(self, query: "CountQuery | str") -> str:
        """Shortcut: plan and render the three stages."""
        return self.plan(query).explain()

    def __repr__(self):
        return f"Planner({self.backend!r}, table={self.table_name!r})"
