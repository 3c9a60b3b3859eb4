"""Physical operators: the execute stage of the query planner.

One small set of operators runs every query of every surface — the SQL
engine, the Explorer (``run``/``run_many``/``sql``), the CLI, and the
evaluation harness all hand their plans to these instead of keeping
per-surface dispatch code:

* :class:`EmptyOp` — contradiction short-circuit: answers without
  touching any backend (``COUNT``/``SUM`` → 0, ``GROUP BY`` → no rows,
  ``AVG`` → a clean error, since 0/0 is undefined);
* :class:`ScalarCountOp` — one ``COUNT(*)``, carrying the model's
  error bounds when the backend exposes estimates;
* :class:`GroupByOp` — grouped counts with model-side grouping,
  plus ORDER BY/LIMIT post-processing;
* :class:`AggregateOp` — ``SUM``/``AVG`` as weighted linear queries
  (AVG is the ratio estimator SUM/COUNT);
* :func:`execute_batch` — the shared batched executor: groups the
  compatible scalar-count plans of a batch into one vectorized
  ``estimate_many``/``count_many`` backend pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import QueryError
from repro.query.results import QueryResult, ordered_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.planner import QueryPlan


class Operator:
    """One physical operator; ``run`` executes against a backend."""

    name = "operator"

    def run(self, backend, plan: "QueryPlan") -> QueryResult:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def __repr__(self):
        return f"<{self.describe()}>"


class EmptyOp(Operator):
    """O(1) answer for a contradictory predicate — no backend call."""

    name = "Empty"

    def run(self, backend, plan: "QueryPlan") -> QueryResult:
        query = plan.query
        if query.aggregate == "avg":
            raise QueryError(
                "AVG undefined: the predicate is a contradiction "
                "(no rows can match)"
            )
        if query.is_grouped:
            return QueryResult(query, None, [])
        return QueryResult(query, 0.0, None)

    def describe(self) -> str:
        return "Empty (contradiction; no backend touched)"


class ScalarCountOp(Operator):
    """``SELECT COUNT(*)`` under one conjunction."""

    name = "ScalarCount"

    def run(self, backend, plan: "QueryPlan") -> QueryResult:
        conjunction = plan.conjunction()
        estimator = getattr(backend, "estimate", None)
        if estimator is not None:
            estimate = estimator(conjunction)
            value_of = getattr(backend, "value_of", None)
            scalar = (
                float(value_of(estimate))
                if value_of is not None
                else float(backend.count(conjunction))
            )
            return QueryResult(plan.query, scalar, None, estimate)
        return QueryResult(plan.query, float(backend.count(conjunction)), None)


class GroupByOp(Operator):
    """Grouped counts (model-side grouping on summary backends), then
    ORDER BY cnt / LIMIT post-processing."""

    name = "GroupBy"

    def run(self, backend, plan: "QueryPlan") -> QueryResult:
        query = plan.query
        predicate = plan.conjunction_or_none()
        counts = backend.group_counts(query.group_by, predicate)
        return QueryResult(
            query, None, ordered_rows(counts, query.order, query.limit)
        )

    def describe(self) -> str:
        return "GroupBy (model-side grouping, order/limit)"


class AggregateOp(Operator):
    """``SUM``/``AVG`` over a numeric attribute as a weighted linear
    query; AVG is the ratio estimator SUM/COUNT, both from one
    ``sum_and_count`` backend call (one arena pass on a model)."""

    name = "Aggregate"

    def run(self, backend, plan: "QueryPlan") -> QueryResult:
        from repro.query.linear import numeric_weights

        query = plan.query
        schema = backend.schema
        pos = schema.position(query.aggregate_attr)
        weights = numeric_weights(schema.domain(pos))
        if query.aggregate == "sum":
            total = float(backend.sum_values(pos, weights, plan.conjunction_or_none()))
            return QueryResult(query, total, None)
        total, count = backend.sum_and_count(pos, weights, plan.conjunction())
        if count <= 0:
            raise QueryError("AVG undefined: no rows match the predicate")
        return QueryResult(query, total / count, None)

    def describe(self) -> str:
        return "Aggregate (weighted linear query)"


def execute_batch(
    backend, plans: Sequence["QueryPlan"]
) -> list[QueryResult]:
    """Execute a batch of plans, vectorizing where possible.

    All batchable scalar ``COUNT(*)`` plans run through one vectorized
    backend pass — ``estimate_many`` when the backend exposes model
    estimates (one polynomial evaluation for the whole batch), else
    ``count_many``, else a plain loop.  Contradictions, grouped
    queries, and SUM/AVG run singly.  Results come back in input order.
    """
    results: list[QueryResult | None] = [None] * len(plans)
    batchable: list[int] = []
    for index, plan in enumerate(plans):
        if plan.route.batched and isinstance(plan.operator, ScalarCountOp):
            batchable.append(index)
        else:
            results[index] = plan.operator.run(backend, plan)
    if batchable:
        conjunctions = [plans[index].conjunction() for index in batchable]
        estimator = getattr(backend, "estimate_many", None)
        value_of = getattr(backend, "value_of", None)
        if estimator is not None and value_of is not None:
            # One vectorized inference pass yields both the scalar
            # counts and the error bounds.
            estimates = estimator(conjunctions)
            counts = [value_of(estimate) for estimate in estimates]
        else:
            estimates = None
            counter = getattr(backend, "count_many", None)
            if counter is not None:
                counts = counter(conjunctions)
            else:
                counts = [backend.count(c) for c in conjunctions]
        for offset, index in enumerate(batchable):
            results[index] = QueryResult(
                plans[index].query,
                float(counts[offset]),
                None,
                estimates[offset] if estimates is not None else None,
            )
    return results  # type: ignore[return-value]


#: Shared operator instances — operators are stateless, so every plan
#: of a kind carries the same object.
EMPTY = EmptyOp()
SCALAR_COUNT = ScalarCountOp()
GROUP_BY = GroupByOp()
AGGREGATE = AggregateOp()


def pick_operator(query, predicate) -> Operator:
    """Choose the physical operator for a validated query."""
    if predicate.is_empty:
        return EMPTY
    if query.aggregate != "count":
        return AGGREGATE
    if query.is_grouped:
        return GROUP_BY
    return SCALAR_COUNT
