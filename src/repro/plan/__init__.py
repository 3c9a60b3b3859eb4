"""The query planning layer: normalize → route → execute.

One planner sits under every query surface (Explorer, CLI, server,
evaluation harness), so semantically equal queries share one canonical
cache key, contradictions answer ``0`` without touching a backend,
shard pruning is decided once per query, and compatible scalar counts
batch into single vectorized backend passes.

* :class:`~repro.plan.canonical.CanonicalPredicate` — hashable normal
  form of a conjunctive WHERE clause (interval algebra, contradiction
  detection);
* :class:`~repro.plan.router.Route` — the cost/capability routing
  decision;
* :class:`~repro.plan.planner.QueryPlan` / :class:`~repro.plan.planner.Planner`
  — the per-backend planning façade with ``explain()``.
"""

from repro.plan.canonical import (
    CanonicalPredicate,
    canonicalize_conditions,
    canonicalize_conjunction,
)
from repro.plan.operators import execute_batch, pick_operator
from repro.plan.planner import Planner, QueryPlan
from repro.plan.router import Route, route_query

__all__ = [
    "CanonicalPredicate",
    "Planner",
    "QueryPlan",
    "Route",
    "canonicalize_conditions",
    "canonicalize_conjunction",
    "execute_batch",
    "pick_operator",
    "route_query",
]
