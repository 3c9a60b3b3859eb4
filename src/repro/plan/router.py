"""Backend routing: the route stage of the query planner.

A small cost/capability model over the :class:`~repro.api.backend.Backend`
contract decides how a normalized query executes:

* **none** — the predicate is a contradiction; nothing runs;
* **exact** — a ground-truth backend scans rows (cost = rows scanned);
* **sharded** — a sharded summary fans out over its live shards;
  pruning is decided here, once, from the canonical predicate's
  interval on the shard attribute (cost = polynomial terms across the
  live shards only);
* **summary** — one MaxEnt model evaluates its compressed polynomial
  (cost = term count, the unit of Sec 4.2's evaluation);
* **backend** — anything else that satisfies the count contract.

Routing also performs the capability checks (``supports_sum`` for
SUM/AVG) and decides whether a scalar count may join a vectorized
``estimate_many`` batch.
"""

from __future__ import annotations

from repro.errors import QueryError


class Route:
    """One routing decision, carried by the plan for ``explain()``.

    ``detail`` resolves lazily: explain-only bookkeeping (live/pruned
    shard indices, per-shard term costs) is computed on first access,
    never on the in-process execute path — there a shard the predicate
    misses is exactly 0 inside :class:`~repro.core.arena.ShardArena`;
    only the cluster frontend reads ``live_shards`` to pick workers.
    """

    __slots__ = ("target", "batched", "cost", "cost_unit", "_detail", "_thunk")

    def __init__(
        self,
        target: str,
        batched: bool = False,
        cost: float = 0.0,
        cost_unit: str = "",
        detail: dict | None = None,
        lazy_detail=None,
    ):
        #: "none" | "exact" | "summary" | "sharded" | "backend"
        self.target = target
        #: May a scalar count of this plan join a vectorized batch pass?
        self.batched = batched
        #: Abstract cost: rows scanned (exact) or polynomial terms
        #: (models).  Sharded routes report cost via ``detail`` (lazy).
        self.cost = cost
        #: Unit of ``cost`` ("rows" / "terms" / "").
        self.cost_unit = cost_unit
        self._detail = dict(detail or {})
        self._thunk = lazy_detail

    @property
    def detail(self) -> dict:
        """Routing details (backend name, live/pruned shards, ...).

        A cached plan is shared across threads, so the thunk is read
        once: two readers that both see it compute the same detail
        twice, which is harmless; checking ``self._thunk`` and then
        calling it would let the loser of the race call ``None``."""
        thunk = self._thunk
        if thunk is not None:
            self._detail.update(thunk())
            self._thunk = None
        return self._detail

    def describe(self) -> str:
        if self.target == "none":
            return "none (contradiction answered in O(1))"
        detail = self.detail
        cost = detail.get("cost", self.cost)
        cost_unit = detail.get("cost_unit", self.cost_unit)
        parts = [self.target]
        if detail.get("backend"):
            parts[0] = f"{self.target} {detail['backend']!r}"
        if cost:
            parts.append(f"cost≈{cost:g} {cost_unit}".rstrip())
        if self.target == "sharded":
            live = detail.get("live_shards", ())
            pruned = detail.get("pruned_shards", ())
            parts.append(
                f"fan-out over {len(live)} live shard(s), "
                f"{len(pruned)} pruned"
            )
        if self.batched:
            parts.append("batchable")
        return ", ".join(parts)

    def __repr__(self):
        return f"Route({self.describe()})"


def _check_capabilities(backend, query) -> None:
    """Reject queries the backend cannot answer, with a clear error."""
    if query is not None and query.aggregate != "count":
        if (
            getattr(backend, "supports_sum", None) is False
            or getattr(backend, "sum_values", None) is None
        ):
            raise QueryError(
                f"backend {backend!r} does not support SUM/AVG"
            )


def route_query(backend, query, predicate) -> Route:
    """Pick the execution target for one normalized query.

    ``query`` is the validated :class:`~repro.query.ast.CountQuery`
    (None for predicate-level scalar counts), ``predicate`` the
    :class:`~repro.plan.canonical.CanonicalPredicate`.
    """
    if predicate.is_empty:
        return Route("none")
    _check_capabilities(backend, query)
    scalar_count = query is None or (
        query.aggregate == "count" and not query.is_grouped
    )
    batched = scalar_count and (
        getattr(backend, "estimate_many", None) is not None
        or getattr(backend, "count_many", None) is not None
    )
    name = getattr(backend, "name", type(backend).__name__)
    summary = getattr(backend, "summary", None)
    if summary is not None and hasattr(summary, "shards"):

        def sharded_detail():
            live = summary.live_shards(
                None if predicate.is_trivial else predicate.to_conjunction()
            )
            live_set = set(live)
            return {
                "live_shards": tuple(live),
                "pruned_shards": tuple(
                    index
                    for index in range(summary.num_shards)
                    if index not in live_set
                ),
                "cost": float(
                    sum(
                        summary.shards[index].polynomial.num_terms
                        for index in live
                    )
                ),
                "cost_unit": "terms",
            }

        return Route(
            "sharded",
            batched=batched,
            detail={"backend": name},
            lazy_detail=sharded_detail,
        )
    if summary is not None and hasattr(summary, "polynomial"):
        return Route(
            "summary",
            batched=batched,
            cost=float(summary.polynomial.num_terms),
            cost_unit="terms",
            detail={"backend": name},
        )
    if getattr(backend, "is_exact", False):
        relation = getattr(backend, "relation", None)
        rows = getattr(relation, "num_rows", 0)
        return Route(
            "exact",
            batched=batched,
            cost=float(rows),
            cost_unit="rows",
            detail={"backend": name},
        )
    rows = getattr(backend, "num_rows", 0)
    return Route(
        "backend",
        batched=batched,
        cost=float(rows),
        cost_unit="rows" if rows else "",
        detail={"backend": name},
    )
