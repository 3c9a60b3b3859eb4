"""The backend adapter exposing EntropyDB summaries to the query planner.

:class:`SummaryBackend` serves an :class:`EntropySummary` and a
:class:`~repro.core.sharding.ShardedSummary` alike: both answer through
their :class:`~repro.core.arena.ShardArena` with one query surface.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.backend import Backend
from repro.core.arena import QueryEstimate
from repro.stats.predicates import Conjunction


class SummaryBackend(Backend):
    """Answers counting queries with MaxEnt expected values.

    ``rounded=True`` applies the paper's rounding (estimates below 0.5
    become 0), which is what the F-measure experiments evaluate.  On a
    sharded model every answer is the shards' merge (counts add,
    variances add).
    """

    supports_sum = True
    is_exact = False

    def __init__(self, summary, rounded: bool = False):
        self.summary = summary
        self.schema = summary.schema
        self.rounded = rounded
        self.name = summary.name

    def value_of(self, estimate: QueryEstimate) -> float:
        """The scalar this backend reports for an estimate (honors
        ``rounded``) — lets batch callers reuse estimates they already
        hold instead of re-running inference."""
        if self.rounded:
            return float(estimate.rounded)
        return estimate.expectation

    def count(self, predicate: Conjunction) -> float:
        """Model-expected COUNT(*) under a conjunction."""
        return self.value_of(self.summary.estimate(predicate))

    def estimate(self, predicate: Conjunction) -> QueryEstimate:
        """Full model estimate with variance / confidence interval."""
        return self.summary.estimate(predicate)

    def estimate_many(
        self, predicates: Sequence[Conjunction]
    ) -> list[QueryEstimate]:
        """Batched estimates: the arena's kernel, once per query."""
        return self.summary.estimate_batch(predicates)

    def count_many(self, predicates: Sequence[Conjunction]) -> list[float]:
        """Batched counts — the fast path behind ``Explorer.run_many``."""
        return [
            self.value_of(estimate) for estimate in self.estimate_many(predicates)
        ]

    def sum_values(self, attr, weights, predicate: Conjunction | None) -> float:
        """Model-expected ``SUM(w(attr))`` (Sec 7 aggregate extension)."""
        return self.summary.sum_estimate(attr, weights, predicate)

    def sum_and_count(
        self, attr, weights, predicate: Conjunction
    ) -> tuple[float, float]:
        """SUM and COUNT from one arena pass, the count reported as
        :meth:`value_of` reports it (rounded when ``rounded``)."""
        total, estimate = self.summary.sum_and_count(attr, weights, predicate)
        return total, self.value_of(estimate)

    def group_counts(
        self, attrs: Sequence[str], predicate: Conjunction | None
    ) -> dict[tuple, float]:
        estimates = self.summary.group_by(attrs, predicate)
        return {
            labels: self.value_of(estimate)
            for labels, estimate in estimates.items()
        }

    def describe(self) -> dict:
        card = super().describe()
        if hasattr(self.summary, "shards"):
            card["shards"] = self.summary.num_shards
            card["shard_by"] = self.summary.shard_by
        return card

    def __repr__(self):
        return f"SummaryBackend({self.summary.name!r})"
