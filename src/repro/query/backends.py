"""Backend adapters exposing EntropyDB summaries to the SQL engine.

:class:`SummaryBackend` serves a single :class:`EntropySummary`;
:class:`ShardedBackend` serves a :class:`~repro.core.sharding.ShardedSummary`
through its cross-shard arena.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.backend import Backend
from repro.core.inference import QueryEstimate
from repro.core.sharding import MergedEstimate, ShardedSummary
from repro.core.summary import EntropySummary
from repro.stats.predicates import Conjunction


class SummaryBackend(Backend):
    """Answers counting queries with MaxEnt expected values.

    ``rounded=True`` applies the paper's rounding (estimates below 0.5
    become 0), which is what the F-measure experiments evaluate.
    """

    supports_sum = True
    is_exact = False

    def __init__(self, summary: EntropySummary, rounded: bool = False):
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
        return self.value_of(self.summary.count(predicate))

    def estimate(self, predicate: Conjunction) -> QueryEstimate:
        """Full model estimate with variance / confidence interval."""
        return self.summary.count(predicate)

    def estimate_many(
        self, predicates: Sequence[Conjunction]
    ) -> list[QueryEstimate]:
        """Batched estimates: the engine's masked kernel, once per query."""
        return self.summary.engine.estimate_batch(predicates)

    def count_many(self, predicates: Sequence[Conjunction]) -> list[float]:
        """Batched counts — the fast path behind ``Explorer.run_many``."""
        return [
            self.value_of(estimate) for estimate in self.estimate_many(predicates)
        ]

    def sum_values(self, attr, weights, predicate: Conjunction | None) -> float:
        """Model-expected ``SUM(w(attr))`` (Sec 7 aggregate extension)."""
        return self.summary.engine.sum_estimate(
            self.schema.position(attr), weights, predicate
        )

    def group_counts(
        self, attrs: Sequence[str], predicate: Conjunction | None
    ) -> dict[tuple, float]:
        estimates = self.summary.group_by(attrs, predicate)
        return {
            labels: self.value_of(estimate)
            for labels, estimate in estimates.items()
        }

    def __repr__(self):
        return f"SummaryBackend({self.summary.name!r})"


class ShardedBackend(Backend):
    """Answers counting queries by merging per-shard MaxEnt estimates.

    Same contract as :class:`SummaryBackend` — the SQL engine and the
    Explorer cannot tell the two apart — but each call evaluates every
    shard of a :class:`~repro.core.sharding.ShardedSummary` at once in
    its :class:`~repro.core.arena.ShardArena` and merges (counts add,
    variances add).
    """

    supports_sum = True
    is_exact = False

    def __init__(self, summary: ShardedSummary, rounded: bool = False):
        self.summary = summary
        self.schema = summary.schema
        self.rounded = rounded
        self.name = summary.name

    def value_of(self, estimate: MergedEstimate) -> float:
        """Scalar reported for a merged estimate (honors ``rounded``)."""
        if self.rounded:
            return float(estimate.rounded)
        return estimate.expectation

    def count(self, predicate: Conjunction) -> float:
        return self.value_of(self.summary.estimate(predicate))

    def estimate(self, predicate: Conjunction) -> MergedEstimate:
        """Full merged estimate with quadrature-combined error bounds."""
        return self.summary.estimate(predicate)

    def estimate_many(
        self, predicates: Sequence[Conjunction]
    ) -> list[MergedEstimate]:
        """Batched merged estimates (bit-equal to one at a time)."""
        return self.summary.estimate_batch(predicates)

    def count_many(self, predicates: Sequence[Conjunction]) -> list[float]:
        return [
            self.value_of(estimate) for estimate in self.estimate_many(predicates)
        ]

    def sum_values(self, attr, weights, predicate: Conjunction | None) -> float:
        return self.summary.sum_estimate(attr, weights, predicate)

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
        card["shards"] = self.summary.num_shards
        card["shard_by"] = self.summary.shard_by
        return card

    def __repr__(self):
        return (
            f"ShardedBackend({self.summary.name!r}, "
            f"shards={self.summary.num_shards})"
        )
