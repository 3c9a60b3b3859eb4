"""Keyword-free summary construction: the :class:`SummaryBuilder`.

Every summary option is one validated, chainable setter::

    summary = (
        SummaryBuilder(relation)
        .pairs(("origin_state", "distance"), ("dest_state", "distance"))
        .per_pair_budget(150)
        .iterations(20)
        .name("Ent1&2")
        .fit()
    )

Automatic pair selection (Sec 4.3) uses ``budget``/``num_pairs``
instead of explicit ``pairs``; leaving both unset fits a 1D-only
summary (the paper's *No2D*).

``.shards(n, by=...)`` turns the fit into a sharded build: the
relation is partitioned, the 2D bucket budget is divided across the
shards (total model size stays constant), and ``fit()`` returns a
:class:`~repro.core.sharding.ShardedSummary` whose shard models were
fitted in parallel worker processes.
"""

from __future__ import annotations

import math

from repro.core.sharding import ShardedSummary, partition_relation
from repro.core.summary import EntropySummary
from repro.errors import BudgetError, ReproError
from repro.stats.selection import build_statistic_set

_STRATEGIES = ("cover", "correlation")
_HEURISTICS = ("composite", "large", "zero")


class SummaryBuilder:
    """Fluent, validated configuration for fitting one summary."""

    def __init__(self, relation):
        self._relation = relation
        self._pairs: list[tuple] | None = None
        self._per_pair_budget: int | None = None
        self._budget: int = 0
        self._num_pairs: int = 0
        self._strategy: str = "cover"
        self._heuristic: str = "composite"
        self._exclude: tuple = ()
        self._iterations: int = 30
        self._threshold: float = 1e-6
        self._name: str = "summary"
        self._seed: int = 0
        self._num_shards: int = 1
        self._shard_by = None
        self._workers: int | None = None

    # -- statistic selection --------------------------------------------
    def pairs(self, *pairs) -> "SummaryBuilder":
        """Explicit 2D attribute pairs, each a ``(attrA, attrB)`` tuple.

        A single iterable of pairs is also accepted:
        ``.pairs([("a", "b"), ("c", "d")])``.
        """
        if (
            len(pairs) == 1
            and isinstance(pairs[0], (list, tuple))
            and pairs[0]
            and isinstance(pairs[0][0], (list, tuple))
        ):
            pairs = tuple(pairs[0])
        resolved = []
        for pair in pairs:
            pair = tuple(pair)
            if len(pair) != 2:
                raise ReproError(
                    f"each pair must name exactly two attributes, got {pair!r}"
                )
            resolved.append(pair)
        self._pairs = resolved or None
        return self

    def per_pair_budget(self, buckets: int) -> "SummaryBuilder":
        """Bucket budget per explicit pair (paper Fig. 4 style)."""
        if buckets < 1:
            raise BudgetError(f"per-pair budget must be >= 1, got {buckets}")
        self._per_pair_budget = int(buckets)
        return self

    def budget(self, total: int) -> "SummaryBuilder":
        """Total 2D bucket budget ``B`` for automatic pair selection."""
        if total < 0:
            raise BudgetError(f"budget must be >= 0, got {total}")
        self._budget = int(total)
        return self

    def num_pairs(self, count: int) -> "SummaryBuilder":
        """Number of pairs ``Ba`` the automatic selection may pick."""
        if count < 0:
            raise BudgetError(f"num_pairs must be >= 0, got {count}")
        self._num_pairs = int(count)
        return self

    def strategy(self, strategy: str) -> "SummaryBuilder":
        """Automatic pair-choice rule: ``cover`` or ``correlation``."""
        if strategy not in _STRATEGIES:
            raise ReproError(
                f"unknown strategy {strategy!r}; choose from {_STRATEGIES}"
            )
        self._strategy = strategy
        return self

    def heuristic(self, heuristic: str) -> "SummaryBuilder":
        """Per-pair bucketization heuristic (Sec 4.3)."""
        if heuristic not in _HEURISTICS:
            raise ReproError(
                f"unknown heuristic {heuristic!r}; choose from {_HEURISTICS}"
            )
        self._heuristic = heuristic
        return self

    def exclude(self, *attrs) -> "SummaryBuilder":
        """Attributes never used in 2D statistics (e.g. ``fl_date``)."""
        if len(attrs) == 1 and not isinstance(attrs[0], (str, int)):
            attrs = tuple(attrs[0])
        self._exclude = attrs
        return self

    # -- solver ----------------------------------------------------------
    def iterations(self, count: int) -> "SummaryBuilder":
        """Mirror Descent iteration cap."""
        if count < 1:
            raise ReproError(f"iterations must be >= 1, got {count}")
        self._iterations = int(count)
        return self

    def threshold(self, value: float) -> "SummaryBuilder":
        """Solver convergence threshold."""
        if value <= 0:
            raise ReproError(f"threshold must be > 0, got {value}")
        self._threshold = float(value)
        return self

    def seed(self, seed: int) -> "SummaryBuilder":
        """Seed for the randomized parts of statistic selection."""
        self._seed = int(seed)
        return self

    # -- sharding --------------------------------------------------------
    def shards(self, count: int, by=None, workers: int | None = None) -> "SummaryBuilder":
        """Fit ``count`` per-shard models instead of one global model.

        ``by=None`` partitions rows round-robin; ``by="attr"`` cuts the
        attribute's domain into contiguous ranges balanced by row count
        (queries constraining it then skip non-owning shards).  The 2D
        bucket budget is divided across shards so the sharded summary
        has the same total budget as the unsharded fit — per-shard
        polynomials are smaller, which makes both the build and query
        evaluation cheaper.  ``workers`` caps the build's worker
        processes (default: one per shard up to the core count);
        ``workers=1`` builds serially in-process.

        ``shards(1)`` restores the unsharded fit.
        """
        if count < 1:
            raise ReproError(f"shards must be >= 1, got {count}")
        if workers is not None and workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self._num_shards = int(count)
        self._shard_by = by
        self._workers = workers
        return self

    def name(self, name: str) -> "SummaryBuilder":
        """Display/storage name of the fitted summary."""
        self._name = str(name)
        return self

    # -- interop ---------------------------------------------------------
    def with_options(self, **options) -> "SummaryBuilder":
        """Apply options given as a keyword dict (``pairs``,
        ``per_pair_budget``, ``max_iterations``, ... — the setter names,
        with the solver's ``max_iterations`` and the selection's
        ``exclude_attrs``).

        Bridges callers that carry configuration around as dicts (the
        hierarchical summary).
        """
        setters = {
            "pairs": lambda v: self.pairs(*(v or ())),
            "per_pair_budget": lambda v: v is None or self.per_pair_budget(v),
            "budget": self.budget,
            "num_pairs": self.num_pairs,
            "strategy": self.strategy,
            "heuristic": self.heuristic,
            "exclude_attrs": lambda v: self.exclude(*v),
            "max_iterations": self.iterations,
            "threshold": self.threshold,
            "name": self.name,
            "seed": self.seed,
        }
        for key, value in options.items():
            if key not in setters:
                raise ReproError(
                    f"unknown summary option {key!r}; expected one of "
                    f"{sorted(setters)}"
                )
            setters[key](value)
        return self

    # -- terminal --------------------------------------------------------
    def fit(self) -> "EntropySummary | ShardedSummary":
        """Select statistics, compress the polynomial, and solve.

        With ``shards(n > 1)`` this partitions the relation, divides
        the bucket budget, fits the shard models in worker processes,
        and returns a :class:`~repro.core.sharding.ShardedSummary`.
        """
        if self._num_shards > 1:
            return self._fit_sharded()
        return EntropySummary.from_statistics(
            build_statistic_set(self._relation, **self._stat_options()),
            max_iterations=self._iterations,
            threshold=self._threshold,
            name=self._name,
        )

    def append(
        self,
        summary: "EntropySummary | ShardedSummary",
        rows,
        *,
        store=None,
        tag: str | None = None,
    ):
        """Delta-refresh a summary fitted from this builder's relation.

        ``rows`` is an append batch (label rows, a
        :class:`~repro.data.relation.Relation`, or an
        :class:`~repro.ingest.AppendBatch`).  Only the shards whose
        value ranges the batch touches are refit — warm-started from
        their previous solutions — and the builder's relation advances
        to include the appended rows, so repeated ``append`` calls
        chain.  With ``store`` set, the refreshed summary is published
        as a child version with lineage metadata.

        Returns the :class:`~repro.ingest.IngestReport`; the refreshed
        summary is ``report.summary``.
        """
        from repro.ingest import IngestPipeline

        pipeline = IngestPipeline(
            summary,
            self._relation,
            store=store,
            name=self._name if store is not None else None,
            max_iterations=self._iterations,
            threshold=self._threshold,
        )
        report = pipeline.append(rows, tag=tag)
        self._relation = pipeline.relation
        return report

    def _stat_options(self) -> dict:
        """:func:`~repro.stats.selection.build_statistic_set` options for
        the relation, or for each shard of a sharded fit."""
        # Hold the *total* 2D bucket budget constant: each shard models
        # 1/n of the rows with 1/n of the buckets (floor of 2 so every
        # explicit pair keeps at least a 2x2 split).
        per_pair, budget, shards = self._per_pair_budget, self._budget, self._num_shards
        if shards > 1 and per_pair is not None:
            per_pair = max(2, math.ceil(per_pair / shards))
        if shards > 1 and budget:
            budget = max(2, math.ceil(budget / shards))
        return {
            "budget": budget,
            "num_pairs": self._num_pairs,
            "pairs": self._pairs,
            "per_pair_budget": per_pair,
            "strategy": self._strategy,
            "heuristic": self._heuristic,
            "exclude_attrs": self._exclude,
            "seed": self._seed,
        }

    def _fit_sharded(self) -> ShardedSummary:
        partition = partition_relation(
            self._relation, self._num_shards, by=self._shard_by
        )
        return ShardedSummary.fit_partitions(
            partition,
            self._stat_options(),
            max_iterations=self._iterations,
            threshold=self._threshold,
            name=self._name,
            workers=self._workers,
        )

    def __repr__(self):
        parts = [f"name={self._name!r}"]
        if self._pairs:
            parts.append(f"pairs={self._pairs!r}")
        if self._budget:
            parts.append(f"budget={self._budget}")
        if self._num_shards > 1:
            parts.append(f"shards={self._num_shards}")
        return f"SummaryBuilder({', '.join(parts)})"
