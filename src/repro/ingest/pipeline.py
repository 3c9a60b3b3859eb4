"""The append pipeline: route → delta-refit → publish.

One :class:`IngestPipeline` owns the mutable ingest state of one
summary: the current fitted model and (optionally) the
:class:`~repro.api.store.SummaryStore` it publishes refreshed versions
to.  It holds no rows — each append reads only its batch, so a stored
summary takes appends without the data it was built from.  Each
:meth:`append`:

1. **routes** the batch rows to shards — attribute-partitioned
   summaries send each row to the shard owning its value range
   (domain growth widens the top shard's range), round-robin summaries
   continue the original cycle so appends keep shard sizes balanced
   within one row;
2. **delta-refits only the touched shards** — each shard's solver is
   warm-started from its previous solution and reuses its bucket
   structure (no statistic re-selection), so an append touching 1 of N
   shards costs roughly 1/N of a full rebuild (see
   ``benchmarks/bench_ingest.py``); untouched shards are reused as-is
   (or exactly migrated when another shard grew a domain);
3. **publishes** the refreshed shard set to the store as a new child
   version carrying lineage metadata — ``parent_version``,
   ``rows_appended``, ``shards_refit``, ``domain_growth`` — which the
   serve layer's :class:`~repro.serve.watcher.StoreWatcher` picks up to
   hot-reload live sessions.

An empty batch is a no-op version-wise: nothing is refit, nothing is
published.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.sharding import ShardedSummary
from repro.core.summary import EntropySummary
from repro.data.relation import Relation
from repro.errors import IngestError
from repro.ingest.batch import AppendBatch


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`IngestPipeline.append` did."""

    summary: "EntropySummary | ShardedSummary"
    rows_appended: int
    shards_refit: tuple[int, ...]
    domain_growth: bool
    seconds: float
    #: Store record of the published version; ``None`` when the append
    #: was a no-op or the pipeline has no store attached.
    record: object | None = None
    lineage: dict | None = field(default=None)

    @property
    def published_version(self) -> int | None:
        return None if self.record is None else self.record.version

    def describe(self) -> str:
        if self.rows_appended == 0:
            return "ingest: empty batch, nothing to do"
        shards = (
            ", ".join(str(index) for index in self.shards_refit) or "-"
        )
        growth = ", domains grew" if self.domain_growth else ""
        published = (
            f", published v{self.published_version}"
            if self.record is not None
            else ""
        )
        return (
            f"ingest: +{self.rows_appended} rows, refit shard(s) "
            f"[{shards}] in {self.seconds:.2f}s{growth}{published}"
        )


class IngestPipeline:
    """Incremental maintenance of one summary over an append-mostly feed.

    The pipeline holds the summary and nothing else of the data: every
    append reads only its batch, because counting queries over disjoint
    row bags add (see :meth:`EntropySummary.refit_appended`).  So a
    stored summary takes appends without the relation it was built from.

    Parameters
    ----------
    summary:
        The currently fitted :class:`EntropySummary` or
        :class:`ShardedSummary`.
    store / name:
        When given, every non-empty append publishes the refreshed
        summary to the store under ``name`` with lineage metadata.
    max_iterations / threshold:
        Solver knobs for the delta refits (the warm start usually
        converges well inside the cap).
    """

    def __init__(
        self,
        summary: "EntropySummary | ShardedSummary",
        *,
        store=None,
        name: str | None = None,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        chaos=None,
    ):
        #: Optional :class:`~repro.chaos.FaultInjector`.  Its
        #: ``ingest.append`` hook fires at the top of :meth:`append`,
        #: before any state mutates — an injected failure leaves the
        #: pipeline consistent and the batch safely retryable.
        self.chaos = chaos
        self.summary = summary
        self.store = store
        self.name = name if name is not None else summary.name
        self.max_iterations = max_iterations
        self.threshold = threshold
        self.parent_version: int | None = None
        if store is not None and store.has(self.name):
            # Claim the latest stored version as lineage parent only if
            # it plausibly *is* the supplied summary — a caller holding
            # an older version (or a fresh unsaved fit) must not have
            # its children mislabeled as refreshed from the latest.
            # from_store() pins the loaded record's version exactly.
            latest = store.record(self.name)
            shards = (
                summary.num_shards
                if isinstance(summary, ShardedSummary)
                else 0
            )
            if (
                latest.total == summary.total
                and latest.num_statistics == summary.num_statistics
                and latest.shards == shards
            ):
                self.parent_version = latest.version

    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        name: str,
        relation: Relation | None = None,
        *,
        version: int | None = None,
        tag: str | None = None,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        chaos=None,
    ) -> "IngestPipeline":
        """Pipeline over a stored summary (latest version by default).

        ``relation`` is checked, never held: its schema and row count
        must be the loaded summary's.  The argument goes once the
        end-to-end benchmark stops passing its base relation here.
        """
        record, summary = store.load_with_record(name, version=version, tag=tag)
        if relation is not None and (relation.schema, relation.num_rows) != (
            summary.schema,
            summary.total,
        ):
            raise IngestError(
                f"the relation given ({relation.num_rows} rows) is not the "
                f"one {name!r} v{record.version} was fitted over "
                f"({summary.total} rows of the summary's schema)"
            )
        pipeline = cls(
            summary,
            store=store,
            name=name,
            max_iterations=max_iterations,
            threshold=threshold,
            chaos=chaos,
        )
        pipeline.parent_version = record.version
        return pipeline

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self.summary.schema

    @property
    def total(self) -> int:
        return self.summary.total

    # ------------------------------------------------------------------
    def _normalize(self, batch) -> AppendBatch:
        if isinstance(batch, AppendBatch):
            return batch
        if isinstance(batch, Relation):
            return AppendBatch.from_relation(self.schema, batch)
        return AppendBatch.from_rows(self.schema, batch)

    # ------------------------------------------------------------------
    def route(self, batch: AppendBatch) -> list[np.ndarray]:
        """Row indices of ``batch`` destined for each shard.

        Attribute-partitioned summaries route by owned value range
        (indices beyond the top range — domain growth — go to the top
        shard, whose range is widened by :meth:`append`).  Round-robin
        summaries *continue the cycle*: the batch row at global
        position ``N + k`` goes to shard ``(N + k) % n``, exactly the
        assignment ``partition_relation`` gave the original rows — so
        shard sizes stay balanced within one row.
        """
        summary = self.summary
        if isinstance(summary, EntropySummary):
            return [np.arange(batch.num_rows)]
        if summary.owned_ranges is not None:
            assignment = summary.route_indices(
                batch.relation.column(summary.by_position)
            )
        else:
            assignment = (
                self.total + np.arange(batch.num_rows)
            ) % summary.num_shards
        return [
            np.flatnonzero(assignment == index)
            for index in range(summary.num_shards)
        ]

    def append(self, batch, *, tag: str | None = None) -> IngestReport:
        """Apply one append batch; returns what happened.

        ``batch`` may be an :class:`AppendBatch`, a
        :class:`~repro.data.relation.Relation` (re-indexed by label), or
        an iterable of label rows.  Empty batches change nothing and
        publish nothing.
        """
        started = time.perf_counter()
        if self.chaos is not None:
            # Opt-in chaos hook, before any mutation: a raising
            # injector leaves the pipeline consistent and the caller
            # retries the identical batch.
            self.chaos.act("ingest.append")
        batch = self._normalize(batch)
        if batch.num_rows == 0:
            return IngestReport(
                summary=self.summary,
                rows_appended=0,
                shards_refit=(),
                domain_growth=False,
                seconds=time.perf_counter() - started,
            )
        schema = batch.schema  # widened when the batch grew a domain
        grew = batch.grows_domains

        summary = self.summary
        if isinstance(summary, EntropySummary):
            refreshed: EntropySummary | ShardedSummary = summary.refit_appended(
                batch.relation,
                max_iterations=self.max_iterations,
                threshold=self.threshold,
            )
            refit_ids: tuple[int, ...] = (0,)
        else:
            routed = self.route(batch)
            columns = [
                batch.relation.column(pos)
                for pos in range(schema.num_attributes)
            ]
            replacements: dict[int, EntropySummary] = {}
            for index, rows in enumerate(routed):
                if rows.size == 0:
                    if grew:
                        # Another shard grew a domain: re-anchor this
                        # one on the widened schema without re-solving
                        # (exact — new values carry parameter 0).
                        replacements[index] = summary.shards[index].migrated(
                            schema
                        )
                    continue
                # Statistics update additively over the shard's batch
                # rows only — O(batch), not O(shard) — see refit_appended.
                replacements[index] = summary.shards[index].refit_appended(
                    Relation(schema, [column[rows] for column in columns]),
                    max_iterations=self.max_iterations,
                    threshold=self.threshold,
                )
            ranges = summary.owned_ranges
            if ranges is not None and grew:
                # The top shard owns everything above the old ranges.
                pos = summary.by_position
                top = schema.domain(pos).size - 1
                low, high = ranges[-1]
                ranges = [*ranges[:-1], (low, max(high, top))]
            refreshed = summary.with_shards(replacements, ranges=ranges)
            refit_ids = tuple(
                index for index, rows in enumerate(routed) if rows.size
            )

        self.summary = refreshed
        lineage = {
            "parent_version": self.parent_version,
            "rows_appended": batch.num_rows,
            "shards_refit": list(refit_ids),
            "domain_growth": grew,
        }
        if batch.new_labels:
            lineage["new_labels"] = {
                attr: [str(label) for label in labels]
                for attr, labels in batch.new_labels.items()
            }
        record = None
        if self.store is not None:
            record = self.store.save(
                refreshed, self.name, tag=tag, lineage=lineage
            )
            self.parent_version = record.version
        return IngestReport(
            summary=refreshed,
            rows_appended=batch.num_rows,
            shards_refit=refit_ids,
            domain_growth=grew,
            seconds=time.perf_counter() - started,
            record=record,
            lineage=lineage,
        )

    def __repr__(self):
        target = (
            f", publishes {self.name!r}" if self.store is not None else ""
        )
        return (
            f"IngestPipeline({self.summary!r}, n={self.total}{target})"
        )


__all__ = ["AppendBatch", "IngestPipeline", "IngestReport"]
