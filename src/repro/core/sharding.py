"""Sharded summaries: partition-wise build, merge-at-query-time.

The paper fits one max-entropy model over the whole relation, which
caps both build throughput (one big Mirror Descent solve) and the data
sizes a summary can serve.  This module bolts scale on the same way
OrpheusDB bolts versioning onto relations and the LSST design
partitions the sky: split the relation into shards, fit one
:class:`~repro.core.summary.EntropySummary` per shard, and answer
queries by evaluating shards independently and merging.

The merge algebra follows from rows belonging to exactly one shard and
the shard models being fitted independently; the evaluation itself —
narrowing a query to each shard, the polynomial passes, the merge —
lives in one place, :class:`~repro.core.arena.ShardArena`:

* **COUNT** — expectations add: ``E[q] = Σ_s E_s[q]``;
* **SUM** — same, by linearity;
* **AVG** — count-weighted: ``E[SUM]/E[COUNT]`` over the merged values
  (the ratio estimator the samplers use);
* **error bounds** — per-shard Binomial variances add (independent
  models), i.e. standard deviations combine in quadrature.

Two partitioning schemes:

* **round-robin** (``by=None``) — row ``i`` goes to shard ``i % n``;
  shards are statistically interchangeable subsamples.
* **by attribute** (``by="attr"``) — the attribute's domain is split
  into ``n`` contiguous index ranges balanced by row count; a shard
  owns every row whose value falls in its range.  Queries constraining
  the attribute then *prune*: shards whose range misses the predicate
  contribute an exact zero (and a cluster frontend never asks their
  workers).

Sharding keeps the overall model budget constant — the builder divides
the 2D bucket budget across shards — so the summed solver work often
*drops* (solve cost grows superlinearly with per-model statistic
count) and the shard fits run in parallel worker processes on top.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.arena import ArenaModel, QueryEstimate, labelled
from repro.core.summary import EntropySummary
from repro.data.counts import Counts
from repro.data.relation import Relation
from repro.data.serialize import read_json
from repro.errors import ReproError
from repro.stats.predicates import Conjunction, RangePredicate
from repro.stats.selection import build_statistic_set, selection_pairs


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A relation split into disjoint shards.

    ``by_position``/``ranges`` are ``None`` for round-robin; for
    attribute partitioning, ``ranges[s]`` is the inclusive domain-index
    interval of the shard attribute owned by shard ``s``.
    """

    relations: tuple[Relation, ...]
    by_position: int | None = None
    ranges: tuple[tuple[int, int], ...] | None = None

    @property
    def num_shards(self) -> int:
        return len(self.relations)


def partition_relation(
    relation: Relation, num_shards: int, by=None
) -> Partition:
    """Split a relation into ``num_shards`` disjoint shards.

    Round-robin (``by=None``) assigns row ``i`` to shard ``i % n``.
    With ``by`` set, the attribute's domain indices are cut into ``n``
    contiguous ranges balanced by row count, and each shard takes the
    rows whose value falls in its range.
    """
    if num_shards < 2:
        raise ReproError(f"partitioning needs >= 2 shards, got {num_shards}")
    if num_shards > relation.num_rows:
        raise ReproError(
            f"cannot cut {relation.num_rows} rows into {num_shards} shards"
        )
    if by is None:
        rows = np.arange(relation.num_rows)
        shards = tuple(
            relation.sample_rows(rows[start::num_shards])
            for start in range(num_shards)
        )
        return Partition(shards)

    pos = relation.schema.position(by)
    size = relation.schema.domain(pos).size
    if num_shards > size:
        raise ReproError(
            f"attribute {relation.schema.attribute_names[pos]!r} has only "
            f"{size} values; cannot cut it into {num_shards} shards"
        )
    marginal = relation.marginal(pos)
    cumulative = np.cumsum(marginal)
    total = int(cumulative[-1])
    # Cut the cumulative distribution at n equal row quotas, then snap
    # each cut to a value boundary.  Duplicate cuts (one value holding
    # more than a quota) would leave a shard empty.
    quotas = total * np.arange(1, num_shards) / num_shards
    cuts = np.searchsorted(cumulative, quotas, side="left")
    bounds = [0, *(int(cut) + 1 for cut in cuts), size]
    ranges = []
    for start, stop in zip(bounds, bounds[1:]):
        if stop <= start:
            raise ReproError(
                f"attribute {relation.schema.attribute_names[pos]!r} is too "
                f"skewed to balance into {num_shards} shards; use fewer "
                "shards or round-robin partitioning"
            )
        ranges.append((start, stop - 1))
    column = relation.column(pos)
    shards = []
    for low, high in ranges:
        keep = (column >= low) & (column <= high)
        if not keep.any():
            raise ReproError(
                f"shard range [{low}, {high}] of attribute "
                f"{relation.schema.attribute_names[pos]!r} holds no rows; "
                "use fewer shards or round-robin partitioning"
            )
        shards.append(relation.sample_rows(np.flatnonzero(keep)))
    return Partition(tuple(shards), pos, tuple(ranges))


# ----------------------------------------------------------------------
# Worker-process build
# ----------------------------------------------------------------------

def _fit_shard_direct(payload) -> EntropySummary:
    """Fit one shard, from its counts, in the current process."""
    counts, stat_options, max_iterations, threshold, name = payload
    statistic_set = build_statistic_set(counts, **stat_options)
    return EntropySummary.from_statistics(
        statistic_set,
        max_iterations=max_iterations,
        threshold=threshold,
        name=name,
    )


def _fit_shard(payload):
    """Worker-process entry point (module-level so it pickles)."""
    return _fit_shard_direct(payload).to_payload()


def default_workers(num_shards: int) -> int:
    """Worker-process count: one per shard, capped by the machine."""
    return max(1, min(num_shards, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# The sharded summary
# ----------------------------------------------------------------------

class ShardedSummary(ArenaModel):
    """One logical summary made of per-shard MaxEnt models.

    Build with :meth:`fit_partitions` (or, at the API layer,
    ``SummaryBuilder(relation).shards(n, by=...)``).  Queries run
    through the summary's :class:`~repro.core.arena.ShardArena`, with the
    query surface of :class:`~repro.core.arena.ArenaModel`; see the
    module docstring for the merge algebra.
    """

    def __init__(
        self,
        shards: Sequence[EntropySummary],
        name: str = "summary",
        shard_by: str | None = None,
        ranges: Sequence[tuple[int, int]] | None = None,
    ):
        shards = list(shards)
        if len(shards) < 2:
            raise ReproError("a sharded summary needs at least two shards")
        schema = shards[0].schema
        for shard in shards[1:]:
            if shard.schema != schema:
                raise ReproError("all shards must share one schema")
        if (shard_by is None) != (ranges is None):
            raise ReproError("shard_by and ranges must be given together")
        if ranges is not None and len(ranges) != len(shards):
            raise ReproError("need exactly one owned range per shard")
        self.shards = shards
        self.name = name
        self.schema = schema
        self.shard_by = shard_by
        self.total = sum(shard.total for shard in shards)
        if shard_by is None:
            self._by_pos = None
            self._owned: list[RangePredicate] | None = None
        else:
            self._by_pos = schema.position(shard_by)
            self._owned = [RangePredicate(low, high) for low, high in ranges]

    # -- construction ----------------------------------------------------
    @classmethod
    def fit_partitions(
        cls,
        partition: Partition,
        stat_options: Mapping | None = None,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        name: str = "summary",
        workers: int | None = None,
    ) -> "ShardedSummary":
        """Fit one summary per shard, in parallel worker processes.

        ``stat_options`` are :func:`repro.stats.selection.build_statistic_set`
        keywords applied to every shard (the builder pre-divides bucket
        budgets).  Each shard is reduced to its
        :class:`~repro.data.counts.Counts` here, and only the counts
        travel to the workers.  ``workers=1`` fits serially in-process;
        the default uses one worker per shard up to the machine's core
        count.
        """
        stat_options = dict(stat_options or {})
        pairs = selection_pairs(partition.relations[0].schema, **stat_options)
        payloads = [
            (
                Counts.of(relation, pairs),
                stat_options,
                max_iterations,
                threshold,
                f"{name}/shard{index}",
            )
            for index, relation in enumerate(partition.relations)
        ]
        workers = default_workers(len(payloads)) if workers is None else workers
        shards = None
        if workers > 1:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_fit_shard, payloads))
            except OSError:
                # Restricted environments (no fork/spawn) fall back to a
                # serial build rather than failing the fit.
                shards = None
            else:
                shards = [
                    EntropySummary.from_payload(document, arrays)
                    for document, arrays in results
                ]
        if shards is None:
            # Serial in-process build: keep the fitted objects directly
            # instead of round-tripping through the worker payload
            # (which would rebuild every shard polynomial a second time).
            shards = [_fit_shard_direct(payload) for payload in payloads]
        shard_by = (
            None
            if partition.by_position is None
            else shards[0].schema.attribute_names[partition.by_position]
        )
        return cls(shards, name=name, shard_by=shard_by, ranges=partition.ranges)

    # -- introspection ---------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def by_position(self) -> int | None:
        """Schema position of the shard attribute (``None`` = round-robin)."""
        return self._by_pos

    @property
    def owned_ranges(self) -> list[tuple[int, int]] | None:
        """Inclusive domain-index range each shard owns (``None`` =
        round-robin)."""
        if self._owned is None:
            return None
        return [(owned.low, owned.high) for owned in self._owned]

    @property
    def num_statistics(self) -> int:
        """Statistic count across all shards."""
        return sum(shard.num_statistics for shard in self.shards)

    def size_report(self) -> dict:
        """Aggregate storage footprint across shards."""
        report = {
            "num_shards": self.num_shards,
            "num_terms": 0,
            "parameter_bytes": 0,
            "term_bytes": 0,
            "total_bytes": 0,
        }
        for shard in self.shards:
            shard_report = shard.size_report()
            report["num_terms"] += shard_report["num_terms"]
            report["parameter_bytes"] += shard_report["parameter_bytes"]
            report["term_bytes"] += shard_report["term_bytes"]
            report["total_bytes"] += shard_report["total_bytes"]
        return report

    # -- ingest routing / surgery ----------------------------------------
    def route_indices(self, values: np.ndarray) -> np.ndarray:
        """Owning shard of each shard-attribute domain index.

        Only meaningful for attribute-partitioned summaries.  Indices
        beyond the top owned range (domain growth: an append introduced
        a new value) route to the shard owning the highest range — its
        range is widened by the ingest layer after the refit.
        """
        if self._owned is None:
            raise ReproError(
                "route_indices needs an attribute-partitioned summary; "
                "round-robin appends are balanced by the ingest pipeline"
            )
        values = np.asarray(values, dtype=np.int64)
        # Ranges are contiguous and sorted: cutting at each range's high
        # bound buckets every index, with everything above the top range
        # falling into the last shard.
        highs = np.asarray([owned.high for owned in self._owned[:-1]])
        return np.searchsorted(highs, values, side="left")

    def with_shards(
        self,
        replacements: Mapping[int, EntropySummary],
        ranges: Sequence[tuple[int, int]] | None = None,
    ) -> "ShardedSummary":
        """New summary with some shards swapped out, the rest shared.

        The ingest layer's publish step: delta-refit shard models
        replace their predecessors, untouched shard objects are reused
        as-is (they are immutable after fitting).  ``ranges`` overrides
        the owned ranges — required when domain growth widened the top
        shard's range — and defaults to the current ones.
        """
        for index in replacements:
            if not 0 <= index < self.num_shards:
                raise ReproError(
                    f"no shard {index} in a {self.num_shards}-shard summary"
                )
        shards = [
            replacements.get(index, shard)
            for index, shard in enumerate(self.shards)
        ]
        if ranges is None:
            ranges = self.owned_ranges
        # Publishes swap summaries under live traffic: build the new
        # arena now so the first query never pays for it.
        return ShardedSummary(
            shards, name=self.name, shard_by=self.shard_by, ranges=ranges
        ).warm()

    # -- shard routing ---------------------------------------------------
    def live_shards(self, predicate: Conjunction | None) -> list[int]:
        """Indices of the shards a predicate can touch — the planner's
        routing stage (``explain``, and the cluster frontend's fan-out):
        the shard attribute's mask against each owned range.  Evaluation
        needs no such list: in the arena a shard the predicate misses is
        exactly 0."""
        if self._owned is None or predicate is None or predicate.is_trivial():
            return list(range(self.num_shards))
        constraint = predicate.predicate_at(self._by_pos)
        if constraint.is_true:
            return list(range(self.num_shards))
        size = self.schema.domain(self._by_pos).size
        mask = constraint.mask(size)
        return [
            index
            for index, owned in enumerate(self._owned)
            if (mask & owned.mask(size)).any()
        ]

    # -- querying --------------------------------------------------------
    def group_by(
        self,
        attrs: Sequence,
        predicate: Conjunction | None = None,
    ) -> dict[tuple, QueryEstimate]:
        """Merged GROUP BY COUNT(*) over attribute labels: the union of
        the shards' groups, expectations summed and variances added."""
        positions = [self.schema.position(attr) for attr in attrs]
        return labelled(self.schema, positions, self._grouped(positions, predicate))

    # -- persistence -----------------------------------------------------
    def save(self, prefix) -> None:
        """Write ``<prefix>.json`` (shard manifest) plus one
        ``<prefix>-shard<i>.(json|npz)`` pair per shard."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        manifest = {
            "kind": "sharded",
            "name": self.name,
            "total": self.total,
            "num_shards": self.num_shards,
            "shard_by": self.shard_by,
            "ranges": (
                None
                if self._owned is None
                else [[owned.low, owned.high] for owned in self._owned]
            ),
        }
        prefix.with_suffix(".json").write_text(json.dumps(manifest))
        for index, shard in enumerate(self.shards):
            shard.save(shard_prefix(prefix, index))

    @classmethod
    def load(cls, prefix) -> "ShardedSummary":
        """Inverse of :meth:`save`."""
        prefix = Path(prefix)
        manifest = read_json(prefix.with_suffix(".json"))
        if manifest.get("kind") != "sharded":
            raise ReproError(
                f"{prefix} is not a sharded summary; use EntropySummary.load "
                "or repro.core.sharding.load_model"
            )
        shards = [
            EntropySummary.load(shard_prefix(prefix, index))
            for index in range(manifest["num_shards"])
        ]
        return cls(
            shards,
            name=manifest["name"],
            shard_by=manifest["shard_by"],
            ranges=manifest["ranges"],
        ).warm()

    def __repr__(self):
        by = f", by={self.shard_by!r}" if self.shard_by else ""
        return (
            f"ShardedSummary({self.name!r}, shards={self.num_shards}{by}, "
            f"n={self.total}, stats={self.num_statistics})"
        )


def shard_prefix(prefix, index: int) -> Path:
    """File prefix of shard ``index`` under a sharded model prefix."""
    prefix = Path(prefix)
    return prefix.parent / f"{prefix.name}-shard{index}"


def load_model(prefix) -> "EntropySummary | ShardedSummary":
    """Load whichever summary kind ``prefix`` holds.

    Dispatches on the ``kind`` marker in ``<prefix>.json``: sharded
    manifests load as :class:`ShardedSummary`, everything else as a
    plain :class:`EntropySummary`.
    """
    prefix = Path(prefix)
    path = prefix.with_suffix(".json")
    if not path.exists():
        raise ReproError(f"no summary at {prefix}(.json)")
    document = read_json(path)
    if isinstance(document, dict) and document.get("kind") == "sharded":
        return ShardedSummary.load(prefix)
    return EntropySummary.load(prefix)
