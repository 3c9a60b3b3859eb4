"""EntropyDB summaries: build → fit → query → persist.

An :class:`EntropySummary` is the user-facing object of the library: it
owns the statistic set Φ, the compressed polynomial, the fitted
parameters, and an :class:`~repro.core.inference.InferenceEngine` that
answers through a one-shard :class:`~repro.core.arena.ShardArena` — the
evaluator a sharded summary uses, with the same query surface.  The
paper stores the variables in Postgres and the factorization in a text
file (Sec 5); we persist both to a JSON + NPZ pair.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.arena import QueryEstimate, ShardArena, labelled
from repro.core.inference import InferenceEngine
from repro.core.polynomial import CompressedPolynomial, check_parameter_shapes
from repro.core.solver import MirrorDescentSolver, SolverReport
from repro.core.variables import ModelParameters
from repro.data.counts import Counts
from repro.data.relation import Relation
from repro.data.schema import Schema, require_widened_schema
from repro.data.serialize import decode_schema, encode_schema, read_json, read_npz
from repro.stats.predicates import Conjunction, RangePredicate
from repro.stats.statistic import Statistic, StatisticSet


class EntropySummary:
    """A query-able probabilistic summary of one relation."""

    def __init__(
        self,
        statistic_set: StatisticSet,
        polynomial: CompressedPolynomial,
        params: ModelParameters,
        report: SolverReport | None = None,
        name: str = "summary",
    ):
        check_parameter_shapes(polynomial, params)
        self.statistic_set = statistic_set
        self.polynomial = polynomial
        self.params = params
        self.report = report
        self.name = name
        self.engine = InferenceEngine(polynomial, params, statistic_set.total)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_statistics(
        cls,
        statistic_set: StatisticSet,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        name: str = "summary",
        warm_start: ModelParameters | None = None,
    ) -> "EntropySummary":
        """Fit a summary from an already-assembled statistic set.

        ``warm_start`` seeds the solver with a previous solution instead
        of the uniform model — the ingest layer's delta refits converge
        in a fraction of the sweeps when the data changed a little.
        """
        polynomial = CompressedPolynomial(statistic_set)
        solver = MirrorDescentSolver(
            polynomial, max_iterations=max_iterations, threshold=threshold
        )
        params, report = solver.solve(params=warm_start)
        return cls(statistic_set, polynomial, params, report, name)

    # ------------------------------------------------------------------
    # Incremental maintenance (the ingest layer's primitives)
    # ------------------------------------------------------------------
    def refit(
        self,
        relation: Relation,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        warm_start: bool = True,
    ) -> "EntropySummary":
        """Delta refit: same statistic *structure*, new data.

        Re-measures this summary's statistics on ``relation`` from its
        :class:`~repro.data.counts.Counts`, then re-solves — by default
        **warm-starting** from the current fitted parameters, so an
        append that changed the data a little converges in a couple of
        Mirror Descent sweeps instead of a full cold solve.  The
        expensive statistic *selection* (correlation ranking, bucket
        heuristics) is skipped entirely: the bucket boundaries are
        reused as-is.

        ``relation.schema`` may be the summary's schema or a pure
        *widening* of it (same attributes, each domain's old labels kept
        as a prefix) — the domain-growth path of an append that
        introduced a previously unseen value.  Warm-start parameters for
        new domain values start at 0 (the exact solution while their
        count was 0).
        """
        return self._refit(relation, False, max_iterations, threshold, warm_start)

    def refit_appended(
        self,
        batch: Relation,
        max_iterations: int = 30,
        threshold: float = 1e-6,
        warm_start: bool = True,
    ) -> "EntropySummary":
        """Delta refit for an *append*: statistics update additively.

        Counting queries over disjoint row bags add, so the refreshed
        statistic values are ``old value + count over the batch`` and
        the marginals are ``old marginals (zero-padded under domain
        growth) + batch marginals`` — only the batch is reduced,
        O(batch) instead of O(shard).  Exactly equivalent to
        ``refit(base ⊎ batch)``; the solve itself is the same
        warm-started delta solve.
        """
        return self._refit(batch, True, max_iterations, threshold, warm_start)

    def migrated(self, schema: Schema) -> "EntropySummary":
        """Re-anchor this summary on a widened schema without re-solving.

        Used when *another* shard's append grew a domain: this shard's
        data did not change, so the old solution — padded with 0 for the
        new values (a ZERO statistic's exact fitted value) — answers
        every query identically.  Returns ``self`` when the schema is
        already current.
        """
        if schema == self.schema:
            return self
        statistic_set = self._reanchored(schema, None, keep_values=True)
        polynomial = CompressedPolynomial(statistic_set)
        params = pad_parameters(self.params, self.schema, schema)
        return EntropySummary(statistic_set, polynomial, params, self.report, self.name)

    def _reanchored(
        self, schema: Schema, counts: Counts | None, keep_values: bool
    ) -> StatisticSet:
        """This summary's statistic structure on ``schema`` (the current
        schema or a widening of it), valued by the old values (if
        ``keep_values``, zero-padded for new domain values) plus
        ``counts`` (if given)."""
        require_widened_schema(self.schema, schema)
        old = self.statistic_set
        one_dim = [np.zeros(size) for size in schema.sizes()]
        values = np.zeros(old.num_multi_dim)
        total = 0
        if keep_values:
            for pos, marginal in enumerate(old.one_dim):
                one_dim[pos][: len(marginal)] = marginal
            values += [statistic.value for statistic in old.multi_dim]
            total += old.total
        if counts is not None:
            for pos, marginal in enumerate(counts.marginals):
                one_dim[pos] += marginal
            values += [counts.count(statistic) for statistic in old.multi_dim]
            total += counts.total
        multi_dim = [
            Statistic(
                Conjunction(
                    schema,
                    {pos: statistic.range_at(pos) for pos in statistic.positions},
                ),
                value,
            )
            for statistic, value in zip(old.multi_dim, values.tolist())
        ]
        return StatisticSet(schema, total, one_dim, multi_dim)

    def _refit(
        self,
        rows: Relation,
        keep_values: bool,
        max_iterations: int,
        threshold: float,
        warm_start: bool,
    ) -> "EntropySummary":
        """Re-anchor on ``rows``' counts (added to the old values when
        ``keep_values``) and solve, seeded from this summary's
        parameters (zero-padded for new domain values) by default."""
        counts = Counts.of(rows, self.statistic_set.attribute_pairs())
        statistic_set = self._reanchored(counts.schema, counts, keep_values)
        seed = (
            pad_parameters(self.params, self.schema, counts.schema)
            if warm_start
            else None
        )
        return EntropySummary.from_statistics(
            statistic_set,
            max_iterations=max_iterations,
            threshold=threshold,
            name=self.name,
            warm_start=seed,
        )

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.statistic_set.schema

    @property
    def total(self) -> int:
        return self.statistic_set.total

    @property
    def partition_value(self) -> float:
        return self.engine.partition_value

    @property
    def arena(self) -> ShardArena:
        """The engine's one-shard evaluation kernel."""
        return self.engine.arena

    def count(self, predicate: Conjunction | None) -> QueryEstimate:
        """Estimate ``SELECT COUNT(*) WHERE predicate``."""
        return self.engine.estimate(predicate)

    estimate = count

    def estimate_batch(
        self, predicates: Sequence[Conjunction | None]
    ) -> list[QueryEstimate]:
        return self.engine.estimate_batch(predicates)

    def count_labels(self, values: Mapping) -> QueryEstimate:
        """Point-query convenience: attribute → *label* equality."""
        indexed = {}
        for attr, label in values.items():
            pos = self.schema.position(attr)
            indexed[pos] = self.schema.domain(pos).index_of(label)
        return self.engine.point_estimate(indexed)

    def group_by(
        self,
        attrs: Sequence,
        predicate: Conjunction | None = None,
    ) -> dict[tuple, QueryEstimate]:
        """Model-side GROUP BY COUNT(*) over attribute labels."""
        positions = [self.schema.position(attr) for attr in attrs]
        return labelled(
            self.schema, positions, self.engine.group_by(positions, predicate)
        )

    def sum_estimate(self, attr, weights, predicate=None) -> float:
        return self.engine.sum_estimate(attr, weights, predicate)

    def sum_and_count(self, attr, weights, predicate=None):
        return self.engine.sum_and_count(attr, weights, predicate)

    def avg_estimate(self, attr, weights, predicate=None) -> float:
        return self.engine.avg_estimate(attr, weights, predicate)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_report(self) -> dict:
        """Polynomial and parameter storage footprint."""
        report = self.polynomial.size_report()
        report["parameter_bytes"] = sum(
            alpha.nbytes for alpha in self.params.alphas
        ) + self.params.deltas.nbytes
        term_bytes = 0
        for component in self.polynomial.components:
            for pos in component.positions:
                term_bytes += component.lo[pos].nbytes + component.hi[pos].nbytes
            term_bytes += component.stat_ids.nbytes + component.stat_indptr.nbytes
        report["term_bytes"] = term_bytes
        report["total_bytes"] = report["parameter_bytes"] + term_bytes
        return report

    @property
    def num_statistics(self) -> int:
        """Statistic count |Φ| (uniform across summary kinds)."""
        return self.statistic_set.num_statistics

    def clear_cache(self) -> None:
        """Drop the arena's memoized results."""
        self.engine.clear_cache()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict, dict]:
        """Portable in-memory form: ``(document, arrays)``.

        ``document`` is JSON-safe (statistics, schema); ``arrays`` maps
        names to numpy arrays (fitted parameters).  This is the currency
        of both :meth:`save` and the sharded build's worker processes.
        """
        document = {
            "name": self.name,
            "total": self.statistic_set.total,
            "schema": encode_schema(self.schema),
            "one_dim": [list(counts) for counts in self.statistic_set.one_dim],
            "multi_dim": [
                _encode_statistic(statistic)
                for statistic in self.statistic_set.multi_dim
            ],
        }
        return document, self.params.to_arrays()

    @classmethod
    def from_payload(cls, document: dict, arrays: Mapping) -> "EntropySummary":
        """Inverse of :meth:`to_payload`; rebuilds the polynomial from
        the statistics and reattaches the fitted parameters."""
        schema = decode_schema(document["schema"])
        statistic_set = StatisticSet(
            schema,
            document["total"],
            document["one_dim"],
            [_decode_statistic(schema, encoded) for encoded in document["multi_dim"]],
        )
        params = ModelParameters.from_arrays(dict(arrays))
        polynomial = CompressedPolynomial(statistic_set)
        return cls(statistic_set, polynomial, params, None, document["name"])

    def save(self, prefix) -> None:
        """Write ``<prefix>.json`` (statistics) + ``<prefix>.npz``
        (parameters)."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        document, arrays = self.to_payload()
        prefix.with_suffix(".json").write_text(json.dumps(document))
        np.savez_compressed(prefix.with_suffix(".npz"), **arrays)

    @classmethod
    def load(cls, prefix) -> "EntropySummary":
        """Inverse of :meth:`save`."""
        prefix = Path(prefix)
        return cls.from_payload(
            read_json(prefix.with_suffix(".json")),
            read_npz(prefix.with_suffix(".npz")),
        )

    def __repr__(self):
        return (
            f"EntropySummary({self.name!r}, n={self.total}, "
            f"stats={self.statistic_set.num_statistics}, "
            f"terms={self.polynomial.num_terms})"
        )


# ----------------------------------------------------------------------
# Schema widening (domain growth during ingest)
# ----------------------------------------------------------------------

def pad_parameters(
    params: ModelParameters, old: Schema, new: Schema
) -> ModelParameters:
    """Warm-start seed for a widened schema: each attribute's alpha
    array is extended with zeros for the new domain values (the exact
    fitted value while their observed count was 0); deltas are carried
    over unchanged."""
    if new == old:
        return params.copy()
    alphas = []
    for pos, alpha in enumerate(params.alphas):
        grown = new.domain(pos).size - alpha.shape[0]
        alphas.append(
            np.concatenate([alpha, np.zeros(grown)]) if grown else alpha.copy()
        )
    return ModelParameters(alphas, params.deltas.copy())


# ----------------------------------------------------------------------
# Statistic serialization (schemas/labels live in repro.data.serialize)
# ----------------------------------------------------------------------

def _encode_statistic(statistic: Statistic):
    return {
        "value": statistic.value,
        "ranges": [
            [pos, statistic.range_at(pos).low, statistic.range_at(pos).high]
            for pos in statistic.positions
        ],
    }


def _decode_statistic(schema: Schema, encoded) -> Statistic:
    predicate = Conjunction(
        schema,
        {
            pos: RangePredicate(low, high)
            for pos, low, high in encoded["ranges"]
        },
    )
    return Statistic(predicate, encoded["value"])
