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
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.data.serialize import decode_schema, encode_schema
from repro.errors import ReproError
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
    def build(
        cls,
        relation: Relation,
        pairs: Sequence[tuple] | None = None,
        per_pair_budget: int | None = None,
        budget: int = 0,
        num_pairs: int = 0,
        strategy: str = "cover",
        heuristic: str = "composite",
        exclude_attrs: Sequence = (),
        max_iterations: int = 30,
        threshold: float = 1e-6,
        name: str = "summary",
        seed: int = 0,
    ) -> "EntropySummary":
        """Deprecated shim — use :class:`repro.api.SummaryBuilder`.

        Kept for backward compatibility with pre-1.1 call sites; the
        builder validates each option as it is set and reads fluently::

            SummaryBuilder(relation).pairs(("a", "b")).per_pair_budget(8).fit()
        """
        import warnings

        warnings.warn(
            "EntropySummary.build() is deprecated; use "
            "repro.api.SummaryBuilder(relation)....fit() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.api.builder import SummaryBuilder

        return (
            SummaryBuilder(relation)
            .with_options(
                pairs=pairs,
                per_pair_budget=per_pair_budget,
                budget=budget,
                num_pairs=num_pairs,
                strategy=strategy,
                heuristic=heuristic,
                exclude_attrs=exclude_attrs,
                max_iterations=max_iterations,
                threshold=threshold,
                name=name,
                seed=seed,
            )
            .fit()
        )

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

        Re-measures this summary's multi-dimensional statistics (and the
        complete 1D marginals) on ``relation``, then re-solves — by
        default **warm-starting** from the current fitted parameters, so
        an append that changed the data a little converges in a couple
        of Mirror Descent sweeps instead of a full cold solve.  The
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
        schema = relation.schema
        if schema != self.schema:
            require_widened_schema(self.schema, schema)
        multi_dim = []
        for statistic in self.statistic_set.multi_dim:
            predicate = Conjunction(
                schema,
                {pos: statistic.range_at(pos) for pos in statistic.positions},
            )
            multi_dim.append(
                Statistic(
                    predicate,
                    float(relation.count_where(predicate.attribute_masks())),
                )
            )
        statistic_set = StatisticSet.from_relation(relation, multi_dim)
        seed = (
            pad_parameters(self.params, self.schema, schema)
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
        growth) + batch marginals`` — the measurement pass touches only
        the appended rows, O(batch) instead of O(shard).  Exactly
        equivalent to ``refit(base ⊎ batch)``; the solve itself is the
        same warm-started delta solve.
        """
        schema = batch.schema
        if schema != self.schema:
            require_widened_schema(self.schema, schema)
        one_dim = []
        for pos, counts in enumerate(self.statistic_set.one_dim):
            padded = np.zeros(schema.domain(pos).size)
            padded[: len(counts)] = counts
            one_dim.append(padded + batch.marginal(pos))
        multi_dim = []
        for statistic in self.statistic_set.multi_dim:
            predicate = Conjunction(
                schema,
                {pos: statistic.range_at(pos) for pos in statistic.positions},
            )
            multi_dim.append(
                Statistic(
                    predicate,
                    statistic.value
                    + batch.count_where(predicate.attribute_masks()),
                )
            )
        statistic_set = StatisticSet(
            schema,
            self.statistic_set.total + batch.num_rows,
            one_dim,
            multi_dim,
        )
        seed = (
            pad_parameters(self.params, self.schema, schema)
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
        require_widened_schema(self.schema, schema)
        one_dim = [
            list(counts) + [0.0] * (schema.domain(pos).size - len(counts))
            for pos, counts in enumerate(self.statistic_set.one_dim)
        ]
        multi_dim = [
            Statistic(
                Conjunction(
                    schema,
                    {
                        pos: statistic.range_at(pos)
                        for pos in statistic.positions
                    },
                ),
                statistic.value,
            )
            for statistic in self.statistic_set.multi_dim
        ]
        statistic_set = StatisticSet(
            schema, self.statistic_set.total, one_dim, multi_dim
        )
        polynomial = CompressedPolynomial(statistic_set)
        params = pad_parameters(self.params, self.schema, schema)
        return EntropySummary(
            statistic_set, polynomial, params, self.report, self.name
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
        )
        for encoded in document["multi_dim"]:
            statistic_set.add_multi_dim(_decode_statistic(schema, encoded))
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
        document = json.loads(prefix.with_suffix(".json").read_text())
        with np.load(prefix.with_suffix(".npz")) as arrays:
            return cls.from_payload(document, dict(arrays))

    def __repr__(self):
        return (
            f"EntropySummary({self.name!r}, n={self.total}, "
            f"stats={self.statistic_set.num_statistics}, "
            f"terms={self.polynomial.num_terms})"
        )


# ----------------------------------------------------------------------
# Schema widening (domain growth during ingest)
# ----------------------------------------------------------------------

def require_widened_schema(old: Schema, new: Schema) -> None:
    """Raise unless ``new`` is ``old`` with zero or more labels appended
    to each domain (same attributes, same order, old labels kept as a
    prefix) — the only schema change the delta-refresh path supports."""
    if old.attribute_names != new.attribute_names:
        raise ReproError(
            "delta refresh cannot change the attribute set: summary has "
            f"{old.attribute_names}, relation has {new.attribute_names}"
        )
    for pos, (old_domain, new_domain) in enumerate(
        zip(old.domains, new.domains)
    ):
        if (
            new_domain.size < old_domain.size
            or new_domain.labels[: old_domain.size] != old_domain.labels
        ):
            raise ReproError(
                f"attribute {old.attribute_names[pos]!r}: delta refresh "
                "only supports appending new domain values; existing "
                "labels must keep their indices"
            )


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
