"""Sampling possible worlds from a fitted MaxEnt model (Sec 2.1).

Under the slotted possible-world semantics with fixed cardinality
``n``, the MaxEnt distribution factorizes per row: each of the ``n``
slots holds tuple ``t`` independently with probability
``p_t = monomial_t / P`` (that is exactly what ``Pr(I) ∝ Π_j
α_j^{⟨c_j,I⟩}`` says).  Sampling a world therefore reduces to ``n``
i.i.d. categorical draws.

Two uses:

* **synthetic data generation** — materialize a plausible instance
  from a summary without access to the original data;
* **Monte-Carlo validation** — the empirical distribution of query
  answers over sampled worlds must match the closed-form expectation
  and binomial variance of :mod:`repro.core.inference`, which the test
  suite checks.

Direct sampling materializes the tuple-probability vector and is
limited to small schemas; :func:`sample_world_gibbs` covers larger
models by sampling attributes left-to-right from conditional
distributions evaluated on the compressed polynomial.
"""

from __future__ import annotations

import numpy as np

from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.variables import ModelParameters
from repro.data.relation import Relation
from repro.errors import SolverError
from repro.stats.statistic import StatisticSet


def sample_world(
    statistic_set: StatisticSet,
    params: ModelParameters,
    rng: np.random.Generator | int | None = None,
    num_rows: int | None = None,
) -> Relation:
    """Draw one possible world by direct categorical sampling.

    Materializes all ``|Tup|`` probabilities — small schemas only.
    """
    rng = _as_generator(rng)
    naive = NaivePolynomial(statistic_set)
    probabilities = naive.tuple_probabilities(params)
    total = num_rows if num_rows is not None else statistic_set.total
    draws = rng.choice(probabilities.shape[0], size=total, p=probabilities)
    return Relation.from_index_rows(
        statistic_set.schema, naive.tuple_indices[draws]
    )


def sample_world_sequential(
    polynomial: CompressedPolynomial,
    params: ModelParameters,
    rng: np.random.Generator | int | None = None,
    num_rows: int | None = None,
) -> Relation:
    """Draw one possible world without materializing ``Tup``.

    Attributes are sampled one at a time per row batch: the conditional
    distribution of attribute ``i`` given the already-fixed attributes
    is proportional to ``α_{i,v} · ∂P[masked]/∂α_{i,v}`` — one gradient
    pass of the compressed polynomial per (row-group, attribute), so the
    cost scales with the polynomial size, not the tuple space.

    Rows that share a prefix of sampled values share the conditional,
    so sampling proceeds by recursive partitioning of the row set.
    """
    rng = _as_generator(rng)
    statistic_set = polynomial.statistic_set
    total = num_rows if num_rows is not None else statistic_set.total
    num_attrs = polynomial.schema.num_attributes
    columns = np.zeros((total, num_attrs), dtype=np.int64)

    base = polynomial.evaluation_parts(params)

    def fill(rows: np.ndarray, pos: int, masks: dict) -> None:
        if rows.size == 0 or pos == num_attrs:
            return
        gradient = polynomial.masked_gradient(base, params, masks, pos)
        # Σ_v α_v ∂P[masked]/∂α_v = P[masked] (overcompleteness), so a
        # vanishing weight sum is a degenerate conditional.
        weights = np.clip(params.alphas[pos] * gradient, 0.0, None)
        weight_sum = weights.sum()
        if weight_sum <= 0:
            raise SolverError(
                f"attribute {pos} has no admissible value while sampling "
                "(P[masked] = 0)"
            )
        probabilities = weights / weight_sum
        draws = rng.choice(probabilities.shape[0], size=rows.size, p=probabilities)
        columns[rows, pos] = draws
        for value in np.unique(draws):
            subset = rows[draws == value]
            value_mask = np.zeros(polynomial.sizes[pos], dtype=bool)
            value_mask[value] = True
            fill(subset, pos + 1, {**masks, pos: value_mask})

    fill(np.arange(total), 0, {})
    return Relation.from_index_rows(polynomial.schema, columns)


def empirical_query_distribution(
    statistic_set: StatisticSet,
    params: ModelParameters,
    masks: dict,
    num_worlds: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Answers of one counting query over ``num_worlds`` sampled worlds
    — the Monte-Carlo counterpart of the closed-form estimate."""
    rng = _as_generator(rng)
    naive = NaivePolynomial(statistic_set)
    probabilities = naive.tuple_probabilities(params)
    keep = np.ones(naive.num_monomials, dtype=bool)
    for pos, mask in masks.items():
        keep &= np.asarray(mask, dtype=bool)[naive.tuple_indices[:, pos]]
    hit_probability = probabilities[keep].sum()
    return rng.binomial(statistic_set.total, hit_probability, size=num_worlds).astype(
        float
    )


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
