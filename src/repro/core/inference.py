"""Query answering over a fitted MaxEnt model (Sec 3.2 and 4.2).

The optimized route of Sec 4.2 is the only one used at query time:

    E[⟨q, I⟩]  =  (n / P)  ·  P[ α_j ← 0  for excluded 1D variables ]

i.e. zero the 1D variables whose values fail the query predicate and
re-evaluate the compressed polynomial.  ``n / P`` is precomputed once
per model, and so — on the first masked query — is everything in ``P``
that no mask can change (the polynomial's masked kernel starts from
those unmasked parts and redoes only the constrained factors).

Beyond the paper's point estimates, this module implements the Sec 7
extension: under the model, a counting query's answer is
``Binomial(n, p)`` with ``p = P[masked]/P`` (each of the ``n`` i.i.d.
slotted rows lands in the query region with probability ``p``), giving
closed-form variance and confidence intervals.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.polynomial import CompressedPolynomial
from repro.core.variables import ModelParameters
from repro.errors import QueryError, SolverError
from repro.stats.predicates import Conjunction

#: two-sided 95% normal quantile for confidence intervals.
_Z95 = 1.959963984540054


class QueryEstimate:
    """Approximate answer to one counting query."""

    __slots__ = ("expectation", "probability", "total")

    def __init__(self, expectation: float, probability: float, total: int):
        self.expectation = expectation
        self.probability = probability
        self.total = total

    @property
    def variance(self) -> float:
        """Binomial variance ``n·p·(1−p)`` under the model."""
        p = self.probability
        return self.total * p * (1.0 - p)

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% interval, clipped to ``[0, n]``."""
        half = _Z95 * self.std
        return (
            max(self.expectation - half, 0.0),
            min(self.expectation + half, float(self.total)),
        )

    @property
    def rounded(self) -> int:
        """Paper-style rounding: values ≥ .5 round up (Sec 4.3's
        discussion of estimates near 0.5)."""
        return round_half_up(self.expectation)

    def __repr__(self):
        return (
            f"QueryEstimate({self.expectation:.3f} ± {self.std:.3f}, "
            f"n={self.total})"
        )


def round_half_up(value: float) -> int:
    """Round with halves going up (Python's ``round`` is banker's)."""
    return int(math.floor(value + 0.5))


class InferenceEngine:
    """Binds a polynomial to fitted parameters and answers queries.

    Repeated queries are served from a bounded cache keyed by the
    per-attribute masks (interactive exploration re-asks the same
    predicates constantly; parameters are fixed after fitting, so
    cached answers stay valid for the engine's lifetime).
    """

    def __init__(
        self,
        polynomial: CompressedPolynomial,
        params: ModelParameters,
        total: int,
        cache_size: int = 4096,
    ):
        self.polynomial = polynomial
        self.params = params
        self.total = int(total)
        self._full_value = polynomial.evaluate(params)
        if self._full_value <= 0:
            raise SolverError(
                "fitted polynomial evaluates to 0; the model is degenerate"
            )
        self._scale = self.total / self._full_value
        #: unmasked evaluation parts, built by the first masked query
        self._base = None
        self._cache: dict[tuple, float] = {}
        self._cache_size = max(int(cache_size), 0)
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def partition_value(self) -> float:
        """``P`` at the fitted parameters (``Z = P^n`` by Lemma 3.1)."""
        return self._full_value

    def _base_parts(self):
        """The fitted model's constants (δ products, unmasked range
        sums, component values) every masked evaluation starts from."""
        if self._base is None:
            self._base = self.polynomial.evaluation_parts(self.params)
        return self._base

    # ------------------------------------------------------------------
    def masks_for(self, predicate: Conjunction) -> dict[int, np.ndarray]:
        """Per-position value masks of a conjunction."""
        if predicate.schema != self.polynomial.schema:
            raise QueryError("query predicate uses a different schema")
        masks = {}
        for pos in predicate.constrained_positions:
            masks[pos] = predicate.predicate_at(pos).mask(
                self.polynomial.sizes[pos]
            )
        return masks

    def clear_cache(self) -> None:
        """Drop all cached masked evaluations (and reset the counters)."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    @staticmethod
    def _cache_key(masks: Mapping[int, np.ndarray]) -> tuple:
        return tuple(
            (pos, np.asarray(masks[pos], dtype=bool).tobytes())
            for pos in sorted(masks)
        )

    def _wrap(self, masked_value: float) -> QueryEstimate:
        probability = masked_value / self._full_value
        return QueryEstimate(
            masked_value * self._scale,
            min(max(probability, 0.0), 1.0),
            self.total,
        )

    def estimate_masks(self, masks: Mapping[int, np.ndarray]) -> QueryEstimate:
        """Estimate a counting query given raw per-position masks."""
        key = self._cache_key(masks)
        masked_value = self._cache.get(key)
        if masked_value is None:
            self.cache_misses += 1
            # The masked polynomial is a sum of non-negative monomials;
            # tiny negatives are inclusion/exclusion cancellation noise.
            masked_value = max(
                self.polynomial.masked_value(self._base_parts(), self.params, masks),
                0.0,
            )
            if self._cache_size:
                if len(self._cache) >= self._cache_size:
                    self._cache.clear()
                self._cache[key] = masked_value
        else:
            self.cache_hits += 1
        return self._wrap(masked_value)

    def estimate(self, predicate: Conjunction) -> QueryEstimate:
        """Estimate ``SELECT COUNT(*) WHERE predicate``."""
        return self.estimate_masks(self.masks_for(predicate))

    def estimate_masks_batch(
        self, masks_list: Sequence[Mapping[int, np.ndarray]]
    ) -> list[QueryEstimate]:
        """:meth:`estimate_masks` for each query in turn (one kernel,
        so batched and single answers are bit-equal)."""
        return [self.estimate_masks(masks) for masks in masks_list]

    def estimate_batch(
        self, predicates: Sequence[Conjunction]
    ) -> list[QueryEstimate]:
        """Batched :meth:`estimate`."""
        return self.estimate_masks_batch(
            [self.masks_for(predicate) for predicate in predicates]
        )

    # ------------------------------------------------------------------
    def group_by(
        self,
        group_positions: Sequence[int],
        predicate: Conjunction | None = None,
    ) -> dict[tuple[int, ...], QueryEstimate]:
        """Estimates for every value combination of the group attributes.

        For the last group attribute the whole value vector comes from
        a single gradient pass (``E[A=v ∧ ρ] = n α_v ∂P[masked]/∂α_v / P``,
        Eq. 19 batched over ``v``); outer group attributes are iterated.
        """
        positions = [self.polynomial.schema.position(pos) for pos in group_positions]
        if not positions:
            raise QueryError("group_by needs at least one attribute")
        if len(set(positions)) != len(positions):
            raise QueryError("duplicate group-by attribute")
        base_masks = dict(self.masks_for(predicate)) if predicate else {}
        # Filter-then-group: a predicate on a group attribute restricts
        # which of its values appear as groups (standard SQL semantics).
        allowed: dict[int, np.ndarray] = {}
        for pos in positions:
            mask = base_masks.pop(pos, None)
            if mask is not None:
                allowed[pos] = np.asarray(mask, dtype=bool)
        *outer, inner = positions
        results: dict[tuple[int, ...], QueryEstimate] = {}
        self._group_recurse(outer, inner, base_masks, (), results, allowed)
        return results

    def _group_recurse(self, outer, inner, masks, prefix, results, allowed):
        if not outer:
            inner_allowed = allowed.get(inner)
            for value, estimate in enumerate(self._inner_group(inner, masks)):
                if inner_allowed is not None and not inner_allowed[value]:
                    continue
                results[prefix + (value,)] = estimate
            return
        pos, *rest = outer
        size = self.polynomial.sizes[pos]
        if pos in allowed:
            values = np.flatnonzero(allowed[pos]).tolist()
        else:
            values = range(size)
        for value in values:
            mask = np.zeros(size, dtype=bool)
            mask[value] = True
            masks[pos] = mask
            self._group_recurse(rest, inner, masks, prefix + (value,), results, allowed)
        del masks[pos]

    def _inner_group(self, pos: int, masks) -> list[QueryEstimate]:
        gradient = self.polynomial.masked_gradient(
            self._base_parts(), self.params, masks, pos
        )
        numerators = self.params.alphas[pos] * gradient
        estimates = []
        for numerator in numerators.tolist():
            probability = numerator / self._full_value
            estimates.append(
                QueryEstimate(
                    numerator * self._scale,
                    min(max(probability, 0.0), 1.0),
                    self.total,
                )
            )
        return estimates

    # ------------------------------------------------------------------
    def sum_estimate(
        self,
        pos: int,
        weights: np.ndarray,
        predicate: Conjunction | None = None,
    ) -> float:
        """``E[Σ_{rows ⊨ π} w(A_pos)]`` — a weighted linear query.

        SUM over a numeric attribute is the linear query whose
        coordinate on tuple ``t`` is ``w(t_pos)``; by linearity of
        expectation it decomposes over the attribute's values:
        ``Σ_v w_v · E[A = v ∧ π]``, one gradient pass (Sec 7's
        "other aggregates" extension).
        """
        pos = self.polynomial.schema.position(pos)
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] != self.polynomial.sizes[pos]:
            raise QueryError(
                f"need one weight per domain value of attribute {pos}"
            )
        masks = dict(self.masks_for(predicate)) if predicate else {}
        attr_mask = masks.pop(pos, None)
        gradient = self.polynomial.masked_gradient(
            self._base_parts(), self.params, masks, pos
        )
        counts = self.params.alphas[pos] * gradient * self._scale
        if attr_mask is not None:
            counts = np.where(np.asarray(attr_mask, dtype=bool), counts, 0.0)
        return float(np.dot(weights, np.clip(counts, 0.0, None)))

    def avg_estimate(
        self,
        pos: int,
        weights: np.ndarray,
        predicate: Conjunction | None = None,
    ) -> float:
        """``E[SUM] / E[COUNT]`` — the ratio-of-expectations estimator
        for AVG (the same estimator samplers use)."""
        total = self.sum_estimate(pos, weights, predicate)
        count = (
            self.estimate(predicate).expectation
            if predicate is not None
            else float(self.total)
        )
        if count <= 0:
            raise QueryError("AVG undefined: predicate has expected count 0")
        return total / count

    # ------------------------------------------------------------------
    def point_estimate(self, values: Mapping) -> QueryEstimate:
        """Estimate a point query ``∧ A_i = v_i`` given a mapping from
        attribute (name or position) to a domain *index*."""
        masks = {}
        for attr, index in values.items():
            pos = self.polynomial.schema.position(attr)
            size = self.polynomial.sizes[pos]
            if not 0 <= index < size:
                raise QueryError(
                    f"value index {index} out of range for attribute {attr!r}"
                )
            mask = np.zeros(size, dtype=bool)
            mask[index] = True
            masks[pos] = mask
        return self.estimate_masks(masks)
