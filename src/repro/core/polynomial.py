"""The compressed MaxEnt polynomial ``P`` (Eq. 5 / Theorem 4.1).

The polynomial is never materialized as monomials.  It is stored as

    P  =  Π_{p free} fullsum_p  ×  Π_c Q_c
    Q_c =  Σ_t  dprod_c[t]  ·  Π_{p ∈ positions(c)} rangesum_p(lo_t, hi_t)

where ``rangesum_p`` sums the (possibly query-masked) 1D variables of
attribute ``p`` over an inclusive index range, and ``dprod`` is the
``Π_{j∈S}(δ_j − 1)`` factor of each term.  All range sums are computed
with prefix sums, so a full evaluation is ``O(#terms · m + Σ N_i)`` —
this is the oracle behind both query answering (Sec 4.2: evaluate ``P``
with excluded 1D variables set to 0) and the solver's gradients.

Query answering never repeats that full pass: the unmasked
:class:`EvaluationParts` of the fitted parameters are constants of the
model, and :meth:`CompressedPolynomial.masked_value` /
:meth:`~CompressedPolynomial.masked_gradient` recompute only the
factors a query's masks constrain.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.terms import build_components
from repro.core.variables import ModelParameters
from repro.errors import SolverError
from repro.stats.statistic import StatisticSet


def product_excluding(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """For each entry along ``axis``, the product of all *other*
    entries.  Implemented with prefix/suffix cumulative products so
    zeros are handled exactly (no division)."""
    values = np.asarray(values, dtype=float)
    ones_shape = list(values.shape)
    ones_shape[axis] = 1
    ones = np.ones(ones_shape, dtype=float)
    before = np.concatenate(
        [ones, np.cumprod(values, axis=axis).take(range(values.shape[axis] - 1), axis=axis)],
        axis=axis,
    )
    reversed_values = np.flip(values, axis=axis)
    after = np.flip(
        np.concatenate(
            [ones, np.cumprod(reversed_values, axis=axis).take(range(values.shape[axis] - 1), axis=axis)],
            axis=axis,
        ),
        axis=axis,
    )
    return before * after


def _prefix(alpha: np.ndarray) -> np.ndarray:
    """``[0, α_0, α_0 + α_1, …]``: range sums as prefix differences."""
    return np.concatenate([[0.0], np.cumsum(alpha, dtype=float)])


def _range_sums(component, pos: int, prefix: np.ndarray) -> np.ndarray:
    """Attribute ``pos``'s range sum over every term of ``component``."""
    return prefix[1:].take(component.hi[pos]) - prefix.take(component.lo[pos])


def _range_product(component, sums: Mapping[int, np.ndarray]) -> np.ndarray:
    """``Π_p rangesum_p`` per term, multiplied left to right in the
    component's position order (a component spans >= 2 attributes)."""
    first, second, *rest = component.positions
    product = sums[first] * sums[second]
    for pos in rest:
        product *= sums[pos]
    return product


class EvaluationParts:
    """Intermediate factors of one polynomial evaluation, cached so the
    solver and the inference layer can reuse them for gradients."""

    __slots__ = (
        "prefixes",
        "full_sums",
        "range_sums",
        "range_products",
        "delta_products",
        "component_values",
        "free_product",
        "value",
    )

    def __init__(
        self,
        prefixes,
        full_sums,
        range_sums,
        range_products,
        delta_products,
        component_values,
        free_product,
        value,
    ):
        self.prefixes = prefixes
        self.full_sums = full_sums
        self.range_sums = range_sums
        self.range_products = range_products
        self.delta_products = delta_products
        self.component_values = component_values
        self.free_product = free_product
        self.value = value


class CompressedPolynomial:
    """Compressed representation of ``P`` for one statistic set.

    The structure (terms) depends only on the statistic *predicates*;
    the variable *values* are supplied per call through
    :class:`~repro.core.variables.ModelParameters`.
    """

    def __init__(self, statistic_set: StatisticSet, max_terms: int | None = None):
        self.statistic_set = statistic_set
        self.schema = statistic_set.schema
        self.sizes = self.schema.sizes()
        if max_terms is None:
            self.components, self.free_positions = build_components(statistic_set)
        else:
            self.components, self.free_positions = build_components(
                statistic_set, max_terms
            )
        self.num_deltas = statistic_set.num_multi_dim
        self._component_of_position: dict[int, int] = {}
        for index, component in enumerate(self.components):
            for pos in component.positions:
                self._component_of_position[pos] = index

    # ------------------------------------------------------------------
    # Size accounting (Sec 4.1 / Theorem 4.2)
    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        """Compressed term count (empty-set terms included)."""
        return sum(component.num_terms for component in self.components) + len(
            self.free_positions
        )

    @property
    def num_uncompressed_monomials(self) -> int:
        """``|Tup|`` — the monomial count of the uncompressed Eq. (5)."""
        return self.schema.num_possible_tuples()

    def size_report(self) -> dict:
        """Summary-size metrics used by the compression benchmarks."""
        range_entries = sum(
            component.num_terms * len(component.positions)
            for component in self.components
        )
        literal_terms = 1
        for component in self.components:
            literal_terms *= component.num_terms
        return {
            "num_components": len(self.components),
            "num_terms": self.num_terms,
            # What a literal Theorem 4.1 enumeration (no connected-
            # component factorization) would produce: every combination
            # of per-component statistic sets is a global set S.
            "num_terms_without_component_factoring": literal_terms,
            "num_uncompressed_monomials": self.num_uncompressed_monomials,
            "num_range_entries": range_entries,
            "num_delta_entries": sum(
                int(component.stat_ids.size) for component in self.components
            ),
            "num_variables": sum(self.sizes) + self.num_deltas,
        }

    def component_of_position(self, pos: int) -> int | None:
        return self._component_of_position.get(pos)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluation_parts(self, params: ModelParameters) -> EvaluationParts:
        """Evaluate the unmasked ``P`` and keep every intermediate factor."""
        prefixes = [_prefix(alpha) for alpha in params.alphas]
        full_sums = [float(prefix[-1]) for prefix in prefixes]
        delta_products = [
            component.delta_products(params.deltas) for component in self.components
        ]
        range_sums: list[dict[int, np.ndarray]] = []
        range_products: list[np.ndarray] = []
        component_values: list[float] = []
        for component, dprod in zip(self.components, delta_products):
            sums = {
                pos: _range_sums(component, pos, prefixes[pos])
                for pos in component.positions
            }
            product = _range_product(component, sums)
            range_sums.append(sums)
            range_products.append(product)
            component_values.append(float(np.dot(product, dprod)))
        free_product = self._free_product(full_sums)
        return EvaluationParts(
            prefixes,
            full_sums,
            range_sums,
            range_products,
            delta_products,
            component_values,
            free_product,
            math.prod(component_values, start=free_product),
        )

    def _free_product(self, full_sums) -> float:
        free_product = 1.0
        for pos in self.free_positions:
            free_product *= full_sums[pos]
        return free_product

    def refresh_attribute(
        self, parts: EvaluationParts, params: ModelParameters, pos: int
    ) -> None:
        """Bring ``parts`` up to date after attribute ``pos``'s α moved
        and nothing else did: its prefix and full sum, then either the
        free product or its component's range sums, range product
        (recomputed left to right from all of its range sums, never by
        dividing the old factor out) and value; then ``P``.  Every
        field ends bit-equal to a fresh :meth:`evaluation_parts`."""
        prefix = _prefix(params.alphas[pos])
        parts.prefixes[pos] = prefix
        parts.full_sums[pos] = float(prefix[-1])
        index = self._component_of_position.get(pos)
        if index is None:
            parts.free_product = self._free_product(parts.full_sums)
        else:
            component = self.components[index]
            sums = parts.range_sums[index]
            sums[pos] = _range_sums(component, pos, prefix)
            product = _range_product(component, sums)
            parts.range_products[index] = product
            parts.component_values[index] = float(
                np.dot(product, parts.delta_products[index])
            )
        parts.value = math.prod(parts.component_values, start=parts.free_product)

    def refresh_deltas(self, parts: EvaluationParts, params: ModelParameters) -> None:
        """Bring ``parts`` up to date after the δ variables moved and no
        α did: every component's δ products and value, then ``P``; the
        range sums and products stand.  Bit-equal to a fresh
        :meth:`evaluation_parts`, like :meth:`refresh_attribute`."""
        for index, component in enumerate(self.components):
            dprod = component.delta_products(params.deltas)
            parts.delta_products[index] = dprod
            parts.component_values[index] = float(
                np.dot(parts.range_products[index], dprod)
            )
        parts.value = math.prod(parts.component_values, start=parts.free_product)

    def _masked_prefixes(
        self, params: ModelParameters, masks: Mapping[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Sec 4.2's optimization — excluded 1D variables become 0 —
        as prefix sums of the constrained attributes only."""
        prefixes = {}
        for pos, mask in masks.items():
            alpha = params.alphas[pos]
            mask = np.asarray(mask, dtype=bool)
            if mask.shape[0] != alpha.shape[0]:
                raise SolverError(
                    f"mask for attribute {pos} has size {mask.shape[0]}, "
                    f"expected {alpha.shape[0]}"
                )
            prefixes[pos] = np.concatenate(
                [[0.0], np.cumsum(np.where(mask, alpha, 0.0), dtype=float)]
            )
        return prefixes

    def _masked_terms(self, base: EvaluationParts, index: int, prefixes, skip=None):
        """Per-term ``Π_p rangesum_p · dprod`` of component ``index`` over
        every position but ``skip``: range sums are regathered for the
        masked positions and taken from ``base`` for the rest."""
        component = self.components[index]
        factors = []
        for pos in component.positions:
            if pos == skip:
                continue
            prefix = prefixes.get(pos)
            if prefix is None:
                factors.append(base.range_sums[index][pos])
            else:
                factors.append(_range_sums(component, pos, prefix))
        # Left to right with δ last — the solver's fitted parameters
        # depend on this association bit for bit — and in place after
        # the first product (a component spans >= 2 attributes, so
        # there is always a range-sum factor before δ).
        factors.append(base.delta_products[index])
        product = factors[0] * factors[1]
        for factor in factors[2:]:
            product *= factor
        return product

    def _masked_factors(self, base: EvaluationParts, prefixes, skip_pos=None):
        """Masked ``(Π_{p free} fullsum_p, [Q_c])`` with attribute
        ``skip_pos`` left out (its free factor dropped, or its
        component's slot held at 1.0); components no mask touches reuse
        ``base.component_values``."""
        free = 1.0
        for pos in self.free_positions:
            if pos != skip_pos:
                prefix = prefixes.get(pos)
                free *= base.full_sums[pos] if prefix is None else float(prefix[-1])
        values = []
        for index, component in enumerate(self.components):
            if skip_pos in component.positions:
                values.append(1.0)
            elif prefixes.keys().isdisjoint(component.positions):
                values.append(base.component_values[index])
            else:
                values.append(float(self._masked_terms(base, index, prefixes).sum()))
        return free, values

    def masked_value(
        self,
        base: EvaluationParts,
        params: ModelParameters,
        masks: Mapping[int, np.ndarray],
    ) -> float:
        """``P[α masked]`` — the quantity of Sec 4.2's query formula.

        ``base`` is ``evaluation_parts(params)``; only the components
        and free positions the masks touch are re-evaluated."""
        prefixes = self._masked_prefixes(params, masks)
        free, values = self._masked_factors(base, prefixes)
        return math.prod(values, start=free)

    def masked_gradient(
        self,
        base: EvaluationParts,
        params: ModelParameters,
        masks: Mapping[int, np.ndarray],
        pos: int,
    ) -> np.ndarray:
        """``∂P[α masked]/∂α_{pos,v}`` for every value ``v`` of ``pos``.

        By overcompleteness each monomial holds exactly one variable of
        the attribute, so this is also the coefficient vector of the
        linear expansion Eq. (7); a mask on ``pos`` itself is ignored
        (the partial does not depend on the attribute's own variables).
        """
        size = self.sizes[pos]
        prefixes = self._masked_prefixes(
            params, {p: mask for p, mask in masks.items() if p != pos}
        )
        free, values = self._masked_factors(base, prefixes, skip_pos=pos)
        index = self._component_of_position.get(pos)
        if index is None:
            return np.full(size, math.prod(values, start=free))
        component = self.components[index]
        coeff = self._masked_terms(base, index, prefixes, skip=pos)
        # Difference array over [lo, hi] in one scatter: each bin adds
        # its lo ends, then subtracts its hi ends, both in term order.
        diff = np.bincount(
            np.concatenate([component.lo[pos], component.hi[pos] + 1]),
            weights=np.concatenate([coeff, -coeff]),
            minlength=size + 1,
        )
        # free × (Q_0 ⋯ Q_{c−1}) × (Q_last ⋯ Q_{c+1}), as outer_products().
        outer = free * (math.prod(values[:index]) * math.prod(values[:index:-1]))
        return np.cumsum(diff[:-1]) * outer

    def evaluate(
        self,
        params: ModelParameters,
        masks: Mapping[int, np.ndarray] | None = None,
    ) -> float:
        """``P[α masked]`` for arbitrary (not necessarily fitted) parameters."""
        base = self.evaluation_parts(params)
        return self.masked_value(base, params, masks or {})

    def evaluate_batch(
        self,
        params: ModelParameters,
        masks_list: Sequence[Mapping[int, np.ndarray] | None],
    ) -> np.ndarray:
        """:meth:`evaluate` for a list of queries sharing one base pass."""
        base = self.evaluation_parts(params)
        return np.array(
            [self.masked_value(base, params, masks or {}) for masks in masks_list],
            dtype=float,
        )

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def outer_products(self, parts: EvaluationParts) -> np.ndarray:
        """For each component ``c``: ``free_product × Π_{c'≠c} Q_{c'}``."""
        values = np.asarray(parts.component_values, dtype=float)
        if values.size == 0:
            return values
        return parts.free_product * product_excluding(values)

    @property
    def delta_runs(self) -> list:
        """``(component index, DeltaRun)`` of every run of statistics,
        in ``multi_dim`` order — the order the solver updates δ in."""
        return sorted(
            (
                (index, run)
                for index, component in enumerate(self.components)
                for run in component.runs
            ),
            key=lambda entry: entry[1].start,
        )

    def delta_gradients(
        self,
        parts: EvaluationParts,
        params: ModelParameters,
        known: Mapping[int, list[float]] | None = None,
    ) -> np.ndarray:
        """``∂P/∂δ_j`` of every multi-dimensional statistic ``j`` — the
        sum over the terms containing it, with its ``(δ−1)`` factor
        removed; one pass per run.  ``known`` maps a run's ``start`` to
        its :meth:`~repro.core.terms.DeltaRun.partials`, already computed
        on exactly these parts (the solver's δ sweep hands over each
        component's last run)."""
        known = known or {}
        extended = np.append(params.deltas, 2.0)
        outer = self.outer_products(parts)
        gradients = np.empty(self.num_deltas)
        for index, run in self.delta_runs:
            partials = known.get(run.start)
            if partials is None:
                partials = run.partials(extended, parts.range_products[index])
            gradients[run.start : run.stop] = np.multiply(partials, outer[index])
        return gradients

    # ------------------------------------------------------------------
    # Expected values (Eq. 8)
    # ------------------------------------------------------------------
    def expected_one_dim(
        self, parts: EvaluationParts, params: ModelParameters, total: int, pos: int
    ) -> np.ndarray:
        """``E[⟨c_j, I⟩] = n α_j P_αj / P`` for all 1D statistics of one
        attribute at once."""
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0; model is degenerate")
        gradient = self.masked_gradient(parts, params, {}, pos)
        return total * params.alphas[pos] * gradient / parts.value

    def expected_multi_dim(
        self,
        parts: EvaluationParts,
        params: ModelParameters,
        total: int,
        known: Mapping[int, list[float]] | None = None,
    ) -> np.ndarray:
        """``E[⟨c_j, I⟩] = n δ_j P_δj / P`` for every multi-dimensional
        statistic at once (``known`` as in :meth:`delta_gradients`)."""
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0; model is degenerate")
        gradients = self.delta_gradients(parts, params, known)
        return total * params.deltas * gradients / parts.value


def initial_parameters(polynomial: CompressedPolynomial) -> ModelParameters:
    """Fresh all-ones parameters shaped for the polynomial."""
    return ModelParameters.initial(polynomial.sizes, polynomial.num_deltas)


def masks_from_conjunction(polynomial: CompressedPolynomial, predicate) -> dict:
    """Per-position boolean masks of a query conjunction (helper shared
    by the inference layer and tests)."""
    masks = {}
    for pos in predicate.constrained_positions:
        masks[pos] = predicate.predicate_at(pos).mask(polynomial.sizes[pos])
    return masks


def check_parameter_shapes(
    polynomial: CompressedPolynomial, params: ModelParameters
) -> None:
    """Raise when parameters do not match the polynomial's shape."""
    expected = polynomial.sizes
    if len(params.alphas) != len(expected):
        raise SolverError(
            f"expected {len(expected)} alpha arrays, got {len(params.alphas)}"
        )
    for pos, (alpha, size) in enumerate(zip(params.alphas, expected)):
        if alpha.shape[0] != size:
            raise SolverError(
                f"alpha array for attribute {pos} has size {alpha.shape[0]}, "
                f"expected {size}"
            )
    if params.deltas.shape[0] != polynomial.num_deltas:
        raise SolverError(
            f"expected {polynomial.num_deltas} delta values, got "
            f"{params.deltas.shape[0]}"
        )
