"""The dual objective Ψ (Sec 2 / Eq. 11) and a generic convex solver.

The MaxEnt parameters maximize the concave dual

    Ψ  =  Σ_j s_j ln(α_j)  −  n ln(P)

whose stationarity conditions are exactly the moment constraints
``E[⟨c_j,I⟩] = s_j``.  This module provides:

* :func:`dual_value` / :func:`dual_gradient` in ``θ = ln α`` space, and
* :func:`solve_dual_scipy` — an L-BFGS ascent via scipy, used as an
  *independent validation solver*: on small models it must agree with
  the Mirror Descent solver, which is one of the test suite's checks.

Statistics with ``s_j = 0`` are eliminated up front (their variables
are exactly 0 at the optimum, pushing ``θ_j → −∞``).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.core.polynomial import CompressedPolynomial
from repro.core.variables import ModelParameters
from repro.errors import SolverError


class _Packing:
    """Maps the free (s > 0) variables into one flat θ vector."""

    def __init__(self, polynomial: CompressedPolynomial):
        statistic_set = polynomial.statistic_set
        self.polynomial = polynomial
        self.one_dim_slots: list[tuple[int, int]] = []
        self.one_dim_targets: list[float] = []
        for pos, counts in enumerate(statistic_set.one_dim):
            for index, count in enumerate(counts):
                if count > 0:
                    self.one_dim_slots.append((pos, index))
                    self.one_dim_targets.append(count)
        self.delta_slots: list[int] = []
        self.delta_targets: list[float] = []
        for stat_id, statistic in enumerate(statistic_set.multi_dim):
            if statistic.value > 0:
                self.delta_slots.append(stat_id)
                self.delta_targets.append(statistic.value)
        self.targets = np.asarray(
            self.one_dim_targets + self.delta_targets, dtype=float
        )

    @property
    def size(self) -> int:
        return len(self.one_dim_slots) + len(self.delta_slots)

    def unpack(self, theta: np.ndarray) -> ModelParameters:
        params = ModelParameters(
            [np.zeros(size) for size in self.polynomial.sizes],
            np.zeros(self.polynomial.num_deltas),
        )
        values = np.exp(theta)
        for slot, (pos, index) in enumerate(self.one_dim_slots):
            params.alphas[pos][index] = values[slot]
        offset = len(self.one_dim_slots)
        for slot, stat_id in enumerate(self.delta_slots):
            params.deltas[stat_id] = values[offset + slot]
        return params

    def expectations(self, params: ModelParameters) -> np.ndarray:
        poly = self.polynomial
        total = poly.statistic_set.total
        parts = poly.evaluation_parts(params)
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0 in dual ascent")
        out = np.empty(self.size, dtype=float)
        cache: dict[int, np.ndarray] = {}
        for slot, (pos, index) in enumerate(self.one_dim_slots):
            if pos not in cache:
                cache[pos] = poly.expected_one_dim(parts, params, total, pos)
            out[slot] = cache[pos][index]
        offset = len(self.one_dim_slots)
        expected = poly.expected_multi_dim(parts, params, total)
        for slot, stat_id in enumerate(self.delta_slots):
            out[offset + slot] = expected[stat_id]
        return out


def dual_value(polynomial: CompressedPolynomial, params: ModelParameters) -> float:
    """``Ψ = Σ_j s_j ln α_j − n ln P`` (``0·ln 0 ≡ 0``)."""
    statistic_set = polynomial.statistic_set
    total = statistic_set.total
    value = polynomial.evaluate(params)
    if value <= 0:
        raise SolverError("polynomial evaluates to 0")
    psi = -total * float(np.log(value))
    for pos, counts in enumerate(statistic_set.one_dim):
        for index, count in enumerate(counts):
            if count > 0:
                alpha = params.alphas[pos][index]
                if alpha <= 0:
                    return float("-inf")
                psi += count * float(np.log(alpha))
    for stat_id, statistic in enumerate(statistic_set.multi_dim):
        if statistic.value > 0:
            delta = params.deltas[stat_id]
            if delta <= 0:
                return float("-inf")
            psi += statistic.value * float(np.log(delta))
    return psi


def dual_gradient(
    polynomial: CompressedPolynomial, params: ModelParameters
) -> dict:
    """``∂Ψ/∂θ_j = s_j − E[⟨c_j,I⟩]`` for every statistic, grouped as
    ``{"one_dim": [per-attribute arrays], "multi_dim": array}``."""
    statistic_set = polynomial.statistic_set
    total = statistic_set.total
    parts = polynomial.evaluation_parts(params)
    one_dim = []
    for pos, counts in enumerate(statistic_set.one_dim):
        expected = polynomial.expected_one_dim(parts, params, total, pos)
        one_dim.append(np.asarray(counts) - expected)
    multi = np.asarray(
        [statistic.value for statistic in statistic_set.multi_dim], dtype=float
    ) - polynomial.expected_multi_dim(parts, params, total)
    return {"one_dim": one_dim, "multi_dim": multi}


def solve_dual_scipy(
    polynomial: CompressedPolynomial,
    max_iterations: int = 500,
    tolerance: float = 1e-10,
) -> tuple[ModelParameters, optimize.OptimizeResult]:
    """Maximize Ψ with scipy's L-BFGS in ``θ = ln α`` space.

    Intended for small models (validation, examples); the Mirror
    Descent solver is the scalable path.
    """
    packing = _Packing(polynomial)
    if packing.size == 0:
        return packing.unpack(np.empty(0)), optimize.OptimizeResult(
            success=True, message="no positive statistics"
        )

    def objective(theta):
        params = packing.unpack(theta)
        value = polynomial.evaluate(params)
        if value <= 0:
            return float("inf"), np.zeros_like(theta)
        total = polynomial.statistic_set.total
        psi = float(np.dot(packing.targets, theta)) - total * float(np.log(value))
        gradient = packing.targets - packing.expectations(params)
        return -psi, -gradient

    theta0 = np.zeros(packing.size)
    result = optimize.minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-10},
    )
    return packing.unpack(result.x), result
