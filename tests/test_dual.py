"""Tests for the dual objective Ψ and the scipy validation solver."""

import numpy as np
import pytest

from repro.core.dual import dual_gradient, dual_value, solve_dual_scipy
from repro.core.polynomial import CompressedPolynomial, initial_parameters
from repro.core.solver import MirrorDescentSolver, solve_statistics
from repro.data.counts import Counts


class TestDualValue:
    def test_gradient_is_constraint_violation(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.3
        gradient = dual_gradient(poly, params)
        # dΨ/dθ_j = s_j − E_j: finite-difference check on one variable.
        pos, index = 1, 2
        epsilon = 1e-6
        theta = np.log(params.alphas[pos][index])
        params.alphas[pos][index] = np.exp(theta + epsilon)
        up = dual_value(poly, params)
        params.alphas[pos][index] = np.exp(theta - epsilon)
        down = dual_value(poly, params)
        params.alphas[pos][index] = np.exp(theta)
        numeric = (up - down) / (2 * epsilon)
        assert gradient["one_dim"][pos][index] == pytest.approx(numeric, rel=1e-4)

    def test_dual_increases_during_solve(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        start = initial_parameters(poly)
        fitted, _ = solve_statistics(poly, max_iterations=100)
        assert dual_value(poly, fitted) > dual_value(poly, start)

    def test_zero_alpha_with_positive_target_is_minus_inf(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        params.alphas[0][0] = 0.0
        if small_statistics.one_dim[0][0] > 0:
            assert dual_value(poly, params) == float("-inf")


class TestScipyAgreement:
    """The independent L-BFGS dual ascent must find the same model as
    Mirror Descent (the MaxEnt distribution is unique even though the
    overcomplete parameters are not)."""

    def test_same_expected_values(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        mirror_params, _ = solve_statistics(poly, max_iterations=300)
        scipy_params, result = solve_dual_scipy(poly)
        total = small_statistics.total
        mirror_parts = poly.evaluation_parts(mirror_params)
        scipy_parts = poly.evaluation_parts(scipy_params)
        for pos in range(poly.schema.num_attributes):
            np.testing.assert_allclose(
                poly.expected_one_dim(mirror_parts, mirror_params, total, pos),
                poly.expected_one_dim(scipy_parts, scipy_params, total, pos),
                atol=0.05,
            )

    def test_same_query_answers(self, small_statistics):
        from repro.core.inference import InferenceEngine

        poly = CompressedPolynomial(small_statistics)
        mirror_params, _ = solve_statistics(poly, max_iterations=300)
        scipy_params, _ = solve_dual_scipy(poly)
        total = small_statistics.total
        mirror_engine = InferenceEngine(poly, mirror_params, total)
        scipy_engine = InferenceEngine(poly, scipy_params, total)
        masks = {0: np.array([True, True, False, False]),
                 1: np.array([False, True, True, False, True])}
        assert mirror_engine.estimate_masks(masks).expectation == pytest.approx(
            scipy_engine.estimate_masks(masks).expectation, rel=0.02, abs=0.5
        )

    def test_constraints_satisfied_by_scipy(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params, result = solve_dual_scipy(poly)
        solver = MirrorDescentSolver(poly)
        assert solver.max_constraint_error(params) < 1e-4

    def test_no_positive_statistics(self, small_schema):
        from repro.data.relation import Relation
        from repro.stats.statistic import StatisticSet

        relation = Relation.from_rows(small_schema, [(0, 0, 0)] * 4)
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        poly = CompressedPolynomial(statistic_set)
        params, result = solve_dual_scipy(poly)
        # Only (0,0,0) exists; all other alphas must be 0.
        assert params.alphas[0][1] == 0.0
        assert params.alphas[0][0] > 0.0
