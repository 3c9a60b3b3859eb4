"""Unit + property tests for the Mirror Descent solver (Algorithm 1).

Post-condition under test: after solving, the model's expected values
match the asserted statistics — ``E[⟨c_j, I⟩] ≈ s_j`` for every 1D and
multi-dimensional statistic.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import MirrorDescentSolver, solve_statistics
from repro.data.counts import Counts
from repro.errors import SolverError

from tests import reference
from tests.conftest import masked_models, relations_with_stats


class TestConvergence:
    def test_solves_small_model(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params, report = solve_statistics(poly, max_iterations=200)
        assert report.final_error < 1e-6
        assert report.converged

    def test_constraints_satisfied(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params, _ = solve_statistics(poly, max_iterations=200)
        solver = MirrorDescentSolver(poly)
        errors = solver.constraint_errors(params)
        for per_attr in errors["one_dim"]:
            assert per_attr.max() < 1e-3
        if errors["multi_dim"].size:
            assert errors["multi_dim"].max() < 1e-3

    def test_zero_statistics_pin_alpha_to_zero(self, small_relation):
        from repro.data.relation import Relation
        from repro.stats.statistic import StatisticSet, range_statistic_2d

        schema = small_relation.schema
        # Empty the (A=3, B=4) cell deterministically, then assert it
        # as a ZERO statistic.
        keep = ~(
            (small_relation.column("A") == 3) & (small_relation.column("B") == 4)
        )
        relation = Relation(
            schema,
            [small_relation.column(pos)[keep] for pos in range(3)],
        )
        statistic = range_statistic_2d(schema, "A", (3, 3), "B", (4, 4), 0.0)
        statistic_set = StatisticSet.from_counts(Counts.of(relation), [statistic])
        poly = CompressedPolynomial(statistic_set)
        params, _ = solve_statistics(poly, max_iterations=50)
        assert params.deltas[0] == 0.0

    def test_zero_marginal_pins_one_dim(self, small_schema):
        from repro.data.relation import Relation
        from repro.stats.statistic import StatisticSet

        # Value 3 of attribute A never occurs.
        rows = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 4, 1)] * 5
        relation = Relation.from_rows(small_schema, rows)
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        poly = CompressedPolynomial(statistic_set)
        params, _ = solve_statistics(poly, max_iterations=50)
        assert params.alphas[0][3] == 0.0

    def test_error_trace_monotone_overall(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        _, report = solve_statistics(poly, max_iterations=60)
        trace = report.error_trace
        # Coordinate ascent on a concave dual: the tail of the trace
        # must improve on the head.
        assert trace[-1] < trace[0]

    def test_callback_invoked(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        seen = []
        solve_statistics(
            poly,
            max_iterations=5,
            threshold=0.0,
            callback=lambda i, e: seen.append((i, e)),
        )
        assert [i for i, _ in seen] == [0, 1, 2, 3, 4]

    def test_warm_start_from_params(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params, _ = solve_statistics(poly, max_iterations=100)
        solver = MirrorDescentSolver(poly, max_iterations=1)
        warmed, report = solver.solve(params=params)
        assert report.final_error < 1e-6

    def test_nan_parameter_raises_with_its_report(self, small_statistics):
        # max(0.0, nan) is 0.0: a NaN fit used to report convergence.
        poly = CompressedPolynomial(small_statistics)
        params, _ = solve_statistics(poly, max_iterations=5)
        params.alphas[0][0] = np.nan
        with pytest.raises(SolverError, match="not finite") as caught:
            MirrorDescentSolver(poly, max_iterations=5).solve(params=params)
        report = caught.value.report
        assert report.warm_started and not report.converged
        assert report.iterations == 1
        assert np.isnan(report.final_error)

    def test_invalid_max_iterations(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        with pytest.raises(SolverError):
            MirrorDescentSolver(poly, max_iterations=0)


class TestModelAgreesWithData:
    """After solving, the model's distribution reproduces the measured
    statistics but stays maximal-entropy elsewhere."""

    def test_marginals_match(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params, _ = solve_statistics(poly, max_iterations=200)
        naive = NaivePolynomial(small_statistics)
        total = small_statistics.total
        probabilities = naive.tuple_probabilities(params)
        for pos in range(3):
            expected = np.zeros(poly.sizes[pos])
            for row, p in enumerate(probabilities):
                expected[naive.tuple_indices[row, pos]] += p * total
            np.testing.assert_allclose(
                expected, small_statistics.one_dim[pos], atol=1e-2
            )

    def test_one_dim_only_model_is_product_of_marginals(self, small_relation):
        from repro.stats.statistic import StatisticSet

        statistic_set = StatisticSet.from_counts(Counts.of(small_relation))
        poly = CompressedPolynomial(statistic_set)
        params, _ = solve_statistics(poly, max_iterations=100)
        naive = NaivePolynomial(statistic_set)
        probabilities = naive.tuple_probabilities(params)
        total = statistic_set.total
        marginals = [
            np.asarray(counts) / total for counts in statistic_set.one_dim
        ]
        for row in range(naive.num_monomials):
            indices = naive.tuple_indices[row]
            independent = np.prod(
                [marginals[pos][indices[pos]] for pos in range(3)]
            )
            assert probabilities[row] == pytest.approx(independent, abs=1e-6)

    @given(relations_with_stats(max_stats=3))
    @settings(max_examples=15)
    def test_property_constraints_satisfied(self, data):
        relation, statistic_set = data
        poly = CompressedPolynomial(statistic_set)
        solver = MirrorDescentSolver(poly, max_iterations=600, threshold=1e-9)
        params, report = solver.solve()
        # Relative violation of every constraint under 0.2% of n.
        # (Coordinate ascent converges slowly on tiny degenerate
        # schemas; the paper's configurations run far from this regime.)
        assert solver.max_constraint_error(params) < 2e-3


def _reference_multi_dim_errors(poly, params, statistic_set):
    """The residual statistic by statistic, each δ partial from the
    per-term tuples (``reference.delta_partial``)."""
    parts = poly.evaluation_parts(params)
    outer = poly.outer_products(parts)
    extended = np.append(params.deltas, 2.0)
    errors = []
    for stat_id, statistic in enumerate(statistic_set.multi_dim):
        index = poly.component_of_position(statistic.positions[0])
        grad_q = reference.delta_partial(
            poly.components[index], stat_id, extended, parts.range_products[index]
        )
        expected = (
            statistic_set.total
            * float(params.deltas[stat_id])
            * (grad_q * outer[index])
            / parts.value
        )
        errors.append(abs(expected - statistic.value))
    return np.array(errors)


class TestVectorisedResidual:
    @given(masked_models())
    def test_property_equals_the_per_statistic_loop(self, model):
        statistic_set, poly, params, _ = model
        solver = MirrorDescentSolver(poly)
        errors = solver.constraint_errors(params)["multi_dim"]
        reference = _reference_multi_dim_errors(poly, params, statistic_set)
        assert errors.shape == reference.shape
        np.testing.assert_allclose(
            errors, reference, rtol=1e-12, atol=1e-12 * statistic_set.total
        )
        one_dim = max(
            (float(e.max()) for e in solver.constraint_errors(params)["one_dim"])
        )
        worst = max([one_dim, *reference.tolist()]) / statistic_set.total
        assert solver.max_constraint_error(params) == pytest.approx(worst, rel=1e-12)

    def test_residual_after_a_solve(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        solver = MirrorDescentSolver(poly, max_iterations=5)
        params, report = solver.solve()
        reference = _reference_multi_dim_errors(poly, params, small_statistics)
        np.testing.assert_allclose(
            solver.constraint_errors(params)["multi_dim"], reference, rtol=1e-12
        )
        assert report.final_error == solver.max_constraint_error(params)

    def test_a_solve_leaves_no_reuse_state(self, small_statistics, rng):
        """What a solve hands from its sweeps to its residual check stays
        inside that solve: afterwards, the standalone checks on other
        parameters equal a fresh solver's bit for bit."""
        poly = CompressedPolynomial(small_statistics)
        solver = MirrorDescentSolver(poly, max_iterations=5)
        params, report = solver.solve()
        assert report.final_error == solver.max_constraint_error(params)
        # New range products (the run partials read them) and a far-off
        # δ for the last statistic — the last run, whose partials the
        # solve reused — so its residual is the largest.
        other = params.copy()
        for alpha in other.alphas:
            alpha *= rng.random(alpha.size) + 0.5
        other.deltas *= 2.0
        other.deltas[-1] *= 25.0
        fresh = MirrorDescentSolver(CompressedPolynomial(small_statistics))
        assert solver.max_constraint_error(other) == fresh.max_constraint_error(other)
        ours, theirs = solver.constraint_errors(other), fresh.constraint_errors(other)
        for mine, reference_errors in zip(ours["one_dim"], theirs["one_dim"]):
            np.testing.assert_array_equal(mine, reference_errors)
        np.testing.assert_array_equal(ours["multi_dim"], theirs["multi_dim"])
        assert theirs["multi_dim"][-1] == max(
            float(errors.max()) for errors in [*theirs["one_dim"], theirs["multi_dim"]]
        )
