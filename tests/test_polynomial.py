"""Unit + property tests for the compressed polynomial.

The central correctness claim: the compressed polynomial is *identical*
to the naive one-monomial-per-tuple polynomial of Eq. (5) — values,
masked values, and all first derivatives — on any statistic set
satisfying the structural assumptions.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.naive import NaivePolynomial
from repro.core.polynomial import (
    CompressedPolynomial,
    check_parameter_shapes,
    initial_parameters,
    product_excluding,
)
from repro.core.variables import ModelParameters
from repro.data.counts import Counts
from repro.errors import SolverError

from tests.conftest import masked_models, relations_with_stats


class TestProductExcluding:
    def test_simple(self):
        values = np.array([2.0, 3.0, 4.0])
        assert product_excluding(values).tolist() == [12.0, 8.0, 6.0]

    def test_single_zero(self):
        values = np.array([2.0, 0.0, 4.0])
        assert product_excluding(values).tolist() == [0.0, 8.0, 0.0]

    def test_two_zeros(self):
        values = np.array([0.0, 3.0, 0.0])
        assert product_excluding(values).tolist() == [0.0, 0.0, 0.0]

    def test_single_element(self):
        assert product_excluding(np.array([5.0])).tolist() == [1.0]

    def test_axis(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = product_excluding(values, axis=0)
        assert out.tolist() == [[3.0, 4.0], [1.0, 2.0]]


class TestAgainstNaive:
    def test_uniform_parameters_count_tuples(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        params.deltas[:] = 1.0
        assert poly.evaluate(params) == pytest.approx(
            small_statistics.schema.num_possible_tuples()
        )

    def test_evaluation_matches(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        naive = NaivePolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) * 3
        params.deltas[:] = rng.random(params.deltas.size) * 3
        assert poly.evaluate(params) == pytest.approx(naive.evaluate(params))

    def test_masked_evaluation_matches(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        naive = NaivePolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.2
        masks = {0: np.array([True, False, True, False]), 2: np.array([False, True, True])}
        assert poly.evaluate(params, masks) == pytest.approx(
            naive.evaluate(params, masks)
        )

    def test_attribute_gradients_match(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        naive = NaivePolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.1
        params.deltas[:] = rng.random(params.deltas.size) + 0.1
        parts = poly.evaluation_parts(params)
        for pos in range(3):
            expected = naive.attribute_gradient(params, pos)
            actual = poly.masked_gradient(parts, params, {}, pos)
            np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_delta_gradients_match(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        naive = NaivePolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.1
        params.deltas[:] = rng.random(params.deltas.size) + 0.1
        gradients = poly.delta_gradients(poly.evaluation_parts(params), params)
        for stat_id in range(small_statistics.num_multi_dim):
            expected = naive.delta_gradient(params, stat_id)
            assert gradients[stat_id] == pytest.approx(expected, rel=1e-10)

    def test_gradient_with_zero_alphas(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        naive = NaivePolynomial(small_statistics)
        params = initial_parameters(poly)
        params.alphas[0][0] = 0.0
        params.alphas[1][2] = 0.0
        params.deltas[0] = 0.0
        parts = poly.evaluation_parts(params)
        for pos in range(3):
            np.testing.assert_allclose(
                poly.masked_gradient(parts, params, {}, pos),
                naive.attribute_gradient(params, pos),
                rtol=1e-10,
            )

    @given(relations_with_stats())
    def test_property_evaluation_equals_naive(self, data):
        relation, statistic_set = data
        poly = CompressedPolynomial(statistic_set)
        naive = NaivePolynomial(statistic_set)
        generator = np.random.default_rng(relation.num_rows)
        params = ModelParameters(
            [generator.random(size) + 0.05 for size in poly.sizes],
            generator.random(poly.num_deltas) + 0.05,
        )
        assert poly.evaluate(params) == pytest.approx(
            naive.evaluate(params), rel=1e-9
        )

    @given(relations_with_stats())
    def test_property_masked_and_gradients_equal_naive(self, data):
        relation, statistic_set = data
        poly = CompressedPolynomial(statistic_set)
        naive = NaivePolynomial(statistic_set)
        generator = np.random.default_rng(relation.num_rows + 1)
        params = ModelParameters(
            [generator.random(size) + 0.05 for size in poly.sizes],
            generator.random(poly.num_deltas) + 0.05,
        )
        masks = {
            0: generator.random(poly.sizes[0]) > 0.4,
        }
        if not masks[0].any():
            masks[0][0] = True
        assert poly.evaluate(params, masks) == pytest.approx(
            naive.evaluate(params, masks), rel=1e-9, abs=1e-9
        )
        parts = poly.evaluation_parts(params)
        for pos in range(statistic_set.schema.num_attributes):
            np.testing.assert_allclose(
                poly.masked_gradient(parts, params, {}, pos),
                naive.attribute_gradient(params, pos),
                rtol=1e-8,
            )
        gradients = poly.delta_gradients(parts, params)
        for stat_id in range(statistic_set.num_multi_dim):
            assert gradients[stat_id] == pytest.approx(
                naive.delta_gradient(params, stat_id), rel=1e-8, abs=1e-9
            )


def _zeroed(params, masks, keep=None):
    """Parameters with the 1D variables failing ``masks`` set to 0 —
    Sec 4.2 spelled out, for the naive polynomial (``keep`` is the one
    position whose own mask a gradient ignores)."""
    alphas = [
        np.where(masks[pos], alpha, 0.0) if pos in masks and pos != keep else alpha.copy()
        for pos, alpha in enumerate(params.alphas)
    ]
    return ModelParameters(alphas, params.deltas.copy())


def _add_at_gradient(poly, base, pos):
    """``∂P/∂α_pos`` of a component attribute exactly as the solver
    computed it before the masked kernel: ``np.prod`` over the stacked
    range sums, two ``np.add.at`` scatters, ``outer_products``."""
    index = poly.component_of_position(pos)
    component = poly.components[index]
    rows = [base.range_sums[index][p] for p in component.positions if p != pos]
    coeff = np.prod(np.stack(rows, axis=0), axis=0) * base.delta_products[index]
    diff = np.zeros(poly.sizes[pos] + 1)
    np.add.at(diff, component.lo[pos], coeff)
    np.add.at(diff, component.hi[pos] + 1, -coeff)
    return np.cumsum(diff[:-1]) * poly.outer_products(base)[index]


class TestMaskedKernel:
    """``masked_value`` / ``masked_gradient`` start from the unmasked
    parts of the parameters and recompute only what the masks touch;
    the answer must be the naive polynomial's with zeroed variables."""

    @given(masked_models())
    def test_property_value_equals_naive_and_wrappers(self, model):
        statistic_set, poly, params, masks = model
        naive = NaivePolynomial(statistic_set)
        base = poly.evaluation_parts(params)
        value = poly.masked_value(base, params, masks)
        assert value == pytest.approx(
            naive.evaluate(params, masks), rel=1e-9, abs=1e-12
        )
        assert poly.evaluate(params, masks) == value
        batch = poly.evaluate_batch(params, [masks, None, {}, masks])
        assert batch.tolist() == [value, base.value, base.value, value]

    @given(masked_models())
    def test_property_gradient_equals_naive(self, model):
        statistic_set, poly, params, masks = model
        naive = NaivePolynomial(statistic_set)
        base = poly.evaluation_parts(params)
        for pos in range(len(poly.sizes)):
            np.testing.assert_allclose(
                poly.masked_gradient(base, params, masks, pos),
                naive.attribute_gradient(_zeroed(params, masks, keep=pos), pos),
                rtol=1e-9,
                atol=1e-12,
            )

    @given(masked_models())
    def test_property_euler_identity_under_masks(self, model):
        """Σ_v α_v ∂P[masked]/∂α_v over the values a mask on ``pos``
        keeps is ``P[masked]`` again (Eq. 7 after masking)."""
        _, poly, params, masks = model
        base = poly.evaluation_parts(params)
        value = poly.masked_value(base, params, masks)
        for pos in range(len(poly.sizes)):
            weights = params.alphas[pos] * poly.masked_gradient(base, params, masks, pos)
            if pos in masks:
                weights = weights[masks[pos]]
            assert weights.sum() == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_untouched_components_and_masked_free_position(self, rng):
        """Three components plus a free attribute: a mask on the free
        attribute or on some components leaves the others at their base
        values, an all-False mask zeroes the polynomial."""
        from repro.data.domain import integer_domain
        from repro.data.relation import Relation
        from repro.data.schema import Schema
        from repro.stats.statistic import StatisticSet, range_statistic_2d

        schema = Schema([integer_domain(name, 3) for name in "abcdefg"])
        relation = Relation(schema, [rng.integers(0, 3, 120) for _ in range(7)])
        stats = [
            range_statistic_2d(schema, "a", (0, 1), "b", (1, 2), 30.0),
            range_statistic_2d(schema, "c", (1, 2), "d", (0, 1), 40.0),
            range_statistic_2d(schema, "e", (0, 0), "f", (0, 2), 20.0),
        ]
        statistic_set = StatisticSet.from_counts(Counts.of(relation), stats)
        poly = CompressedPolynomial(statistic_set)
        assert len(poly.components) == 3 and poly.free_positions == [6]
        naive = NaivePolynomial(statistic_set)
        params = ModelParameters(
            [rng.random(3) + 0.1 for _ in range(7)], rng.random(3) + 0.1
        )
        base = poly.evaluation_parts(params)
        some = np.array([True, False, True])
        for masks in ({}, {6: some}, {0: some}, {2: some, 6: some}, {1: some, 5: some}):
            assert poly.masked_value(base, params, masks) == pytest.approx(
                naive.evaluate(params, masks), rel=1e-12
            )
            for pos in range(7):
                np.testing.assert_allclose(
                    poly.masked_gradient(base, params, masks, pos),
                    naive.attribute_gradient(_zeroed(params, masks, keep=pos), pos),
                    rtol=1e-12,
                )
        for pos in range(6):
            np.testing.assert_array_equal(
                poly.masked_gradient(base, params, {}, pos),
                _add_at_gradient(poly, base, pos),
            )
        nothing = np.zeros(3, dtype=bool)
        assert poly.masked_value(base, params, {6: nothing}) == 0.0
        assert poly.masked_value(base, params, {1: nothing}) == 0.0
        assert not poly.masked_gradient(base, params, {1: nothing}, 6).any()
        # A mask on the differentiated attribute itself changes nothing.
        np.testing.assert_array_equal(
            poly.masked_gradient(base, params, {0: nothing}, 0),
            poly.masked_gradient(base, params, {}, 0),
        )

    def test_unmasked_gradient_keeps_the_solver_bits(self, small_statistics, rng):
        """With no masks the kernel multiplies and scatters in the order
        the old ``attribute_gradient`` did — the solver's fitted
        parameters depend on every bit of it."""
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.1
        params.deltas[:] = rng.random(params.deltas.size) + 0.1
        base = poly.evaluation_parts(params)
        for pos in poly.components[0].positions:
            np.testing.assert_array_equal(
                poly.masked_gradient(base, params, {}, pos),
                _add_at_gradient(poly, base, pos),
            )


def _assert_same_parts(kept, fresh):
    """Every field of two ``EvaluationParts`` equal bit for bit."""
    for ours, theirs in (
        (kept.prefixes, fresh.prefixes),
        (kept.range_products, fresh.range_products),
        (kept.delta_products, fresh.delta_products),
    ):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)
    assert len(kept.range_sums) == len(fresh.range_sums)
    for ours, theirs in zip(kept.range_sums, fresh.range_sums):
        assert ours.keys() == theirs.keys()
        for pos in ours:
            np.testing.assert_array_equal(ours[pos], theirs[pos])
    assert kept.full_sums == fresh.full_sums
    assert kept.component_values == fresh.component_values
    assert kept.free_product == fresh.free_product
    assert kept.value == fresh.value


class TestRefresh:
    """The solver keeps one ``EvaluationParts`` per fit and refreshes
    only what moved; the fitted parameters depend on the refreshed
    fields being a fresh pass's bit for bit."""

    @given(masked_models(), st.data())
    def test_property_refresh_equals_a_fresh_pass(self, model, data):
        _, poly, params, _ = model
        parts = poly.evaluation_parts(params)
        pos = data.draw(st.integers(0, len(poly.sizes) - 1))
        size = poly.sizes[pos]
        values = st.floats(0.0, 4.0, allow_subnormal=False)
        moved = data.draw(st.lists(values, min_size=size, max_size=size))
        params.alphas[pos][:] = moved
        poly.refresh_attribute(parts, params, pos)
        _assert_same_parts(parts, poly.evaluation_parts(params))

        count = poly.num_deltas
        params.deltas[:] = data.draw(st.lists(values, min_size=count, max_size=count))
        poly.refresh_deltas(parts, params)
        _assert_same_parts(parts, poly.evaluation_parts(params))


class TestLinearity:
    """P is multi-linear: degree 1 in every variable (Sec 3.1)."""

    def test_linear_in_each_alpha(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.1
        for pos in range(3):
            for index in range(poly.sizes[pos]):
                values = []
                for setting in (0.0, 1.0, 2.0):
                    params.alphas[pos][index] = setting
                    values.append(poly.evaluate(params))
                # f(2) - f(1) == f(1) - f(0) for linear functions.
                assert values[2] - values[1] == pytest.approx(
                    values[1] - values[0], rel=1e-9
                )

    def test_linear_in_each_delta(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        for stat_id in range(poly.num_deltas):
            values = []
            for setting in (0.0, 1.0, 2.0):
                params.deltas[stat_id] = setting
                values.append(poly.evaluate(params))
            assert values[2] - values[1] == pytest.approx(
                values[1] - values[0], rel=1e-9
            )
            params.deltas[stat_id] = 1.0


class TestOvercompleteness:
    """Eq. (7): P = Σ_{j∈J_i} α_j P_j — Euler's identity for functions
    linear and homogeneous in one attribute's variables."""

    def test_euler_identity(self, small_statistics, rng):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        for alpha in params.alphas:
            alpha[:] = rng.random(alpha.size) + 0.1
        parts = poly.evaluation_parts(params)
        for pos in range(3):
            gradient = poly.masked_gradient(parts, params, {}, pos)
            total = float(np.dot(params.alphas[pos], gradient))
            assert total == pytest.approx(parts.value, rel=1e-9)


class TestShapesAndSizes:
    def test_size_report(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        report = poly.size_report()
        assert report["num_uncompressed_monomials"] == 60
        assert report["num_terms"] < 60
        assert report["num_variables"] == 12 + 3

    def test_check_parameter_shapes(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        good = initial_parameters(poly)
        check_parameter_shapes(poly, good)
        bad = ModelParameters([np.ones(2)] * 3, np.ones(3))
        with pytest.raises(SolverError):
            check_parameter_shapes(poly, bad)

    def test_mask_shape_mismatch(self, small_statistics):
        poly = CompressedPolynomial(small_statistics)
        params = initial_parameters(poly)
        with pytest.raises(SolverError, match="mask"):
            poly.evaluate(params, {0: np.array([True, False])})
