"""Unit tests for compressed-term construction (Theorem 4.1)."""

import numpy as np
import pytest

from repro.core.terms import build_components
from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import StatisticError
from repro.stats.statistic import StatisticSet, range_statistic_2d


def make_set(schema, num_rows, stats):
    rng = np.random.default_rng(0)
    columns = [rng.integers(0, size, num_rows) for size in schema.sizes()]
    relation = Relation(schema, columns)
    measured = []
    for attr_a, range_a, attr_b, range_b in stats:
        masks = {}
        for attr, (low, high) in ((attr_a, range_a), (attr_b, range_b)):
            size = schema.domain(attr).size
            mask = np.zeros(size, dtype=bool)
            mask[low : high + 1] = True
            masks[attr] = mask
        measured.append(
            range_statistic_2d(
                schema, attr_a, range_a, attr_b, range_b,
                float(relation.count_where(masks)),
            )
        )
    return StatisticSet.from_counts(Counts.of(relation), measured)


@pytest.fixture
def schema():
    return Schema(
        [integer_domain("a", 6), integer_domain("b", 6), integer_domain("c", 6),
         integer_domain("d", 6)]
    )


class TestComponents:
    def test_no_stats_all_free(self, schema):
        statistic_set = make_set(schema, 50, [])
        components, free = build_components(statistic_set)
        assert components == []
        assert free == [0, 1, 2, 3]

    def test_single_stat_one_component(self, schema):
        statistic_set = make_set(schema, 50, [("a", (0, 2), "b", (1, 3))])
        components, free = build_components(statistic_set)
        assert len(components) == 1
        assert components[0].positions == (0, 1)
        assert free == [2, 3]
        # Terms: empty set + the singleton.
        assert components[0].num_terms == 2

    def test_disjoint_pairs_factor_into_components(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 2), "b", (1, 3)), ("c", (0, 1), "d", (2, 4))],
        )
        components, free = build_components(statistic_set)
        # (a,b) and (c,d) share no attribute: two components, not a
        # 4-attribute cross product.
        assert len(components) == 2
        assert free == []
        assert all(component.num_terms == 2 for component in components)

    def test_overlapping_pairs_create_joint_term(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
        )
        components, _ = build_components(statistic_set)
        assert len(components) == 1
        component = components[0]
        assert component.positions == (0, 1, 2)
        # empty, {0}, {1}, {0,1} (b ranges [1,4] and [2,5] intersect).
        assert component.num_terms == 4
        joint = [stats for stats in component.term_stats if len(stats) == 2]
        assert joint == [(0, 1)]

    def test_non_intersecting_shared_attr_no_joint_term(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (0, 1)), ("b", (4, 5), "c", (0, 2))],
        )
        components, _ = build_components(statistic_set)
        # Same component (shared attribute b) but no joint term
        # (b-ranges [0,1] and [4,5] are disjoint).
        assert len(components) == 1
        assert components[0].num_terms == 3

    def test_joint_term_ranges_are_intersections(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
        )
        components, _ = build_components(statistic_set)
        component = components[0]
        joint_row = component.term_stats.index((0, 1))
        pos_b = 1
        assert component.lo[pos_b][joint_row] == 2
        assert component.hi[pos_b][joint_row] == 4

    def test_empty_term_has_full_ranges(self, schema):
        statistic_set = make_set(schema, 50, [("a", (1, 2), "c", (3, 4))])
        components, _ = build_components(statistic_set)
        component = components[0]
        assert component.term_stats[0] == ()
        assert component.lo[0][0] == 0
        assert component.hi[0][0] == 5

    def test_triple_intersection(self, schema):
        # Three pairs sharing attribute b with mutually intersecting
        # b-ranges on a/c/d -> S-sets up to size 3.
        statistic_set = make_set(
            schema,
            80,
            [
                ("a", (0, 3), "b", (1, 4)),
                ("b", (2, 5), "c", (0, 2)),
                ("b", (0, 3), "d", (1, 3)),
            ],
        )
        components, _ = build_components(statistic_set)
        component = components[0]
        sizes = sorted(len(stats) for stats in component.term_stats)
        # empty + 3 singles + 3 pairs + 1 triple (b ranges all intersect
        # pairwise and jointly: [2,3]).
        assert sizes == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_term_cap_enforced(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
        )
        with pytest.raises(StatisticError, match="exceeds"):
            build_components(statistic_set, max_terms=2)

    def test_stat_terms_index(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
        )
        components, _ = build_components(statistic_set)
        component = components[0]
        for stat_id, term_rows in component.stat_terms.items():
            for row in term_rows.tolist():
                assert stat_id in component.term_stats[row]

    def test_delta_products(self, schema):
        statistic_set = make_set(
            schema,
            50,
            [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
        )
        components, _ = build_components(statistic_set)
        component = components[0]
        deltas = np.array([3.0, 5.0])
        products = component.delta_products(deltas)
        expected = {
            (): 1.0,
            (0,): 2.0,
            (1,): 4.0,
            (0, 1): 8.0,
        }
        for row, stats in enumerate(component.term_stats):
            assert products[row] == pytest.approx(expected[stats])


#: every statistic configuration used above, plus the empty one
FIXTURES = [
    [],
    [("a", (0, 2), "b", (1, 3))],
    [("a", (0, 2), "b", (1, 3)), ("c", (0, 1), "d", (2, 4))],
    [("a", (0, 3), "b", (1, 4)), ("b", (2, 5), "c", (0, 2))],
    [("a", (0, 3), "b", (0, 1)), ("b", (4, 5), "c", (0, 2))],
    [("a", (1, 2), "c", (3, 4))],
    [
        ("a", (0, 3), "b", (1, 4)),
        ("b", (2, 5), "c", (0, 2)),
        ("b", (0, 3), "d", (1, 3)),
    ],
]


class TestIndexesFromCsr:
    """``stat_terms`` and the solver's delta plan are derived from the
    CSR layout with numpy; the per-term tuples they used to be built
    from remain the reference."""

    @pytest.mark.parametrize("stats", FIXTURES)
    def test_stat_terms_equal_the_tuple_built_index(self, schema, stats):
        components, _ = build_components(make_set(schema, 80, stats))
        for component in components:
            expected: dict[int, list[int]] = {}
            for term, term_stats in enumerate(component.term_stats):
                for stat in term_stats:
                    expected.setdefault(stat, []).append(term)
            assert set(component.stat_terms) == set(expected)
            for stat, rows in expected.items():
                assert component.stat_terms[stat].dtype == np.int64
                assert component.stat_terms[stat].tolist() == rows

    @pytest.mark.parametrize("stats", FIXTURES)
    def test_delta_plan_equals_the_tuple_built_plan(self, schema, stats):
        from repro.core.polynomial import CompressedPolynomial
        from repro.core.solver import MirrorDescentSolver

        poly = CompressedPolynomial(make_set(schema, 80, stats))
        plan = MirrorDescentSolver(poly)._build_delta_plan()
        assert len(plan) == poly.num_deltas
        sentinel = poly.num_deltas
        extended = np.append(np.random.default_rng(3).random(sentinel) * 3, 2.0)
        for stat_id, (component_index, rows, others) in enumerate(plan):
            component = poly.components[component_index]
            assert component_index == poly.component_of_stat(stat_id)
            assert rows.tolist() == component.stat_terms[stat_id].tolist()
            expected = [
                [other for other in component.term_stats[term] if other != stat_id]
                for term in rows.tolist()
            ]
            kept = [[o for o in row if o != sentinel] for row in others.tolist()]
            assert kept == expected
            # Padding multiplies by exactly 1.0, wherever it sits.
            width = max(map(len, expected), default=0)
            padded = np.full((len(expected), max(width, 1)), sentinel)
            for index, row in enumerate(expected):
                padded[index, : len(row)] = row
            np.testing.assert_array_equal(
                np.prod(extended[others] - 1.0, axis=1),
                np.prod(extended[padded] - 1.0, axis=1),
            )
