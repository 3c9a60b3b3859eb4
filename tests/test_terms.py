"""Unit tests for compressed-term construction (Theorem 4.1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import terms
from repro.core.terms import build_components
from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import StatisticError
from repro.stats.predicates import Conjunction, RangePredicate
from repro.stats.statistic import Statistic, StatisticSet, range_statistic_2d
from tests import reference


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
    # Two attribute sets interleaved: runs of 1, 1, 2, 2 and 1 statistics.
    [
        ("a", (0, 2), "b", (0, 2)),
        ("b", (0, 2), "c", (0, 5)),
        ("a", (3, 5), "b", (0, 2)),
        ("a", (0, 5), "b", (3, 5)),
        ("b", (3, 5), "c", (0, 2)),
        ("b", (3, 5), "c", (3, 5)),
        ("a", (0, 2), "d", (0, 5)),
    ],
]


class TestIndexesFromCsr:
    """``stat_terms``, the solver's run plan and the δ products are
    derived from the CSR layout with numpy; the per-term tuples they used
    to be built from remain the reference."""

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
        """The δ plan is one :class:`DeltaRun` per maximal stretch of an
        attribute set; its rows and other-statistic columns are the
        per-term tuples'."""
        from repro.core.polynomial import CompressedPolynomial

        statistic_set = make_set(schema, 80, stats)
        multi_dim = statistic_set.multi_dim
        poly = CompressedPolynomial(statistic_set)
        planned = []
        for index, run in poly.delta_runs:
            component = poly.components[index]
            ids = list(range(run.start, run.stop))
            planned.extend(ids)
            # A run is a maximal stretch of one attribute set.
            assert {multi_dim[j].positions for j in ids} == {multi_dim[run.start].positions}
            for edge in (run.start - 1, run.stop):
                if 0 <= edge < len(multi_dim):
                    assert multi_dim[edge].positions != multi_dim[run.start].positions
            assert run.others.shape[1] == run.rows.size
            for offset, stat_id in enumerate(ids):
                assert index == poly.component_of_position(multi_dim[stat_id].positions[0])
                rows = run.rows[run.bounds[offset] : run.bounds[offset + 1]]
                assert rows.tolist() == component.stat_terms[stat_id].tolist()
                columns = run.others[:, run.bounds[offset] : run.bounds[offset + 1]]
                kept = [[o for o in column if o != -1] for column in columns.T.tolist()]
                assert kept == [
                    [other for other in component.term_stats[term] if other != stat_id]
                    for term in rows.tolist()
                ]
        assert planned == list(range(poly.num_deltas))

    @pytest.mark.parametrize("stats", FIXTURES)
    def test_delta_partial_equals_the_per_term_sum(self, schema, stats):
        """The run's δ partials, bit for bit: per statistic, the padded
        ``np.prod(axis=1)`` of its other statistics' factors, times the
        range products, summed with ``.sum()``."""
        from repro.core.polynomial import CompressedPolynomial

        poly = CompressedPolynomial(make_set(schema, 80, stats))
        rng = np.random.default_rng(5)
        extended = np.append(rng.random(poly.num_deltas) * 3, 2.0)
        products = [rng.random(component.num_terms) for component in poly.components]
        for index, run in poly.delta_runs:
            expected = [
                reference.delta_partial(poly.components[index], j, extended, products[index])
                for j in range(run.start, run.stop)
            ]
            np.testing.assert_array_equal(
                run.partials(extended, products[index]), expected
            )

    @pytest.mark.parametrize("stats", FIXTURES)
    def test_delta_products_equal_multiply_at(self, schema, stats):
        components, _ = build_components(make_set(schema, 80, stats))
        rng = np.random.default_rng(7)
        for component in components:
            deltas = rng.random(int(component.stat_ids.max()) + 1) * 3
            expected = np.ones(component.num_terms)
            np.multiply.at(
                expected,
                np.repeat(np.arange(component.num_terms), np.diff(component.stat_indptr)),
                deltas[component.stat_ids] - 1.0,
            )
            np.testing.assert_array_equal(component.delta_products(deltas), expected)
            # The same with the matrix kept by the run plans of a fit.
            assert component.runs
            np.testing.assert_array_equal(component.delta_products(deltas), expected)
            component.release_plans()


def _arrays_equal_reference(statistic_set):
    """``build_components`` equals the recursive reference enumeration
    array for array (components matched by their positions)."""
    components, free = build_components(statistic_set)
    expected, expected_free = reference.enumerate_terms(statistic_set)
    assert free == expected_free
    assert sorted(component.positions for component in components) == sorted(expected)
    for component in components:
        lo, hi, indptr, ids = expected[component.positions]
        for got, want in [(component.stat_indptr, indptr), (component.stat_ids, ids)]:
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        for pos in component.positions:
            for got, want in [(component.lo[pos], lo[pos]), (component.hi[pos], hi[pos])]:
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
    return components


def _statistic_set(schema, rectangles):
    """A statistic set over ``schema`` whose multi-dimensional statistics
    are ``rectangles`` (``{attr: (low, high)}``); the term table
    depends on the predicates only, so every value is 0."""
    total = 720  # divisible by every domain size below
    one_dim = [[total / size] * size for size in schema.sizes()]
    statistics = [
        Statistic(
            Conjunction(schema, {attr: RangePredicate(*rng) for attr, rng in rect.items()}),
            0.0,
        )
        for rect in rectangles
    ]
    return StatisticSet(schema, total, one_dim, statistics)


def _schema(sizes=(6, 6, 6, 6)):
    return Schema([integer_domain(name, size) for name, size in zip("abcd", sizes)])


#: Named configurations: rectangles (``{attr: (low, high)}``) in
#: statistic order.
SHAPES = {
    "chain": [
        {"a": (0, 2), "b": (1, 3)},
        {"b": (2, 5), "c": (0, 3)},
        {"a": (3, 5), "b": (0, 0)},
        {"b": (0, 1), "c": (4, 5)},
    ],
    "triangle": [
        {"a": (0, 3), "b": (1, 4)},
        {"b": (2, 5), "c": (0, 2)},
        {"a": (1, 4), "c": (1, 5)},
        {"a": (4, 5), "c": (0, 0)},
    ],
    "three_dim": [
        {"a": (0, 3), "b": (1, 4), "c": (2, 5)},
        {"c": (0, 3), "d": (2, 4)},
        {"a": (0, 3), "b": (5, 5), "c": (0, 5)},
        {"b": (0, 2), "c": (1, 1)},
    ],
    # (b, c)'s ranges are nested in, touch, and miss (a, b)'s on b.
    "nested_touching_disjoint": [
        {"a": (0, 5), "b": (0, 3)},
        {"b": (1, 2), "c": (0, 5)},
        {"b": (3, 4), "c": (0, 2)},
        {"a": (0, 5), "b": (5, 5)},
        {"b": (5, 5), "c": (3, 5)},
    ],
    # Every (b, c) rectangle misses every (a, b) rectangle on b.
    "all_empty": [
        {"a": (0, 5), "b": (0, 1)},
        {"b": (2, 3), "c": (0, 5)},
        {"a": (2, 4), "b": (4, 4)},
        {"b": (5, 5), "c": (1, 2)},
    ],
}


#: Attribute sets the random configurations draw from: chains,
#: triangles, disjoint pairs and 3-D statistics.
ATTRIBUTE_SETS = [
    ("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "b", "c"), ("b", "c", "d")
]


class TestReferenceEnumeration:
    """Level-by-level enumeration equals the recursive depth-first one
    with ascending candidates (tests/reference.py), array for array."""

    @pytest.mark.parametrize("stats", FIXTURES)
    def test_fixtures(self, schema, stats):
        _arrays_equal_reference(make_set(schema, 80, stats))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes(self, shape):
        _arrays_equal_reference(_statistic_set(_schema(), SHAPES[shape]))

    def test_all_empty_level_adds_no_joint_term(self):
        (component,) = _arrays_equal_reference(
            _statistic_set(_schema(), SHAPES["all_empty"])
        )
        assert max(map(len, component.term_stats)) == 1

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_chunking_does_not_change_the_table(self, shape, monkeypatch):
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 1)
        _arrays_equal_reference(_statistic_set(_schema(), SHAPES[shape]))

    @given(configs=st.data())
    def test_random_configurations(self, configs):
        sizes = configs.draw(st.lists(st.integers(2, 6), min_size=4, max_size=4))
        schema = _schema(sizes)
        attribute_sets = configs.draw(
            st.lists(st.sampled_from(ATTRIBUTE_SETS), min_size=1, max_size=4, unique=True)
        )
        rectangles = []
        for attrs in attribute_sets:
            # Cells of a grid cut along every attribute are pairwise
            # disjoint; a chosen cell is then shrunk inside itself.
            edges = []
            for attr in attrs:
                size = schema.domain(attr).size
                cuts = configs.draw(st.sets(st.integers(1, size - 1), max_size=2))
                bounds = [0, *sorted(cuts), size]
                edges.append([(low, high - 1) for low, high in zip(bounds, bounds[1:])])
            cells = list(itertools.product(*edges))
            for cell in configs.draw(
                st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True)
            ):
                rect = {}
                for attr, (low, high) in zip(attrs, cell):
                    low = configs.draw(st.integers(low, high))
                    rect[attr] = (low, configs.draw(st.integers(low, high)))
                rectangles.append(rect)
        # Interleave the groups' statistics: δ ids need not follow groups.
        order = configs.draw(st.permutations(range(len(rectangles))))
        _arrays_equal_reference(
            _statistic_set(schema, [rectangles[index] for index in order])
        )



class TestTermCap:
    def test_cap_is_exact(self):
        statistic_set = _statistic_set(_schema(), SHAPES["triangle"])
        (component,), _ = build_components(statistic_set)
        build_components(statistic_set, max_terms=component.num_terms)
        with pytest.raises(StatisticError, match="exceeds"):
            build_components(statistic_set, max_terms=component.num_terms - 1)

    def test_cap_crossed_in_the_middle_of_a_level(self, monkeypatch):
        # Chain: level (a, b) leaves 3 terms (empty, {0}, {2}); level
        # (b, c) meets them 2 + 2 + 1 times.  With one term per chunk the
        # survivors are counted 5, 7, 8, so a cap of 6 falls inside the
        # level, after its first chunk.
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 1)
        statistic_set = _statistic_set(_schema(), SHAPES["chain"])
        (component,), _ = build_components(statistic_set)
        assert component.num_terms == 8
        with pytest.raises(StatisticError, match=r"exceeds 6 terms in one component"):
            build_components(statistic_set, max_terms=6)
