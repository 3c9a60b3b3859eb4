"""Unit tests for repro.stats.statistic."""

import pytest

from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import StatisticError
from repro.stats.predicates import Conjunction, RangePredicate, SetPredicate
from repro.stats.statistic import (
    Statistic,
    StatisticSet,
    point_statistic,
    range_statistic_2d,
)


@pytest.fixture
def schema():
    return Schema([integer_domain("a", 3), integer_domain("b", 4)])


@pytest.fixture
def relation(schema):
    return Relation.from_rows(
        schema, [(0, 0), (0, 1), (1, 1), (2, 3), (2, 3), (1, 0)]
    )


class TestStatistic:
    def test_point_statistic(self, schema):
        statistic = point_statistic(schema, "a", 1, 7.0)
        assert statistic.positions == (0,)
        assert statistic.dimension == 1
        assert statistic.value == 7.0

    def test_range_statistic_2d(self, schema):
        statistic = range_statistic_2d(schema, "a", (0, 1), "b", (2, 3), 5.0)
        assert statistic.positions == (0, 1)
        assert statistic.range_at(0) == RangePredicate(0, 1)
        assert statistic.range_at(1) == RangePredicate(2, 3)

    def test_range_at_unconstrained_is_full(self, schema):
        statistic = point_statistic(schema, "a", 1, 7.0)
        assert statistic.range_at(1) == RangePredicate(0, 3)

    def test_range_at_rejects_set_predicate(self, schema):
        statistic = Statistic(
            Conjunction(schema, {"a": SetPredicate([0, 2])}), 3.0
        )
        with pytest.raises(StatisticError, match="range predicates"):
            statistic.range_at(0)

    def test_measure(self, schema, relation):
        statistic = range_statistic_2d(schema, "a", (2, 2), "b", (3, 3), 0.0)
        assert statistic.measure(relation) == 2

    def test_negative_value_rejected(self, schema):
        with pytest.raises(StatisticError):
            point_statistic(schema, "a", 0, -1.0)

    def test_same_attribute_twice_rejected(self, schema):
        with pytest.raises(StatisticError, match="distinct"):
            range_statistic_2d(schema, "a", (0, 1), "a", (1, 2), 1.0)


class TestStatisticSet:
    def test_from_counts_builds_marginals(self, relation):
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        assert statistic_set.total == 6
        assert statistic_set.one_dim[0] == [2.0, 2.0, 2.0]
        assert statistic_set.one_dim[1] == [2.0, 2.0, 0.0, 2.0]
        assert statistic_set.num_one_dim == 7
        assert statistic_set.num_statistics == 7

    def test_overcompleteness_enforced(self, schema):
        with pytest.raises(StatisticError, match="overcompleteness"):
            StatisticSet(schema, 6, [[1.0, 1.0, 1.0], [2.0, 2.0, 0.0, 2.0]])

    def test_wrong_vector_length(self, schema):
        with pytest.raises(StatisticError, match="length"):
            StatisticSet(schema, 6, [[6.0], [2.0, 2.0, 0.0, 2.0]])

    def test_disjointness_enforced(self, schema, relation):
        first = range_statistic_2d(schema, "a", (0, 1), "b", (0, 1), 3.0)
        overlapping = range_statistic_2d(schema, "a", (1, 2), "b", (1, 2), 1.0)
        statistic_set = StatisticSet.from_counts(Counts.of(relation), [first])
        with pytest.raises(StatisticError, match="disjoint"):
            statistic_set.add_multi_dim(overlapping)

    def test_disjoint_same_pair_allowed(self, schema, relation):
        first = range_statistic_2d(schema, "a", (0, 0), "b", (0, 1), 2.0)
        second = range_statistic_2d(schema, "a", (1, 2), "b", (0, 1), 2.0)
        statistic_set = StatisticSet.from_counts(Counts.of(relation), [first, second])
        assert statistic_set.num_multi_dim == 2

    def test_overlap_on_other_pair_allowed(self, schema, relation):
        # Statistics over different attribute sets may overlap freely.
        range_statistic_2d(schema, "a", (0, 1), "b", (0, 1), 3.0)
        schema3 = Schema(
            [integer_domain("a", 3), integer_domain("b", 4), integer_domain("c", 2)]
        )
        relation3 = Relation.from_rows(
            schema3, [(0, 0, 0), (1, 1, 1), (2, 3, 0)]
        )
        stats = [
            range_statistic_2d(schema3, "a", (0, 1), "b", (0, 1), 2.0),
            range_statistic_2d(schema3, "b", (0, 2), "c", (0, 0), 1.0),
        ]
        statistic_set = StatisticSet.from_counts(Counts.of(relation3), stats)
        assert statistic_set.num_multi_dim == 2

    def test_one_dim_statistic_rejected_as_multi(self, schema, relation):
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        with pytest.raises(StatisticError, match=">= 2 attributes"):
            statistic_set.add_multi_dim(point_statistic(schema, "a", 0, 2.0))

    def test_value_above_cardinality_rejected(self, schema, relation):
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        too_big = range_statistic_2d(schema, "a", (0, 2), "b", (0, 3), 100.0)
        with pytest.raises(StatisticError, match="exceeds cardinality"):
            statistic_set.add_multi_dim(too_big)

    def test_verify_against_passes_for_measured(self, relation):
        schema = relation.schema
        statistic = range_statistic_2d(
            schema, "a", (2, 2), "b", (3, 3), 2.0
        )
        statistic_set = StatisticSet.from_counts(Counts.of(relation), [statistic])
        statistic_set.verify_against(relation)

    def test_verify_against_detects_mismatch(self, relation):
        schema = relation.schema
        statistic = range_statistic_2d(schema, "a", (2, 2), "b", (3, 3), 1.0)
        statistic_set = StatisticSet.from_counts(Counts.of(relation), [statistic])
        with pytest.raises(StatisticError, match="mismatch"):
            statistic_set.verify_against(relation)

    def test_attribute_pairs(self, relation):
        schema = relation.schema
        stats = [
            range_statistic_2d(schema, "a", (0, 0), "b", (0, 0), 1.0),
            range_statistic_2d(schema, "a", (1, 1), "b", (1, 1), 1.0),
        ]
        statistic_set = StatisticSet.from_counts(Counts.of(relation), stats)
        assert statistic_set.attribute_pairs() == {(0, 1)}


class TestVectorisedDisjointness:
    """The constructor's one pairwise test per attribute set reports the
    pair an insertion-order scan would meet first."""

    @pytest.mark.parametrize("cells", [1, 1 << 20])
    def test_first_overlap_in_insertion_order(self, cells, monkeypatch):
        from repro.stats import statistic as module

        monkeypatch.setattr(module, "_OVERLAP_CELLS", cells)
        schema = Schema(
            [integer_domain("a", 3), integer_domain("b", 4), integer_domain("c", 3)]
        )
        stats = [
            range_statistic_2d(schema, "a", (0, 0), "b", (0, 0), 1.0),  # 0
            range_statistic_2d(schema, "b", (0, 1), "c", (0, 0), 1.0),  # 1
            range_statistic_2d(schema, "a", (1, 1), "b", (0, 1), 1.0),  # 2
            range_statistic_2d(schema, "a", (2, 2), "b", (0, 0), 1.0),  # 3
            range_statistic_2d(schema, "a", (1, 2), "b", (1, 1), 2.0),  # 4: meets 2
            range_statistic_2d(schema, "b", (1, 3), "c", (0, 2), 1.0),  # 5: meets 1
            range_statistic_2d(schema, "a", (0, 0), "b", (0, 3), 1.0),  # 6: meets 0
        ]
        with pytest.raises(StatisticError) as raised:
            StatisticSet(schema, 6, [[2.0] * 3, [1.5] * 4, [2.0] * 3], stats)
        assert str(raised.value).endswith(f"{stats[4]!r} overlaps {stats[2]!r}")
        disjoint = [stats[i] for i in (0, 1, 2, 3)]
        assert StatisticSet(
            schema, 6, [[2.0] * 3, [1.5] * 4, [2.0] * 3], disjoint
        ).multi_dim == disjoint
