"""Tests for Counts, the count reduction every build path reads.

The row-level oracles — :meth:`Relation.contingency`,
:meth:`Statistic.measure`, :meth:`StatisticSet.verify_against` — stay
the reference: the reduction must agree with them exactly, add exactly
over any chunking of the rows, and fit byte-identical models.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summary import EntropySummary
from repro.data.counts import Counts
from repro.data.relation import Relation
from repro.errors import ReproError
from repro.stats.selection import build_statistic_set, selection_pairs
from repro.stats.statistic import StatisticSet
from tests.test_golden_models import GOLDEN, golden_relation, model_digest

ALL_PAIRS = list(itertools.combinations(range(5), 2))


def assert_same_counts(left: Counts, right: Counts) -> None:
    assert left.schema == right.schema
    assert left.total == right.total
    for mine, theirs in zip(left.marginals, right.marginals, strict=True):
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, theirs)
    assert left.tensors.keys() == right.tensors.keys()
    for key, tensor in left.tensors.items():
        assert tensor.dtype == right.tensors[key].dtype == np.int64
        assert np.array_equal(tensor, right.tensors[key])


def folded(relation: Relation, size: int, attribute_sets) -> Counts:
    """``Counts.of`` each ``size``-row chunk of ``relation``, summed."""
    chunks = [
        relation.sample_rows(np.arange(start, min(start + size, relation.num_rows)))
        for start in range(0, relation.num_rows, size)
    ]
    return functools.reduce(
        operator.add, (Counts.of(chunk, attribute_sets) for chunk in chunks)
    )


@pytest.fixture(scope="module")
def relation():
    return golden_relation()


class TestReadSurface:
    def test_tables_match_the_relation(self, relation):
        counts = Counts.of(relation, ALL_PAIRS)
        assert counts.num_rows == relation.num_rows
        for pos in range(relation.schema.num_attributes):
            assert np.array_equal(counts.marginal(pos), relation.marginal(pos))
        for a, b in ALL_PAIRS:
            for first, second in ((a, b), (b, a)):
                table = counts.contingency(first, second)
                expected = relation.contingency(first, second)
                assert table.dtype == expected.dtype
                assert table.flags.c_contiguous
                assert np.array_equal(table, expected)

    def test_attribute_sets_are_unordered(self, relation):
        counts = Counts.of(relation, [("d", "c"), ("c", "d"), (3, 2)])
        assert list(counts.tensors) == [(2, 3)]

    def test_missing_table_is_a_clean_error(self, relation):
        with pytest.raises(ReproError, match="no count tensor"):
            Counts.of(relation).contingency("a", "b")

    def test_count_matches_the_row_oracle(self, relation):
        """``Counts.count`` equals ``Statistic.measure`` on every
        statistic a fitted model carries, and the assembled set passes
        the row-by-row ``verify_against``."""
        statistic_set = build_statistic_set(
            relation, budget=24, num_pairs=4, heuristic="composite"
        )
        counts = Counts.of(relation, statistic_set.attribute_pairs())
        assert statistic_set.multi_dim
        for statistic in statistic_set.multi_dim:
            assert counts.count(statistic) == statistic.measure(relation)
        StatisticSet.from_counts(counts, statistic_set.multi_dim).verify_against(
            relation
        )


class TestBagUnion:
    def test_counts_add(self, relation):
        head = relation.sample_rows(np.arange(1000))
        tail = relation.sample_rows(np.arange(1000, relation.num_rows))
        assert_same_counts(
            Counts.of(head, ALL_PAIRS) + Counts.of(tail, ALL_PAIRS),
            Counts.of(relation, ALL_PAIRS),
        )

    def test_widened_side_zero_pads_the_other(self, relation):
        grown = golden_relation(rows=300, seed=17, grow=2)
        wide = Relation(
            grown.schema,
            [relation.column(pos) for pos in range(relation.schema.num_attributes)],
        )
        expected = Counts.of(Relation.concat([wide, grown]), ALL_PAIRS)
        for total in (
            Counts.of(relation, ALL_PAIRS) + Counts.of(grown, ALL_PAIRS),
            Counts.of(grown, ALL_PAIRS) + Counts.of(relation, ALL_PAIRS),
        ):
            assert_same_counts(total, expected)

    def test_different_attribute_sets_rejected(self, relation):
        with pytest.raises(ReproError, match="attribute sets"):
            Counts.of(relation, [("a", "b")]) + Counts.of(relation)

    def test_non_widening_schemas_rejected(self, relation):
        order = ["b", "a", "c", "d", "e"]
        reordered = Relation(
            relation.schema.project(order), [relation.column(a) for a in order]
        )
        with pytest.raises(ReproError, match="attribute set"):
            Counts.of(relation) + Counts.of(reordered)


#: Golden cases whose fit reads only counts; each folds to its digest.
FOLD_CASES = {
    "one_dim": {},
    "pairs": {"pairs": [("a", "b"), ("d", "c")], "per_pair_budget": 6},
    **{
        f"auto_{strategy}_{heuristic}": {
            "budget": 12,
            "num_pairs": 2,
            "strategy": strategy,
            "heuristic": heuristic,
        }
        for strategy in ("cover", "correlation")
        for heuristic in ("large", "zero", "composite")
    },
}


class TestChunkedFold:
    @settings(max_examples=16)
    @given(
        size=st.sampled_from((1, 7, 997, 2400)),
        case=st.sampled_from(sorted(FOLD_CASES)),
    )
    def test_fold_is_exact_and_fits_the_golden_model(self, relation, size, case):
        options = FOLD_CASES[case]
        wanted = selection_pairs(relation.schema, **options)
        counts = folded(relation, size, wanted)
        assert_same_counts(counts, Counts.of(relation, wanted))
        summary = EntropySummary.from_statistics(
            build_statistic_set(counts, **options),
            max_iterations=20,
            name="golden",
        )
        assert model_digest(summary) == GOLDEN[case]

    @given(cuts=st.lists(st.integers(0, 2400), max_size=6))
    def test_any_chunking_adds_up(self, relation, cuts):
        bounds = [0, *sorted(cuts), relation.num_rows]
        parts = [
            Counts.of(relation.sample_rows(np.arange(lo, hi)), ALL_PAIRS)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert_same_counts(
            functools.reduce(operator.add, parts), Counts.of(relation, ALL_PAIRS)
        )

    def test_thousand_row_fold_fits_the_golden_model(self, relation):
        counts = folded(relation, 1000, FOLD_CASES["pairs"]["pairs"])
        summary = EntropySummary.from_statistics(
            build_statistic_set(counts, **FOLD_CASES["pairs"]),
            max_iterations=20,
            name="golden",
        )
        assert model_digest(summary) == GOLDEN["pairs"]
