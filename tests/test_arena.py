"""Tests for the contiguous cross-shard evaluation kernel
(:class:`repro.core.arena.ShardArena`), the one query evaluator.

The arena folds the fitted shard parameters into constants once and
redoes, per query, only the factors a mask constrains: every query
answered through it must match the per-shard reference walk
(``tests/reference.py``) to floating-point noise — COUNT, GROUP BY, SUM
and AVG, with and without attribute-partitioned pruning, over the whole
summary (an unsharded one is a one-shard arena) and, through a cluster
worker's ``ShardSlice``, over any subset of it (``TestKernelDifferential``
is the Hypothesis form of that claim).
The folded constants must never go stale or race
(``TestFoldedConstants``), and the lifecycle pieces (lazy build,
``warm``, hot-swap rebuild, pickling) are covered here too.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Explorer, SummaryStore
from repro.core.arena import ShardArena
from repro.core.polynomial import CompressedPolynomial
from repro.core.sharding import ShardedSummary
from repro.core.summary import EntropySummary
from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.ingest import IngestPipeline
from repro.plan.canonical import canonicalize_conjunction
from repro.query.ast import CountQuery
from repro.query.linear import numeric_weights
from repro.serve import ServeConfig, SummaryServer
from repro.serve.cluster import compute_partial
from repro.serve.server import result_payload
from repro.stats.predicates import (
    Conjunction,
    RangePredicate,
    conjunction_from_masks,
)
from repro.stats.statistic import StatisticSet, range_statistic_2d
from tests import reference
from tests.conftest import parameters_for, relations_with_stats, schemas
from tests.test_cluster import frontend_merge, worker_slices
from tests.test_sharding import _fit


@pytest.fixture(scope="module")
def relation():
    rng = np.random.default_rng(41)
    schema = Schema(
        [integer_domain("A", 4), integer_domain("B", 6), integer_domain("C", 3)]
    )
    columns = []
    for size in schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        weights /= weights.sum()
        columns.append(rng.choice(size, size=500, p=weights))
    return Relation(schema, columns)


@pytest.fixture(scope="module")
def round_robin(relation):
    return _fit(relation, num_shards=3)


@pytest.fixture(scope="module")
def by_attribute(relation):
    return _fit(relation, num_shards=3, by="B")


@pytest.fixture(scope="module")
def by_component(relation):
    """Range-sharded on an attribute that sits inside a component."""
    return _fit(relation, num_shards=3, by="B", pairs=[("A", "B")], budget=6)


@pytest.fixture(scope="module", params=["round_robin", "by_attribute"])
def sharded(request):
    return request.getfixturevalue(request.param)


def _predicates(schema):
    """A mix of shapes: trivial, point, range, multi-attribute, empty."""
    def conj(**ranges):
        return Conjunction(
            schema,
            {
                name: RangePredicate(low, high)
                for name, (low, high) in ranges.items()
            },
        )

    return [
        None,
        conj(A=(1, 2)),
        conj(B=(0, 2)),
        conj(B=(3, 5)),
        conj(B=(2, 2), A=(0, 3)),
        conj(A=(0, 1), B=(1, 4), C=(0, 1)),
        conj(C=(2, 2)),
    ]


# ----------------------------------------------------------------------
# Equivalence with the per-shard reference
# ----------------------------------------------------------------------

def _assert_groups_match(actual, expected):
    """``{labels: QueryEstimate}`` against the reference's
    ``{labels: (expectation, variance)}``."""
    assert set(actual) == set(expected)
    for labels, (expectation, variance) in expected.items():
        assert _close(actual[labels].expectation, expectation)
        assert _close(actual[labels].variance, variance)


class TestArenaEquivalence:
    """"legacy" in these names is the per-shard walk that used to be a
    second evaluation path in ``core/sharding.py`` and now lives in
    ``tests/reference.py``."""

    def test_count_matches_legacy(self, sharded):
        for predicate in _predicates(sharded.schema):
            via_arena = sharded.estimate(predicate)
            expectation, variance = reference.count(sharded, predicate)
            assert _close(via_arena.expectation, expectation)
            assert _close(via_arena.variance, variance)

    def test_batch_matches_legacy(self, sharded):
        predicates = _predicates(sharded.schema)
        for via_arena, predicate in zip(
            sharded.estimate_batch(predicates), predicates
        ):
            expectation, variance = reference.count(sharded, predicate)
            assert _close(via_arena.expectation, expectation)
            assert _close(via_arena.variance, variance)

    @pytest.mark.parametrize("attrs", [("A",), ("C",), ("A", "C"), ("B",)])
    def test_group_by_matches_legacy(self, sharded, attrs):
        for predicate in (None, _predicates(sharded.schema)[3]):
            _assert_groups_match(
                sharded.group_by(attrs, predicate),
                reference.group_by(sharded, attrs, predicate),
            )

    def test_group_by_sharding_attribute(self, by_attribute):
        """Grouping by the partitioned attribute: each shard contributes
        only the labels inside its owned range."""
        _assert_groups_match(
            by_attribute.group_by(("B",)),
            reference.group_by(by_attribute, ("B",)),
        )

    def test_sum_and_avg_match_legacy(self, sharded):
        weights = np.arange(sharded.schema.domain("A").size, dtype=float)
        for predicate in _predicates(sharded.schema):
            assert _close(
                sharded.sum_estimate("A", weights, predicate),
                reference.sum_estimate(sharded, "A", weights, predicate),
            )
        assert sharded.avg_estimate("A", weights) == pytest.approx(
            sharded.sum_estimate("A", weights) / sharded.total, rel=1e-9
        )

    def test_pruned_shards_contribute_exact_zero(self, by_attribute):
        """A predicate confined to one owned range zeroes the other
        shards' polynomials — implicit pruning, same result as the
        reference's explicit skip."""
        self._check_pruned(by_attribute)

    def test_pruned_shards_are_exactly_zero_inside_a_component(self, by_component):
        self._check_pruned(by_component)

    @staticmethod
    def _check_pruned(sharded):
        low, high = sharded.owned_ranges[0]
        predicate = Conjunction(sharded.schema, {"B": RangePredicate(low, high)})
        via_arena = sharded.estimate(predicate)
        assert list(reference.count_parts(sharded, predicate)) == [0]
        assert _close(via_arena.expectation, reference.count(sharded, predicate)[0])
        masks = predicate.attribute_masks()
        per_shard = sharded.arena._masked_values(masks)
        assert per_shard[0] > 0.0 and not per_shard[1:].any()
        numerators = sharded.arena._gradient_numerators(0, masks)
        assert numerators[0].any() and not numerators[1:].any()

    def test_schema_mismatch_raises(self, sharded):
        other = Schema([integer_domain("Z", 3)])
        bad = Conjunction(other, {"Z": RangePredicate(0, 1)})
        with pytest.raises(QueryError, match="different schema"):
            sharded.estimate(bad)


# ----------------------------------------------------------------------
# Lifecycle: build, cache, hot swap, pickling
# ----------------------------------------------------------------------

class TestArenaLifecycle:
    def test_warm_builds_once_and_stats_describe_it(self, relation):
        sharded = _fit(relation, num_shards=3)
        assert sharded._arena is None  # lazy until warmed or queried
        assert sharded.warm() is sharded
        arena = sharded._arena
        assert isinstance(arena, ShardArena)
        assert sharded.arena is arena  # stable across calls
        stats = arena.stats()
        assert stats["shards"] == 3
        assert stats["terms"] >= 0

    @pytest.mark.parametrize("kind", ["sharded", "unsharded"])
    def test_concurrent_first_use_builds_one_arena(self, relation, kind):
        """Threads racing on a model's first query all get the one arena
        its lazy build publishes."""
        model = _fit(relation, num_shards=3 if kind == "sharded" else 0)
        model = model if kind == "sharded" else model.engine
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: model.arena) for _ in range(16)]
                arenas = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(arena is model._arena for arena in arenas)

    def test_result_cache_hits_on_repeat(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        predicate = _predicates(sharded.schema)[1]
        arena = sharded.arena
        arena.clear_cache()
        first = sharded.estimate(predicate)
        assert arena.cache_misses == 1
        second = sharded.estimate(predicate)
        assert arena.cache_hits == 1
        assert second.expectation == first.expectation

    def test_clear_cache_keeps_arena_but_drops_results(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        arena = sharded.arena
        sharded.estimate(_predicates(sharded.schema)[1])
        assert arena.stats()["cache_entries"] >= 1
        sharded.clear_cache()
        # The arena layout derives from immutable shard parameters, so
        # it survives; only the memoized results go.
        assert sharded.arena is arena
        assert arena.stats()["cache_entries"] == 0

    def test_with_shards_rebuilds_the_arena(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        swapped = sharded.with_shards({0: sharded.shards[0]})
        assert swapped._arena is not None  # publish path warms eagerly
        assert swapped._arena is not sharded._arena
        baseline = sharded.estimate(None).expectation
        assert swapped.estimate(None).expectation == pytest.approx(baseline)

    def test_pickle_round_trip_drops_derived_state(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        clone = pickle.loads(pickle.dumps(sharded))
        assert sharded._arena is not None and clone._arena is None
        original = sharded.estimate(_predicates(sharded.schema)[4])
        revived = clone.estimate(_predicates(clone.schema)[4])
        assert revived.expectation == pytest.approx(
            original.expectation, rel=1e-12
        )

    def test_save_load_round_trip_warms(self, relation, tmp_path):
        sharded = _fit(relation, num_shards=3).warm()
        prefix = tmp_path / "model"
        sharded.save(prefix)
        loaded = ShardedSummary.load(prefix)
        assert loaded._arena is not None  # load() warms eagerly
        predicate = _predicates(loaded.schema)[2]
        assert loaded.estimate(predicate).expectation == pytest.approx(
            sharded.estimate(predicate).expectation, rel=1e-9
        )


# ----------------------------------------------------------------------
# The kernel's entry checks
# ----------------------------------------------------------------------

class TestMaskValidation:
    """The arena used to trust mask shapes: a 1-long mask broadcast over
    the whole attribute, a short one died inside numpy, and a mask on an
    unknown position was ignored."""

    BAD = [
        ({0: np.array([True])}, "mask for attribute 0 has shape"),
        ({0: np.array([False])}, "mask for attribute 0 has shape"),
        ({1: np.ones(3, dtype=bool)}, "mask for attribute 1 has shape"),
        ({99: np.ones(4, dtype=bool)}, "attribute 99: no such position"),
        ({-1: np.ones(3, dtype=bool)}, "attribute -1: no such position"),
    ]

    @pytest.mark.parametrize("masks, message", BAD)
    def test_every_path_rejects_malformed_masks(self, by_attribute, masks, message):
        arena = by_attribute.arena
        with pytest.raises(QueryError, match=message):
            arena.estimate_masks_batch([{}, masks])
        with pytest.raises(QueryError, match=message):
            arena.group_by([2], masks)
        with pytest.raises(QueryError, match=message):
            arena.sum_estimate(2, np.arange(3.0), masks)

    def test_well_formed_masks_still_answer(self, by_attribute):
        masks = {0: [True, False, True, False]}  # any boolean sequence
        (expectation, _), = by_attribute.arena.estimate_masks_batch([masks])
        assert 0.0 < expectation < by_attribute.total


# ----------------------------------------------------------------------
# Differential test against the per-shard reference
# ----------------------------------------------------------------------

@st.composite
def sharded_models(draw):
    """2-3 shards over one random schema, each with its own random
    statistic set (so an attribute can be free in one shard and inside a
    component in another) and random positive parameters — with α = 0
    entries, as ``migrated`` / ``pad_parameters`` leave for padded domain
    values, and non-zero α outside the owned ranges, which only the
    narrowing may silence.  Layouts: round-robin, range-sharded with the
    shard attribute free everywhere, range-sharded with it inside a
    component."""
    schema = draw(schemas())
    sizes = schema.sizes()
    layout = draw(st.sampled_from(["round_robin", "by_free", "by_component"]))
    num_shards = draw(st.integers(2, 3))
    by_pos = shard_by = ranges = None
    if layout != "round_robin":
        by_pos = draw(st.integers(0, len(sizes) - 1))
        shard_by = schema.attribute_names[by_pos]
        size = sizes[by_pos]
        num_shards = min(num_shards, size)
        cuts = sorted(
            draw(
                st.sets(
                    st.integers(1, size - 1),
                    min_size=num_shards - 1,
                    max_size=num_shards - 1,
                )
            )
        )
        ranges = list(zip([0] + cuts, [cut - 1 for cut in cuts] + [size - 1]))
    shards = []
    for index in range(num_shards):
        relation, statistic_set = draw(
            relations_with_stats(schema_strategy=st.just(schema))
        )
        multi_dim = list(statistic_set.multi_dim)
        if layout == "by_free":
            multi_dim = [s for s in multi_dim if by_pos not in s.positions]
        elif (
            layout == "by_component"
            and index == 0
            and not any(by_pos in s.positions for s in multi_dim)
        ):
            low, high = sorted((by_pos, (by_pos + 1) % len(sizes)))
            multi_dim.append(
                range_statistic_2d(schema, low, (0, 0), high, (0, 0), 1.0)
            )
        statistic_set = StatisticSet.from_counts(Counts.of(relation), multi_dim)
        polynomial = CompressedPolynomial(statistic_set)
        params = draw(parameters_for(polynomial))
        for pos in draw(st.sets(st.integers(0, len(sizes) - 1))):
            params.alphas[pos][-1] = 0.0
        shards.append(
            EntropySummary(statistic_set, polynomial, params, None, f"s{index}")
        )
    return ShardedSummary(shards, shard_by=shard_by, ranges=ranges)


@st.composite
def unsharded_models(draw):
    """One summary over a random schema and statistic set, with random
    positive parameters (α = 0 entries included): the one-shard arena,
    with no shard attribute and no owned ranges."""
    _, statistic_set = draw(relations_with_stats())
    polynomial = CompressedPolynomial(statistic_set)
    params = draw(parameters_for(polynomial))
    for pos in draw(st.sets(st.integers(0, len(polynomial.sizes) - 1))):
        params.alphas[pos][-1] = 0.0
    return EntropySummary(statistic_set, polynomial, params, None, "one")


def _random_masks(draw, summary, only=None):
    """Non-empty value masks on a random subset of the attributes
    (``only`` pins the shard attribute's mask)."""
    masks = dict(only or {})
    for pos, size in enumerate(summary.schema.sizes()):
        if pos not in masks and draw(st.booleans()):
            bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            if any(bits):
                masks[pos] = np.array(bits, dtype=bool)
    return masks


def _close(actual, expected):
    return actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _predicates_for(summary, draw):
    """The trivial predicate, three random ones and — on a range-sharded
    model — one that prunes every shard but one."""
    schema, sizes = summary.schema, summary.schema.sizes()
    by_pos = getattr(summary, "by_position", None)
    mask_sets = [{}] + [_random_masks(draw, summary) for _ in range(3)]
    if by_pos is not None:
        low, high = draw(st.sampled_from(summary.owned_ranges))
        only = np.zeros(sizes[by_pos], dtype=bool)
        only[draw(st.integers(low, high))] = True
        mask_sets.append(_random_masks(draw, summary, {by_pos: only}))
    return [conjunction_from_masks(schema, masks) for masks in mask_sets]


def _groupings(summary):
    """Every attribute alone, and a pair both ways round: the shard
    attribute as the inner and as the outer group axis."""
    names = summary.schema.attribute_names
    by_pos = getattr(summary, "by_position", None)
    other = 0 if by_pos != 0 else 1
    pair = (names[other], names[by_pos if by_pos is not None else 1 - other])
    return [(name,) for name in names] + [pair, pair[::-1]]


class TestKernelDifferential:
    @given(st.one_of(sharded_models(), unsharded_models()), st.data())
    def test_matches_the_per_shard_reference(self, summary, data):
        schema, sizes = summary.schema, summary.schema.sizes()
        arena = summary.arena
        predicates = _predicates_for(summary, data.draw)

        # COUNT, one at a time and batched (bit-equal: one kernel), and
        # shard by shard: the merge's contributions are the reference's.
        singles = [summary.estimate(predicate) for predicate in predicates]
        arena.clear_cache()
        batch = summary.estimate_batch(predicates)
        for single, batched, predicate in zip(singles, batch, predicates):
            assert batched.expectation == single.expectation
            assert batched.variance == single.variance
            expectation, variance = reference.count(summary, predicate)
            assert _close(single.expectation, expectation)
            assert _close(single.variance, variance)
            parts = reference.count_parts(summary, predicate)
            _, _, contributions = arena.merge(
                arena._masked_values(predicate.attribute_masks())
            )
            for index, part in enumerate(zip(*contributions)):
                assert _close(part, parts.get(index, (0.0, 0.0)))
        if getattr(summary, "by_position", None) is None:
            # No masks at all: n, straight from the folded constants.
            assert _close(singles[0].expectation, float(summary.total))

        # GROUP BY on every attribute, and on two: the shard attribute as
        # inner and as outer; the masks filter group attributes too.
        for attrs in _groupings(summary):
            for predicate in predicates:
                _assert_groups_match(
                    summary.group_by(attrs, predicate),
                    reference.group_by(summary, attrs, predicate),
                )

        # SUM / AVG over every attribute, the shard attribute included.
        for name, size in zip(schema.attribute_names, sizes):
            weights = np.arange(size) + 1.0
            for predicate, count in zip(predicates, singles):
                total = summary.sum_estimate(name, weights, predicate)
                assert _close(
                    total, reference.sum_estimate(summary, name, weights, predicate)
                )
                # AVG of the whole relation divides by n, not by COUNT.
                rows = (
                    summary.total if predicate.is_trivial() else count.expectation
                )
                if rows > 1e-6:
                    assert _close(
                        summary.avg_estimate(name, weights, predicate), total / rows
                    )
                # The one-pass AVG parts are the two-pass answers: the
                # numerators' row sums are the masked values, with the
                # mask on or off the aggregated attribute.
                masks = predicate.attribute_masks()
                assert _close(
                    arena.sum_and_count(schema.position(name), weights, masks),
                    (total, count.expectation, count.variance),
                )

        # An all-False mask answers exactly 0 on every path.
        pos = data.draw(st.integers(0, len(sizes) - 1))
        nothing = {pos: np.zeros(sizes[pos], dtype=bool)}
        target = (pos + 1) % len(sizes)
        assert arena.estimate_masks_batch([nothing]) == [(0.0, 0.0)]
        assert arena.sum_estimate(target, np.ones(sizes[target]), nothing) == 0.0
        assert set(arena.group_by([target], nothing).values()) <= {(0.0, 0.0)}

    @given(sharded_models(), st.data())
    def test_worker_partials_match_the_reference_and_the_arena(self, summary, data):
        """The cluster's path — ``partial_item`` → one ``compute_partial``
        per worker over the shards routed to it → ``merge_partials`` —
        under any shard→worker assignment: replicas (so an item asks a
        worker for a subset of what it owns), one-shard workers,
        non-adjacent ownership, and a dead worker whose uncovered shards
        degrade to their uniform prior."""
        schema, num_shards = summary.schema, summary.num_shards
        workers = data.draw(st.integers(1, num_shards + 1))
        assignment = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, workers - 1), min_size=1, max_size=3, unique=True
                ),
                min_size=num_shards,
                max_size=num_shards,
            )
        )
        live = set(range(workers)) - {data.draw(st.integers(0, workers))}
        covered = {
            shard
            for shard, owners in enumerate(assignment)
            if live.intersection(owners)
        }
        slices = worker_slices(summary, assignment)
        planner = Explorer.attach(summary).planner

        def merged(query, predicate):
            plan = planner.plan(
                query, predicate=canonicalize_conjunction(predicate, schema)
            )
            lost = [
                summary.shards[shard].total
                for shard in plan.route.detail["live_shards"]
                if shard not in covered
            ]
            payload = frontend_merge(
                summary, plan, assignment, live, slices=slices,
                pick=lambda owners: data.draw(st.sampled_from(owners)),
            )
            assert payload.get("degraded", False) == bool(lost)
            whole = None if lost else result_payload(planner.execute(plan))
            return payload, lost, whole

        for predicate in _predicates_for(summary, data.draw):
            # COUNT: the covered shards' reference plus the lost shards'
            # priors (t / 2, t² / 12); nothing lost, the whole arena's.
            payload, lost, whole = merged(CountQuery("R"), predicate)
            expectation, variance = reference.count(summary, predicate, covered)
            count = expectation + sum(t / 2.0 for t in lost)
            assert _close(payload["value"], count)
            assert _close(
                payload["std"] ** 2, variance + sum(t * t / 12.0 for t in lost)
            )
            if whole is not None:
                assert _close(payload["value"], whole["value"])
                assert _close(payload["ci95"], whole["ci95"])

            for attrs in _groupings(summary):
                payload, _, whole = merged(CountQuery("R", group_by=attrs), predicate)
                groups = dict(
                    zip(map(tuple, payload["labels"]), payload["counts"].tolist())
                )
                expected = reference.group_by(summary, attrs, predicate, covered)
                assert set(groups) == set(expected)
                for labels, (value, _) in expected.items():
                    assert _close(groups[labels], value)
                if whole is not None:
                    assert payload["labels"] == whole["labels"]
                    assert _close(payload["counts"], whole["counts"])

            for name in schema.attribute_names:
                weights = numeric_weights(schema.domain(name))
                total = reference.sum_estimate(
                    summary, name, weights, predicate, covered
                )
                payload, _, whole = merged(
                    CountQuery("R", aggregate="sum", aggregate_attr=name), predicate
                )
                assert _close(payload["value"], total)
                if whole is not None:
                    assert _close(payload["value"], whole["value"])
                if count > 1e-6:
                    payload, _, whole = merged(
                        CountQuery("R", aggregate="avg", aggregate_attr=name),
                        predicate,
                    )
                    assert _close(payload["value"], total / count)
                    if whole is not None:
                        assert _close(payload["value"], whole["value"])

            # A worker's AVG partial is one arena pass; it carries what
            # its COUNT and SUM partials carry, whatever it was asked for.
            masks = {
                str(pos): np.flatnonzero(mask).tolist()
                for pos, mask in predicate.attribute_masks().items()
            }
            for shard_slice in slices.values():
                asked = data.draw(
                    st.lists(st.sampled_from(shard_slice.indices), unique=True)
                )
                for name in schema.attribute_names:
                    item = {"masks": masks, "shards": asked, "attr": name}
                    counted, summed, averaged = (
                        compute_partial(shard_slice, {**item, "kind": kind})
                        for kind in ("count", "sum", "avg")
                    )
                    assert _close(
                        [averaged["s"], averaged["e"], averaged["v"]],
                        [summed["s"], counted["e"], counted["v"]],
                    )

        # Shards the worker does not own are not its to answer for: exactly 0.
        shard_slice = next(iter(slices.values()))
        unknown = {"shards": [num_shards, num_shards + 7], "masks": {}}
        assert compute_partial(shard_slice, {"kind": "count", **unknown}) == {
            "kind": "count", "e": 0.0, "v": 0.0,
        }
        name = schema.attribute_names[0]
        assert compute_partial(
            shard_slice, {"kind": "sum", "attr": name, **unknown}
        ) == {"kind": "sum", "s": 0.0}
        assert not compute_partial(
            shard_slice, {"kind": "group", "group_by": [name], **unknown}
        )["labels"]


# ----------------------------------------------------------------------
# The folded constants cannot go stale or race
# ----------------------------------------------------------------------

def _answers(arena, schema):
    """COUNT / GROUP BY / SUM answers of one arena over a fixed mix."""
    mask_sets = [
        {} if predicate is None else predicate.attribute_masks()
        for predicate in _predicates(schema)
    ]
    sizes = schema.sizes()
    arena.clear_cache()
    return (
        [arena.estimate_masks_batch([masks]) for masks in mask_sets],
        [arena.group_by([pos], masks) for masks in mask_sets for pos in (0, 1)],
        [arena.group_by([1, 2], mask_sets[1]), arena.group_by([0, 1], mask_sets[3])],
        [
            arena.sum_estimate(pos, np.arange(sizes[pos]) + 1.0, masks)
            for masks in mask_sets
            for pos in (0, 1)
        ],
    )


def _assert_arena_current(summary):
    """The summary's own arena answers exactly like a freshly built one,
    and like the per-shard reference."""
    schema = summary.schema
    assert _answers(summary.arena, schema) == _answers(ShardArena(summary), schema)
    for predicate in _predicates(schema):
        for attrs in (("A",), ("B",), ("C", "B")):
            _assert_groups_match(
                summary.group_by(attrs, predicate),
                reference.group_by(summary, attrs, predicate),
            )
        for name in ("A", "B"):
            weights = np.arange(schema.domain(name).size) + 1.0
            assert _close(
                summary.sum_estimate(name, weights, predicate),
                reference.sum_estimate(summary, name, weights, predicate),
            )
        assert _close(
            summary.estimate(predicate).expectation,
            reference.count(summary, predicate)[0],
        )


class TestFoldedConstants:
    def test_ingest_appends_rebuild_the_constants(self, by_component):
        pipeline = IngestPipeline(by_component)
        before = _answers(by_component.arena, by_component.schema)
        low, _ = by_component.owned_ranges[0]

        # One-shard refit: the other shard objects are reused as they are.
        report = pipeline.append([(0, low, 0), (1, low, 2)] * 20)
        assert report.shards_refit == (0,)
        one_shard = report.summary
        assert one_shard.shards[1] is by_component.shards[1]
        assert one_shard.arena is not by_component.arena
        _assert_arena_current(one_shard)
        assert _answers(one_shard.arena, one_shard.schema) != before

        # A batch that widens the shard attribute's domain.
        widened = pipeline.append([(0, 6, 1)] * 15 + [(2, 2, 0)] * 5).summary
        assert widened.schema.domain("B").size == 7
        assert widened.arena.sizes[1] == 7
        _assert_arena_current(widened)
        # The old summary's constants still describe the old shards.
        assert _answers(by_component.arena, by_component.schema) == before

    def test_with_shards_and_hot_reload_rebuild_the_constants(
        self, relation, by_component, tmp_path
    ):
        swapped = by_component.with_shards(
            {2: by_component.shards[2].refit(relation.sample_rows(np.arange(200)))}
        )
        _assert_arena_current(swapped)

        store = SummaryStore(tmp_path / "models")
        store.save(by_component, "demo")
        server = SummaryServer(store=store, name="demo", config=ServeConfig())
        IngestPipeline.from_store(store, "demo").append([(3, 5, 2)] * 40)
        assert server.reload() == 2
        served = server._generation.explorer.backend.summary
        assert served.total == by_component.total + 40
        _assert_arena_current(served)

    def test_concurrent_queries_are_bit_identical_to_serial(self, by_component):
        arena, schema = by_component.arena, by_component.schema
        serial = _answers(arena, schema)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(_answers, arena, schema) for _ in range(8)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == serial for result in results)

    def test_stats_report_the_folded_bytes(self, by_component, round_robin):
        stats = by_component.arena.stats()
        assert stats["terms"] > 0 and stats["components"] == 3
        # Stacked α and their prefix sums alone are 2 · 8 · S · Σ size
        # bytes; the per-term constants come on top.
        floor = 2 * 8 * 3 * sum(by_component.schema.sizes())
        assert stats["bytes"] > floor + 8 * stats["terms"]
        assert round_robin.arena.stats()["bytes"] > floor  # no components
