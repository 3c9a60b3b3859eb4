"""The per-shard reference evaluation — a test oracle, not a code path.

``ShardArena`` evaluates every shard of a sharded model at once from
folded constants; this module does the same job the slow, obvious way,
and the differential tests (``test_arena.py``, ``test_sharding.py``,
``test_cluster.py``) require the two to agree to floating-point noise:
walk the shards one by one, narrow the predicate to the shard's owned
range (a shard whose range the predicate misses is provably zero and is
skipped), ask that shard's own ``InferenceEngine``, and add — counts and
sums by linearity, variances because the shard models are independent.

``shards`` restricts the walk to those global shard indices: the
reference for what one cluster worker should answer for one item.
"""

from __future__ import annotations

import numpy as np

from repro.stats.predicates import conjunction_from_masks


def narrowed(summary, predicate=None, shards=None):
    """``(index, shard, conjunction)`` for every selected shard the
    predicate can touch."""
    schema, ranges = summary.schema, summary.owned_ranges
    masks = {} if predicate is None else predicate.attribute_masks()
    for index, shard in enumerate(summary.shards):
        if shards is not None and index not in shards:
            continue
        shard_masks = dict(masks)
        if ranges is not None:
            pos = summary.by_position
            low, high = ranges[index]
            owned = np.zeros(schema.domain(pos).size, dtype=bool)
            owned[low : high + 1] = True
            shard_masks[pos] = owned & masks.get(pos, True)
            if not shard_masks[pos].any():
                continue
        yield index, shard, conjunction_from_masks(schema, shard_masks)


def count_parts(summary, predicate=None, shards=None) -> dict:
    """``{shard index: (expectation, variance)}`` of the touched shards."""
    parts = {}
    for index, shard, conjunction in narrowed(summary, predicate, shards):
        estimate = shard.engine.estimate(conjunction)
        parts[index] = (estimate.expectation, estimate.variance)
    return parts


def count(summary, predicate=None, shards=None) -> tuple[float, float]:
    """``(expectation, variance)`` of ``COUNT(*) WHERE predicate``."""
    parts = count_parts(summary, predicate, shards).values()
    return sum(e for e, _ in parts), sum(v for _, v in parts)


def group_by(summary, attrs, predicate=None, shards=None) -> dict:
    """``{labels: (expectation, variance)}`` — the union of the shards'
    groups, keyed by domain *labels*."""
    merged: dict[tuple, tuple[float, float]] = {}
    for _, shard, conjunction in narrowed(summary, predicate, shards):
        for labels, estimate in shard.group_by(attrs, conjunction).items():
            expectation, variance = merged.get(labels, (0.0, 0.0))
            merged[labels] = (
                expectation + estimate.expectation,
                variance + estimate.variance,
            )
    return merged


def sum_estimate(summary, attr, weights, predicate=None, shards=None) -> float:
    """``E[SUM(w(attr))] WHERE predicate``."""
    pos = summary.schema.position(attr)
    return sum(
        shard.engine.sum_estimate(pos, weights, conjunction)
        for _, shard, conjunction in narrowed(summary, predicate, shards)
    )
