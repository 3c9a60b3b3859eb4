"""The reference evaluation and term enumeration — test oracles, not
code paths.

``ShardArena`` is the only evaluator in ``src/``: it answers every model,
sharded or not, from constants folded across all its shards.  This
module does the same job the slow, obvious way, straight from each
fitted model's own polynomial, and the differential tests
(``test_arena.py``, ``test_inference.py``, ``test_sharding.py``,
``test_cluster.py``) require the two to agree to floating-point noise:
walk the shards one by one (an unsharded summary is its own single
shard), narrow the predicate to the shard's owned range (a shard whose
range the predicate misses is provably zero and is skipped), evaluate
``CompressedPolynomial.masked_value`` / ``masked_gradient`` at the
fitted parameters (paper Sec 4.2: excluded 1D variables set to 0), and
add — counts and sums by linearity, variances because the shard models
are independent.

``shards`` restricts the walk to those global shard indices: the
reference for what one cluster worker should answer for one item.

:func:`enumerate_terms` is the oracle for ``core.terms.build_components``:
the recursive depth-first enumeration of Theorem 4.1's statistic sets,
one call per term, trying groups and their statistics in ascending
order.  Its emission order is the canonical term order.

:func:`delta_partial` is the oracle for the solver's run plan
(``core.terms.DeltaRun``): one statistic's δ partial from the per-term
tuples, the padded ``np.prod(axis=1)`` then ``.sum()`` that the run
plan must reproduce bit for bit.

:func:`condition_mask` is the oracle for label resolution
(``query.linear.resolve``): every label of the domain tested one by one
in Python, with :func:`_literal_matches` and :func:`_comparison_mask`
kept as the per-label implementation they replaced, and
:func:`_entry_from_mask` turning a mask into its canonical predicate.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.data.binning import Bucket
from repro.data.domain import Domain
from repro.errors import QueryError
from repro.stats.predicates import RangePredicate, SetPredicate


def narrowed(summary, predicate=None, shards=None):
    """``(index, shard, masks)`` for every selected shard the predicate
    can touch."""
    schema = summary.schema
    ranges = getattr(summary, "owned_ranges", None)
    masks = {} if predicate is None else predicate.attribute_masks()
    for index, shard in enumerate(getattr(summary, "shards", None) or [summary]):
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
        yield index, shard, shard_masks


class _Fitted:
    """One shard's polynomial at its fitted parameters: the unmasked
    evaluation parts and ``P``, computed once per oracle call."""

    def __init__(self, shard):
        self.polynomial, self.params, self.total = (
            shard.polynomial, shard.params, shard.total
        )
        self.base = self.polynomial.evaluation_parts(self.params)
        self.full = self.polynomial.evaluate(self.params)

    def estimate(self, value):
        """``(expectation, variance)`` of a masked polynomial value: the
        shard's ``n`` rows each land in the region with ``p = value / P``."""
        value = max(value, 0.0)
        p = min(value / self.full, 1.0)
        return value * self.total / self.full, self.total * p * (1.0 - p)

    def value(self, masks):
        return self.polynomial.masked_value(self.base, self.params, masks)

    def numerators(self, masks, pos):
        """``α_v · ∂P[masked]/∂α_v`` for every value ``v`` of ``pos``."""
        others = {p: mask for p, mask in masks.items() if p != pos}
        gradient = self.polynomial.masked_gradient(self.base, self.params, others, pos)
        return self.params.alphas[pos] * gradient


def count_parts(summary, predicate=None, shards=None) -> dict:
    """``{shard index: (expectation, variance)}`` of the touched shards."""
    parts = {}
    for index, shard, masks in narrowed(summary, predicate, shards):
        fitted = _Fitted(shard)
        parts[index] = fitted.estimate(fitted.value(masks))
    return parts


def count(summary, predicate=None, shards=None) -> tuple[float, float]:
    """``(expectation, variance)`` of ``COUNT(*) WHERE predicate``."""
    parts = count_parts(summary, predicate, shards).values()
    return sum(e for e, _ in parts), sum(v for _, v in parts)


def group_by(summary, attrs, predicate=None, shards=None) -> dict:
    """``{labels: (expectation, variance)}`` — the union of the shards'
    groups, keyed by domain *labels*.  Outer group attributes are
    iterated value by value; the inner one is one gradient pass (Eq. 19
    over every value); a mask on a group attribute filters its labels."""
    schema = summary.schema
    positions = [schema.position(attr) for attr in attrs]
    *outer, inner = positions
    labels = [schema.domain(pos).labels for pos in positions]
    merged: dict[tuple, tuple[float, float]] = {}
    for _, shard, masks in narrowed(summary, predicate, shards):
        fitted = _Fitted(shard)
        allowed = {
            pos: masks.pop(pos, np.ones(schema.domain(pos).size, dtype=bool))
            for pos in positions
        }
        for combo in itertools.product(
            *(np.flatnonzero(allowed[pos]).tolist() for pos in outer)
        ):
            row_masks = dict(masks)
            for pos, value in zip(outer, combo):
                row_masks[pos] = np.arange(schema.domain(pos).size) == value
            numerators = fitted.numerators(row_masks, inner)
            for value in np.flatnonzero(allowed[inner]).tolist():
                key = tuple(
                    domain[index] for domain, index in zip(labels, combo + (value,))
                )
                expectation, variance = fitted.estimate(numerators[value])
                previous = merged.get(key, (0.0, 0.0))
                merged[key] = (previous[0] + expectation, previous[1] + variance)
    return merged


def sum_estimate(summary, attr, weights, predicate=None, shards=None) -> float:
    """``E[SUM(w(attr))] WHERE predicate``."""
    pos = summary.schema.position(attr)
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for _, shard, masks in narrowed(summary, predicate, shards):
        fitted = _Fitted(shard)
        counts = [
            fitted.estimate(numerator)[0]
            for numerator in fitted.numerators(masks, pos).tolist()
        ]
        allowed = masks.get(pos, np.ones(len(counts), dtype=bool))
        total += float(np.dot(weights, np.where(allowed, counts, 0.0)))
    return total


def enumerate_terms(statistic_set) -> tuple[dict, list[int]]:
    """``({positions: (lo, hi, stat_indptr, stat_ids)}, free_positions)``
    — every component's term table, keyed by its attribute positions,
    with ``lo`` / ``hi`` as ``{position: int64[T]}``."""
    sizes = statistic_set.schema.sizes()
    groups: dict[tuple, list] = {}
    for index, statistic in enumerate(statistic_set.multi_dim):
        rect = {}
        for pos in statistic.positions:
            rng = statistic.range_at(pos)
            rect[pos] = (rng.low, rng.high)
        groups.setdefault(statistic.positions, []).append((index, rect))

    # Attribute sets sharing an attribute belong to one component.
    components: list[list[tuple]] = []
    for key in sorted(groups):
        touching = [c for c in components if any(set(key) & set(k) for k in c)]
        components = [c for c in components if c not in touching]
        components.append(sorted([key, *(k for c in touching for k in c)]))

    tables = {}
    for keys in components:
        group_list = [groups[key] for key in keys]
        positions = sorted({pos for key in keys for pos in key})
        terms = []

        def extend(start, ranges, stats):
            terms.append((ranges, stats))
            for gi in range(start, len(group_list)):
                for index, rect in group_list[gi]:
                    narrowed_ranges = dict(ranges)
                    for pos, (low, high) in rect.items():
                        narrowed_ranges[pos] = (
                            max(ranges[pos][0], low),
                            min(ranges[pos][1], high),
                        )
                    if all(low <= high for low, high in narrowed_ranges.values()):
                        extend(gi + 1, narrowed_ranges, stats + (index,))

        extend(0, {pos: (0, sizes[pos] - 1) for pos in positions}, ())
        lo = {
            pos: np.array([ranges[pos][0] for ranges, _ in terms], dtype=np.int64)
            for pos in positions
        }
        hi = {
            pos: np.array([ranges[pos][1] for ranges, _ in terms], dtype=np.int64)
            for pos in positions
        }
        lengths = [len(stats) for _, stats in terms]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        ids = np.array([i for _, stats in terms for i in stats], dtype=np.int64)
        tables[tuple(positions)] = (lo, hi, indptr, ids)
    used = {pos for key in groups for pos in key}
    return tables, [pos for pos in range(len(sizes)) if pos not in used]


def delta_partial(component, stat_id, extended, range_products) -> float:
    """``∂Q_c/∂δ_j`` of one statistic: its rows' other statistics padded
    with the sentinel slot of ``extended`` (``δ − 1 = 1``), multiplied
    along each row by ``np.prod``, times the rows' range products,
    summed by ``.sum()``."""
    rows = component.stat_terms[stat_id].tolist()
    others = [[o for o in component.term_stats[t] if o != stat_id] for t in rows]
    padded = np.full((len(rows), max(map(len, others)) + 1), extended.size - 1)
    for row, row_others in enumerate(others):
        padded[row, : len(row_others)] = row_others
    dprod = np.prod(extended[padded] - 1.0, axis=1)
    return float((range_products[rows] * dprod).sum())


def _label_key(label):
    """String form used to match SQL literals against composite labels
    (e.g. city labels ``('WA', 'Seattle')`` match ``'WA/Seattle'``)."""
    if isinstance(label, tuple):
        return "/".join(str(part) for part in label)
    return None


def _literal_matches(domain: Domain, literal) -> int | None:
    """Domain index of a literal, or ``None`` when it does not resolve
    to a single label."""
    if literal in domain:
        return domain.index_of(literal)
    if isinstance(literal, str):
        for index, label in enumerate(domain.labels):
            if _label_key(label) == literal:
                return index
    if isinstance(literal, (int, float)):
        for index, label in enumerate(domain.labels):
            if isinstance(label, Bucket) and literal in label:
                return index
    return None


def _comparison_mask(domain: Domain, op: str, literal) -> np.ndarray:
    """Mask for ``A <op> literal`` under per-label-kind semantics:

    * plain labels compare by value (numbers) — the domain must be
      sorted for a range to result; an unsorted one gives a set, which
      the canonical predicate accepts as well;
    * bucket labels use overlap semantics (``A < v`` keeps buckets
      starting below ``v``; ``A > v`` keeps buckets ending above it).
    """
    labels = domain.labels
    mask = np.zeros(domain.size, dtype=bool)
    for index, label in enumerate(labels):
        if isinstance(label, Bucket):
            if op == "<":
                mask[index] = label.low < literal
            elif op == "<=":
                mask[index] = label.low <= literal
            elif op == ">":
                mask[index] = label.high > literal
            elif op == ">=":
                # ``[low, high)`` holds no value ``>= high``; only a
                # right-closed bucket reaches its upper bound.
                if label.closed_right:
                    mask[index] = label.high >= literal
                else:
                    mask[index] = label.high > literal
            else:
                raise QueryError(f"unsupported bucket comparison {op!r}")
        else:
            try:
                if op == "<":
                    mask[index] = label < literal
                elif op == "<=":
                    mask[index] = label <= literal
                elif op == ">":
                    mask[index] = label > literal
                elif op == ">=":
                    mask[index] = label >= literal
                else:
                    raise QueryError(f"unsupported comparison {op!r}")
            except TypeError:
                raise QueryError(
                    f"cannot compare {literal!r} with label {label!r} of "
                    f"attribute {domain.name!r}"
                ) from None
    return mask


def _entry_from_mask(mask: np.ndarray):
    """Tightest predicate for a value mask; None when trivial."""
    hits = np.flatnonzero(mask)
    if hits.size == mask.size:
        return None
    if hits[-1] - hits[0] + 1 == hits.size:
        return RangePredicate(int(hits[0]), int(hits[-1]))
    return SetPredicate(hits.tolist())


def condition_mask(domain: Domain, condition) -> np.ndarray:
    """Boolean value mask of one condition, label by label."""
    if condition.op in ("=", "!=", "in"):
        mask = np.zeros(domain.size, dtype=bool)
        for literal in condition.values:
            index = _literal_matches(domain, literal)
            if index is not None:
                mask[index] = True
        return ~mask if condition.op == "!=" else mask
    if condition.op == "between":
        low, high = condition.values
        return _comparison_mask(domain, ">=", low) & _comparison_mask(
            domain, "<=", high
        )
    return _comparison_mask(domain, condition.op, condition.values[0])
