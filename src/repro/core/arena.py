"""The contiguous shard arena: every shard's fitted constants, folded once.

This is the only code that evaluates a query against fitted parameters,
narrows it to each shard and merges the shards.  Every model answers
through one arena over itself (:class:`ArenaModel`): an unsharded
:class:`~repro.core.summary.EntropySummary` (through its
:class:`~repro.core.inference.InferenceEngine`) is a one-shard arena
with no shard attribute, a :class:`~repro.core.sharding.ShardedSummary`
one arena over all its shards, and a cluster worker one over the shards
it owns (:class:`~repro.serve.cluster.ShardSlice`).
Paper Sec 4.2 evaluates ``P`` with the excluded 1D variables zeroed,
and almost none of that evaluation depends on the query.
:class:`ShardArena` therefore restructures the *fitted* shard
parameters once — at load, reload, or publish time; the arena is
rebuilt whenever the shard set changes, so the constants live and die
with the object — into flat float64 arrays across **all** shards:

* ``alphas[pos]`` — every shard's 1D variables of an attribute, stacked
  ``(S, size)``; the shard attribute's are zeroed outside each shard's
  owned range, which is what makes shard pruning implicit (a shard the
  predicate misses evaluates to exactly 0, and reports no label it does
  not own);
* ``prefixes[pos]`` — their unmasked prefix sums, ``(S · (size + 1),)``
  flat, and the free-attribute full sums read off them;
* one :class:`_Block` per distinct component attribute set: the term
  rows of every shard's component over those attributes, contiguous,
  with their δ products, per attribute the table of *distinct*
  ``(shard, lo, hi)`` ranges as flat indices into the prefix array
  (a few hundred against thousands of term rows) and each row's range
  in the smallest unsigned dtype, and the unmasked component values.

A query's cost is set by the attributes it constrains, not by the term
count.  Per block, the terms are grouped by the query's *constrained
set* ``K`` — the block's attributes the masks touch, plus the left-out
attribute of a GROUP BY / SUM: the terms of one component that share
their distinct range on every attribute of ``K`` are summed into one
group whose weight folds in δ and the unmasked range sums of every
attribute outside ``K`` (:class:`_Grouping`).  A query then redoes only
what its masks constrain: masked prefix sums of the constrained
attributes, one small gather per distinct range, one ``take`` per group
for each attribute of ``K``, one ``np.add.reduceat`` per block; blocks
no mask touches reuse their component values.  On the benchmark's
33 285-term M1, one constrained attribute leaves 53–198 groups, a pair
842–1 644 and a triple 6 416–23 210 (M8's 22 023 rows: 121–531,
1 386–2 465 and 7 513–15 446); grouping by all of a block's attributes
is the per-term evaluation, so there is one layout rule and no second
path.  Groupings are built on first use, once per ``(block, K)`` under
the build lock, live on the arena only (so they die with it on load,
reload, publish and ``with_shards``, and are never pickled or saved),
and number at most ``2^|block| − 1`` per block: all 15 of M1's 4-attribute
block hold ≈ 1.0 MB, and the arena with all of them is smaller than the
per-term layout it replaced (1.4 against 2.4 MB).
Everything folds by multiplication — padded domains carry α = 0, so
nothing may divide.
GROUP BY and SUM use the gradient trick of
:meth:`CompressedPolynomial.masked_gradient` on the same products:
leave the attribute's own factors out, ``np.bincount`` the group
coefficients onto the attribute's distinct ranges and those onto the
ranges' ends, one ``cumsum`` (and the row sums of those numerators are
the COUNT, so an AVG is one pass: ``sum_and_count``).  Batches and
multi-attribute GROUP BY combinations loop this one-query kernel —
which makes batched answers bit-equal to single ones.  A cold COUNT
costs ≈ 70 µs on M1 and ≈ 80 µs on M8 (was ≈ 280 and ≈ 220 µs on the
per-term kernel; 2-vCPU box), the gradient behind a GROUP BY ≈ 100 µs
(≈ 290 / 230).  No scratch is shared between calls: executor threads
evaluate on one arena concurrently.

The kernel yields one value per shard, and :meth:`ShardArena.merge` is
the one place those become per-shard ``(expectation, variance)``
contributions and their sum, which :class:`QueryEstimate` carries.
Every entry point takes an optional shard *selection* — a boolean mask
over the arena's shards, which the cluster frontend's replica router
picks per query — restricting both the contributions summed and the
labels a GROUP BY reports; partial sums over disjoint selections add up
to the whole answer, which is all the frontend's merge has left to do.

Results are cached on the canonical mask key (the serve layer's
canonical predicate keys collapse to identical masks); the cache is
bounded and cleared wholesale when full.
"""

from __future__ import annotations

import itertools
import math
import threading
from operator import getitem
from typing import Mapping, Sequence

import numpy as np

from repro.errors import QueryError

#: Bounded result-cache entries (cleared wholesale when full).
CACHE_SIZE = 8192

#: two-sided 95% normal quantile for confidence intervals.
_Z95 = 1.959963984540054

#: Serialises lazy arena builds.  One lock for the process: builds are
#: rare (first query, load, publish) and take milliseconds, and a
#: per-model lock would have to be rebuilt after every unpickle.
_BUILD_LOCK = threading.Lock()


def round_half_up(value: float) -> int:
    """Round with halves going up (Python's ``round`` is banker's)."""
    return int(math.floor(value + 0.5))


class QueryEstimate:
    """Approximate answer to one counting query over ``total`` rows.

    ``variance`` is what :meth:`ShardArena.merge` adds up: each shard's
    Binomial ``n_s·p·(1−p)`` under its model (paper Sec 7), so one
    summary's answer is a single Binomial and a sharded one combines its
    shards in quadrature.  It excludes model bias.
    """

    __slots__ = ("expectation", "variance", "total")

    def __init__(self, expectation: float, variance: float, total: int):
        self.expectation = expectation
        self.variance = max(variance, 0.0)
        self.total = total

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% interval, clipped to ``[0, n]``."""
        half = _Z95 * self.std
        return (
            max(self.expectation - half, 0.0),
            min(self.expectation + half, float(self.total)),
        )

    @property
    def rounded(self) -> int:
        """Paper-style rounding: values ≥ .5 round up (Sec 4.3's
        discussion of estimates near 0.5)."""
        return round_half_up(self.expectation)

    def __repr__(self):
        return (
            f"QueryEstimate({self.expectation:.3f} ± {self.std:.3f}, "
            f"n={self.total})"
        )


class _Block:
    """The term rows of every component over one attribute set, shard
    after shard, with the constants of the fitted parameters."""

    __slots__ = ("positions", "shards", "starts", "dprod", "ranges", "base_values")

    def __init__(self, positions, members, prefixes, strides):
        self.positions = positions
        self.shards = np.asarray([s for s, _, _ in members], dtype=np.intp)
        counts = [component.num_terms for _, component, _ in members]
        #: ``reduceat`` offsets: one segment of term rows per component.
        self.starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        self.dprod = np.concatenate([dprod for _, _, dprod in members])
        shard_of = np.repeat(self.shards, counts)
        #: pos -> (row -> distinct range in the smallest unsigned dtype,
        #: range -> flat prefix index of ``lo``, of ``hi + 1``).
        self.ranges: dict[int, tuple] = {}
        for pos in positions:
            offset = shard_of * strides[pos]
            lo = offset + np.concatenate([c.lo[pos] for _, c, _ in members])
            hi = offset + np.concatenate([c.hi[pos] for _, c, _ in members]) + 1
            flat = prefixes[pos]
            distinct, row_range = np.unique(
                lo * flat.shape[0] + hi, return_inverse=True
            )
            range_lo, range_hi = np.divmod(distinct, flat.shape[0])
            row_range = row_range.ravel().astype(
                np.min_scalar_type(distinct.size - 1)
            )
            self.ranges[pos] = (row_range, range_lo, range_hi)
        self.base_values = np.add.reduceat(
            self.folded(positions, prefixes), self.starts
        )

    def folded(self, positions, prefixes) -> np.ndarray:
        """Per-term ``dprod · Π_{p ∈ positions} rangesum_p`` over the
        unmasked prefix sums."""
        product = self.dprod
        for pos in positions:
            row_range, range_lo, range_hi = self.ranges[pos]
            flat = prefixes[pos]
            product = product * (flat.take(range_hi) - flat.take(range_lo)).take(
                row_range
            )
        return product

    def arrays(self):
        yield from (self.shards, self.starts, self.dprod, self.base_values)
        for arrays in self.ranges.values():
            yield from arrays


class _Grouping:
    """One block's terms summed over every attribute but ``key``: the
    terms of a component that share their distinct range on each
    attribute of ``key`` are one group, weighted by the sum of their
    ``dprod · Π_{p ∉ key} rangesum_p`` (unmasked).  A query that
    constrains exactly ``key`` (plus, for GROUP BY / SUM, the attribute
    left out) multiplies one masked range sum per attribute and group
    into those weights; grouping by every position of the block is the
    per-term evaluation.  Built once per ``(block, key)`` on first use."""

    __slots__ = ("weights", "ranges", "starts")

    def __init__(self, block: _Block, key: tuple, prefixes):
        num_terms = block.dprod.shape[0]
        component = np.repeat(
            np.arange(block.starts.shape[0]),
            np.diff(block.starts, append=num_terms),
        )
        # One int64 code per term: component first, then each
        # attribute's distinct range in mixed radix (re-ranked densely
        # before the radix product could overflow).
        code, radix = component.astype(np.int64), block.starts.shape[0]
        for pos in key:
            row_range, range_lo, _ = block.ranges[pos]
            if radix * range_lo.shape[0] >= 2**62:
                _, code = np.unique(code, return_inverse=True)
                radix = int(code.max()) + 1
            code = code * range_lo.shape[0] + row_range
            radix *= range_lo.shape[0]
        order = np.argsort(code, kind="stable")
        code = code[order]
        first = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
        rest = [pos for pos in block.positions if pos not in key]
        self.weights = np.add.reduceat(block.folded(rest, prefixes)[order], first)
        rows = order[first]
        self.ranges = {pos: block.ranges[pos][0][rows] for pos in key}
        self.starts = np.searchsorted(
            component[rows], np.arange(block.starts.shape[0])
        )

    def arrays(self):
        yield from (self.weights, self.starts, *self.ranges.values())


class ShardArena:
    """Contiguous evaluation kernel over one set of fitted shards: a
    :class:`~repro.core.sharding.ShardedSummary`, or the shards one
    cluster worker owns (:class:`~repro.serve.cluster.ShardSlice`) —
    anything with ``shards``, ``schema``, ``by_position`` and
    ``owned_ranges``, one shard or many — or one fitted model (an
    :class:`~repro.core.summary.EntropySummary` or its
    :class:`~repro.core.inference.InferenceEngine`), which is its own
    single shard.  A shard is anything with ``polynomial``, ``params``,
    ``total`` and ``partition_value``.  Rebuild (``ShardArena(summary)``)
    whenever the shard set changes — on load, hot reload, and
    delta-refresh publish."""

    def __init__(self, summary):
        shards = getattr(summary, "shards", None) or [summary]
        schema = summary.schema
        self.schema = schema
        self.sizes = schema.sizes()
        self.num_shards = S = len(shards)
        self.by_pos = getattr(summary, "by_position", None)
        self.totals = np.asarray(
            [float(shard.total) for shard in shards], dtype=np.float64
        )
        self.fulls = np.asarray(
            [float(shard.partition_value) for shard in shards], dtype=np.float64
        )
        self.scales = self.totals / self.fulls

        # -- owned ranges of the shard attribute ----------------------
        ranges = getattr(summary, "owned_ranges", None)
        if ranges is None:
            self.owned = None
        else:
            self.owned = np.zeros((S, self.sizes[self.by_pos]), dtype=bool)
            for index, (low, high) in enumerate(ranges):
                self.owned[index, low : high + 1] = True

        # -- stacked 1D parameters and their unmasked prefix sums -----
        self.alphas = [
            np.stack([shard.params.alphas[pos] for shard in shards]).astype(
                np.float64
            )
            for pos in range(len(self.sizes))
        ]
        if self.owned is not None:
            self.alphas[self.by_pos] *= self.owned
        self.prefixes = [self._prefix(alpha) for alpha in self.alphas]

        # -- free attributes: pos -> (which shards, factor per shard) --
        self.free: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for pos, size in enumerate(self.sizes):
            free = np.asarray(
                [pos in shard.polynomial.free_positions for shard in shards]
            )
            if free.any():
                full = self.prefixes[pos][size :: size + 1]
                self.free[pos] = (free, np.where(free, full, 1.0))

        # -- one block of term rows per component attribute set -------
        members: dict[tuple, list] = {}
        for s, shard in enumerate(shards):
            for component in shard.polynomial.components:
                members.setdefault(tuple(sorted(component.positions)), []).append(
                    (s, component, component.delta_products(shard.params.deltas))
                )
        strides = [size + 1 for size in self.sizes]
        self.blocks = [
            _Block(positions, group, self.prefixes, strides)
            for positions, group in members.items()
        ]
        self.num_terms = sum(block.dprod.shape[0] for block in self.blocks)

        #: ``(block index, key)`` -> :class:`_Grouping`, built lazily;
        #: at most ``2^|positions| − 1`` per block, gone with the arena.
        self._groupings: dict[tuple, _Grouping] = {}
        self._cache: dict[tuple, tuple[float, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # The one-query kernel
    # ------------------------------------------------------------------
    @staticmethod
    def _prefix(alpha: np.ndarray) -> np.ndarray:
        """Flat ``(S · (size + 1),)`` per-shard prefix sums of ``(S, size)``."""
        prefix = np.zeros((alpha.shape[0], alpha.shape[1] + 1), dtype=np.float64)
        np.cumsum(alpha, axis=1, out=prefix[:, 1:])
        return prefix.ravel()

    def _checked(self, masks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """``masks`` as boolean arrays, each position and length checked
        (a short mask would broadcast, an unknown position be ignored)."""
        checked = {}
        for pos, mask in masks.items():
            if not 0 <= pos < len(self.sizes):
                raise QueryError(f"mask on attribute {pos}: no such position")
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (self.sizes[pos],):
                raise QueryError(
                    f"mask for attribute {pos} has shape {mask.shape}, "
                    f"expected ({self.sizes[pos]},)"
                )
            checked[pos] = mask
        return checked

    def _grouping(self, index: int, key: tuple) -> _Grouping:
        """Block ``index``'s terms grouped by the attribute set ``key``,
        built on first use (double-checked under the build lock, so
        racing first queries build it once)."""
        grouping = self._groupings.get((index, key))
        if grouping is None:
            with _BUILD_LOCK:
                grouping = self._groupings.get((index, key))
                if grouping is None:
                    grouping = _Grouping(self.blocks[index], key, self.prefixes)
                    self._groupings[(index, key)] = grouping
        return grouping

    def _group_terms(self, index: int, prefixes, skip: int | None = None):
        """``(grouping, per-group coefficients)`` of block ``index``:
        its terms grouped by the constrained attributes (and ``skip``),
        each group's weight times one masked range sum per constrained
        attribute but ``skip``, gathered once per distinct range."""
        block = self.blocks[index]
        key = tuple(
            pos for pos in block.positions if pos in prefixes or pos == skip
        )
        grouping = self._grouping(index, key)
        product = grouping.weights
        for pos in key:
            if pos == skip:
                continue
            _, range_lo, range_hi = block.ranges[pos]
            flat = prefixes[pos]
            sums = (flat.take(range_hi) - flat.take(range_lo)).take(
                grouping.ranges[pos]
            )
            if product is grouping.weights:
                product = product * sums
            else:
                product *= sums
        return grouping, product

    def _shard_factors(self, prefixes, skip: int | None = None) -> np.ndarray:
        """``(S,)`` masked free product × component values per shard,
        with attribute ``skip`` left out (its free factor dropped, or
        its component held at 1)."""
        values = np.ones(self.num_shards, dtype=np.float64)
        for pos, (free, factor) in self.free.items():
            if pos == skip:
                continue
            flat = prefixes.get(pos)
            if flat is not None:
                size = self.sizes[pos]
                factor = np.where(free, flat[size :: size + 1], 1.0)
            values *= factor
        for index, block in enumerate(self.blocks):
            if skip in block.positions:
                continue
            if prefixes.keys().isdisjoint(block.positions):
                values[block.shards] *= block.base_values
            else:
                grouping, product = self._group_terms(index, prefixes)
                values[block.shards] *= np.add.reduceat(product, grouping.starts)
        return values

    def _masked_prefixes(self, masks: Mapping[int, np.ndarray]) -> dict:
        """Sec 4.2 — excluded 1D variables become 0 — as flat prefix
        sums of the constrained attributes only."""
        return {
            pos: self._prefix(self.alphas[pos] * mask) for pos, mask in masks.items()
        }

    def _masked_values(self, masks: Mapping[int, np.ndarray]) -> np.ndarray:
        """``(S,)`` masked polynomial values — the analogue of
        ``CompressedPolynomial.masked_value`` across every shard at once."""
        return self._shard_factors(self._masked_prefixes(masks))

    def _gradient_numerators(
        self, pos: int, masks: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """``(S, size)`` of ``α_v · ∂P_masked/∂α_v`` per shard — the
        per-value numerators behind GROUP BY and SUM (Eq. 19 over every
        shard and value at once).  A mask on ``pos`` itself has no
        effect: the partial does not depend on the attribute's own
        variables (callers apply it to the labels instead)."""
        S, stride = self.num_shards, self.sizes[pos] + 1
        prefixes = self._masked_prefixes(masks)
        outer = self._shard_factors(prefixes, skip=pos)
        # Difference array over [lo, hi] per shard: coefficients summed
        # per distinct range, scattered onto the range ends, one cumsum.
        diff = np.zeros(S * stride, dtype=np.float64)
        for index, block in enumerate(self.blocks):
            if pos in block.positions:
                _, range_lo, range_hi = block.ranges[pos]
                grouping, product = self._group_terms(index, prefixes, skip=pos)
                coeff = np.bincount(
                    grouping.ranges[pos],
                    weights=product,
                    minlength=range_lo.shape[0],
                )
                diff += np.bincount(range_lo, weights=coeff, minlength=S * stride)
                diff -= np.bincount(range_hi, weights=coeff, minlength=S * stride)
        gradient = np.cumsum(diff.reshape(S, stride)[:, :-1], axis=1)
        if pos in self.free:
            # Free in these shards: ∂P/∂α_v is value-independent.
            gradient[self.free[pos][0]] = 1.0
        gradient *= outer[:, None]
        gradient *= self.alphas[pos]
        return gradient

    # ------------------------------------------------------------------
    # COUNT
    # ------------------------------------------------------------------
    def _selected(self, selection) -> np.ndarray | None:
        """``selection`` as an ``(S,)`` boolean mask over this arena's
        shards (``None`` = every shard), shape-checked like a value mask."""
        if selection is None:
            return None
        selection = np.asarray(selection)
        if selection.dtype != bool or selection.shape != (self.num_shards,):
            raise QueryError(
                f"shard selection must be a boolean mask of shape "
                f"({self.num_shards},), got {selection.dtype} {selection.shape}"
            )
        return selection

    def merge(self, values: np.ndarray, selection: np.ndarray | None = None):
        """The one merge: per-shard masked values → per-shard
        contributions and their sum.

        ``values`` is ``(S,)`` (a COUNT) or ``(S, size)`` (one column per
        label of a GROUP BY / SUM attribute).  Every row lives in exactly
        one shard and the shard models are fitted independently, so shard
        ``s`` contributes the expectation ``n_s · v_s / P_s`` and the
        Binomial variance ``n_s · p (1 − p)``, ``p = v_s / P_s``, and both
        add.  ``selection`` keeps the selected shards' contributions only.
        Returns ``(expectation, variance, (e_s, v_s))`` — the sums, and
        the per-shard arrays they are the sums of.
        """
        column = (slice(None),) + (None,) * (values.ndim - 1)
        values = np.maximum(values, 0.0)
        p = np.minimum(values / self.fulls[column], 1.0)
        expectations = values * self.scales[column]
        variances = self.totals[column] * (p * (1.0 - p))
        if selection is not None:
            expectations, variances = expectations[selection], variances[selection]
        return (
            expectations.sum(axis=0),
            variances.sum(axis=0),
            (expectations, variances),
        )

    @staticmethod
    def _mask_key(masks: Mapping[int, np.ndarray], selection) -> tuple:
        key = tuple((pos, masks[pos].tobytes()) for pos in sorted(masks))
        return key if selection is None else (*key, selection.tobytes())

    def estimate_masks_batch(
        self, masks_list: Sequence[Mapping[int, np.ndarray]], selection=None
    ) -> list[tuple[float, float]]:
        """``(expectation, variance)`` per mask dict over the selected
        shards (default: all), cache-assisted."""
        selection = self._selected(selection)
        out = []
        for masks in masks_list:
            masks = self._checked(masks)
            key = self._mask_key(masks, selection)
            merged = self._cache.get(key)
            if merged is None:
                self.cache_misses += 1
                expectation, variance, _ = self.merge(
                    self._masked_values(masks), selection
                )
                merged = (float(expectation), float(variance))
                if len(self._cache) >= CACHE_SIZE:
                    self._cache.clear()
                self._cache[key] = merged
            else:
                self.cache_hits += 1
            out.append(merged)
        return out

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # GROUP BY / SUM
    # ------------------------------------------------------------------
    def _live_mask(
        self, base_masks: Mapping[int, np.ndarray], selection=None
    ) -> np.ndarray:
        """``(S,)`` — selected shards whose owned range meets the
        predicate (every selected shard when round-robin); the rest are
        exactly pruned."""
        constraint = None if self.owned is None else base_masks.get(self.by_pos)
        if constraint is None:
            live = np.ones(self.num_shards, dtype=bool)
        else:
            live = (self.owned & constraint).any(axis=1)
        return live if selection is None else live & selection

    def group_by(
        self,
        positions: Sequence[int],
        base_masks: Mapping[int, np.ndarray],
        selection=None,
    ):
        """Merged GROUP BY COUNT over already-resolved schema positions.

        ``base_masks`` are the predicate's per-position masks; masks on
        group attributes act as filters on which labels appear (SQL's
        filter-then-group).  For the inner attribute every value comes
        from one gradient pass (``E[A=v ∧ ρ] = n α_v ∂P[masked]/∂α_v / P``,
        Eq. 19 batched over ``v``); outer attributes are iterated.  A
        label is reported when a live selected shard may hold it, and
        its value sums the selected shards only.  Returns
        ``{domain indices: (expectation, variance)}``.
        """
        if not positions:
            raise QueryError("group_by needs at least one attribute")
        if len(set(positions)) != len(positions):
            raise QueryError("duplicate group-by attribute")
        masks = self._checked(base_masks)
        selection = self._selected(selection)
        live = self._live_mask(masks, selection)
        if not live.any():
            return {}
        allowed = {pos: masks.pop(pos) for pos in positions if pos in masks}
        *outer, inner = positions
        # Outer combinations: the union over shards of the values each
        # shard would enumerate (owned ranges partition the domain, so
        # the union is exactly the allowed/full value set per position).
        combos = itertools.product(
            *[
                np.flatnonzero(allowed[pos]).tolist()
                if pos in allowed
                else range(self.sizes[pos])
                for pos in outer
            ]
        )
        # Labels each shard may report: only those it owns when grouping
        # by the shard attribute, and only those the predicate allows.
        if self.owned is not None and inner == self.by_pos:
            labels = self.owned
        else:
            labels = np.ones((self.num_shards, self.sizes[inner]), dtype=bool)
        if inner in allowed:
            labels = labels & allowed[inner]
        by_axis = (
            outer.index(self.by_pos)
            if self.owned is not None and self.by_pos in outer
            else None
        )

        results: dict[tuple[int, ...], tuple[float, float]] = {}
        for combo in combos:
            row_masks = dict(masks)
            for pos, value in zip(outer, combo):
                point = np.zeros(self.sizes[pos], dtype=bool)
                point[value] = True
                row_masks[pos] = point
            # A shard that does not own the combination's value of the
            # shard attribute is exactly 0 here, like a pruned one.
            expectation, variance, _ = self.merge(
                self._gradient_numerators(inner, row_masks), selection
            )
            expectation, variance = expectation.tolist(), variance.tolist()
            reporting = (
                live if by_axis is None else live & self.owned[:, combo[by_axis]]
            )
            for v in np.flatnonzero(labels[reporting].any(axis=0)).tolist():
                results[combo + (v,)] = (expectation[v], variance[v])
        return results

    def _weighted_numerators(self, pos, weights, base_masks):
        """``(weights, numerators)`` behind SUM / AVG of attribute
        ``pos``: the ``(S, size)`` gradient numerators under the other
        attributes' masks, zeroed where the predicate excludes the value."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.sizes[pos]:
            raise QueryError(
                f"need one weight per domain value of attribute {pos}"
            )
        masks = self._checked(base_masks)
        attr_mask = masks.pop(pos, None)
        numerators = self._gradient_numerators(pos, masks)
        if attr_mask is not None:
            numerators = np.where(attr_mask, numerators, 0.0)
        return weights, numerators

    def sum_estimate(
        self,
        pos: int,
        weights: np.ndarray,
        base_masks: Mapping[int, np.ndarray],
        selection=None,
    ) -> float:
        """Merged ``E[Σ w(A_pos)]`` over the selected shards (default:
        all).  SUM is the linear query whose coordinate on a tuple is
        ``w(t_pos)``, so it decomposes over the attribute's values,
        ``Σ_v w_v · E[A = v ∧ π]`` — one gradient pass (Sec 7's "other
        aggregates"), summed over shards by linearity."""
        weights, numerators = self._weighted_numerators(pos, weights, base_masks)
        counts, _, _ = self.merge(numerators, self._selected(selection))
        return float(counts @ weights)

    def sum_and_count(
        self,
        pos: int,
        weights: np.ndarray,
        base_masks: Mapping[int, np.ndarray],
        selection=None,
    ) -> tuple[float, float, float]:
        """``(E[Σ w(A_pos)], COUNT expectation, COUNT variance)`` in one
        pass — what an AVG needs.  Every term carries exactly one factor
        of the attribute (free shards included), so a shard's numerators
        summed over the values the predicate allows *are* its masked
        value: the row sums merge to :meth:`estimate_masks_batch`'s
        answer without a second walk over the same masked prefixes."""
        weights, numerators = self._weighted_numerators(pos, weights, base_masks)
        selection = self._selected(selection)
        counts, _, _ = self.merge(numerators, selection)
        expectation, variance, _ = self.merge(numerators.sum(axis=1), selection)
        return float(counts @ weights), float(expectation), float(variance)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        arrays = [self.totals, self.fulls, self.scales, *self.alphas, *self.prefixes]
        arrays += [factor for _, factor in self.free.values()]
        for block in self.blocks:
            arrays += block.arrays()
        with _BUILD_LOCK:
            groupings = list(self._groupings.values())
        for grouping in groupings:
            arrays += grouping.arrays()
        return {
            "shards": self.num_shards,
            "terms": self.num_terms,
            "components": sum(block.shards.shape[0] for block in self.blocks),
            "groupings": len(groupings),
            "bytes": sum(array.nbytes for array in arrays),
            "cache_entries": len(self._cache),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def __repr__(self):
        return (
            f"ShardArena(shards={self.num_shards}, "
            f"terms={self.num_terms}, by_pos={self.by_pos})"
        )


def labelled(schema, positions: Sequence[int], groups: Mapping) -> dict:
    """GROUP BY results re-keyed from domain indices to label tuples."""
    labels = [schema.domain(pos).labels for pos in positions]
    return {tuple(map(getitem, labels, key)): value for key, value in groups.items()}


class ArenaModel:
    """The query surface every model kind shares: masks → arena → estimate.

    A subclass provides ``schema`` and ``total``, plus what
    :class:`ShardArena` reads of it (one fitted model, or its shards).
    The arena is derived state: built once, on first use or by
    :meth:`warm`, shared by every thread, and never pickled.
    """

    _arena: ShardArena | None = None

    @property
    def arena(self) -> ShardArena:
        """The model's evaluation kernel (built on first use)."""
        arena = self._arena
        if arena is None:
            with _BUILD_LOCK:
                arena = self._arena
                if arena is None:
                    arena = self._arena = ShardArena(self)
        return arena

    def warm(self):
        """Eagerly build the arena (load / hot-reload / publish path)."""
        self.arena
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_arena", None)
        return state

    def clear_cache(self) -> None:
        """Drop the arena's memoized results (the arena itself stays)."""
        if self._arena is not None:
            self._arena.clear_cache()

    def masks_for(self, predicate) -> dict[int, np.ndarray]:
        """Per-position value masks of a conjunction (``None``: none)."""
        if predicate is None:
            return {}
        if predicate.schema != self.schema:
            raise QueryError("query predicate uses a different schema")
        return predicate.attribute_masks()

    # -- COUNT -----------------------------------------------------------
    def estimate_masks_batch(
        self, masks_list: Sequence[Mapping[int, np.ndarray]]
    ) -> list[QueryEstimate]:
        """One estimate per mask dict, each through the arena's
        one-query kernel (so batched answers are bit-equal to single)."""
        return [
            QueryEstimate(expectation, variance, self.total)
            for expectation, variance in self.arena.estimate_masks_batch(masks_list)
        ]

    def estimate_masks(self, masks: Mapping[int, np.ndarray]) -> QueryEstimate:
        """Estimate a counting query given raw per-position masks."""
        return self.estimate_masks_batch([masks])[0]

    def estimate_batch(self, predicates) -> list[QueryEstimate]:
        return self.estimate_masks_batch(
            [self.masks_for(predicate) for predicate in predicates]
        )

    def estimate(self, predicate) -> QueryEstimate:
        """Estimate ``SELECT COUNT(*) WHERE predicate``."""
        return self.estimate_masks(self.masks_for(predicate))

    count = estimate

    # -- GROUP BY / SUM / AVG ----------------------------------------------
    def _grouped(self, positions, predicate) -> dict[tuple, QueryEstimate]:
        """``{domain indices: estimate}`` of a GROUP BY COUNT(*)."""
        positions = [self.schema.position(pos) for pos in positions]
        groups = self.arena.group_by(positions, self.masks_for(predicate))
        return {
            key: QueryEstimate(expectation, variance, self.total)
            for key, (expectation, variance) in groups.items()
        }

    def sum_estimate(self, attr, weights, predicate=None) -> float:
        """``E[Σ_{rows ⊨ π} w(attr)]`` — a weighted linear query."""
        return self.arena.sum_estimate(
            self.schema.position(attr), weights, self.masks_for(predicate)
        )

    def sum_and_count(
        self, attr, weights, predicate=None
    ) -> tuple[float, QueryEstimate]:
        """``E[Σ_{rows ⊨ π} w(attr)]`` and the COUNT estimate, from one
        arena pass."""
        total, expectation, variance = self.arena.sum_and_count(
            self.schema.position(attr), weights, self.masks_for(predicate)
        )
        return total, QueryEstimate(expectation, variance, self.total)

    def avg_estimate(self, attr, weights, predicate=None) -> float:
        """``E[SUM] / E[COUNT]`` — the ratio-of-expectations estimator
        for AVG (the one samplers use), in one arena pass; over the whole
        relation the count is ``n``."""
        total, estimate = self.sum_and_count(attr, weights, predicate)
        count = estimate.expectation
        if predicate is None or predicate.is_trivial():
            count = float(self.total)
        if count <= 0:
            raise QueryError("AVG undefined: predicate has expected count 0")
        return total / count
