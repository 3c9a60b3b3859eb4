"""The contiguous shard arena: one numpy pass over every live shard.

:class:`~repro.core.sharding.ShardedSummary` answers a query by
evaluating each shard's compressed polynomial and merging.  The
per-shard walk is pure Python: S polynomial evaluations, each looping
components and positions, with the shard fan-out paying thread-pool
overhead per batch.  For the serving layer's hot path (many small
batches of scalar counts) that interpreter time dominates the actual
math.

:class:`ShardArena` restructures the *fitted* shard parameters once —
at load, reload, or publish time — into contiguous float64 arrays:

* ``alphas[pos]`` — every shard's 1D variables for an attribute,
  stacked ``(S, size)``;
* one flat **term table** across all shards and components: per
  attribute, the term rows it constrains with their inclusive range
  bounds and owning shard (``term_rows``/``shard_of``/``lo``/``hi``);
* per-term delta products and per-component row offsets, so component
  sums are one ``np.add.reduceat``.

A batch of B queries then evaluates COUNT across **all** shards in a
single set of matrix operations: masked prefix-sum matrices of shape
``(S, B, size + 1)`` per constrained attribute (the shard attribute's
owned ranges are folded into the same mask, which makes shard pruning
implicit — a pruned shard's masked polynomial is exactly zero), one
gather + multiply for all term products, one ``reduceat`` for all
component values.  GROUP BY and SUM reuse the pass with the gradient
trick of :meth:`CompressedPolynomial.masked_gradient`, batched over
shards and group combinations at once.

Results are cached on the canonical mask key (the serve layer's
canonical predicate keys collapse to identical masks), bounded like
:class:`~repro.core.inference.InferenceEngine`'s cache.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import QueryError

#: Rows evaluated per kernel pass; bounds the ``(S, B, size+1)`` prefix
#: matrices while keeping each pass big enough to amortize dispatch.
CHUNK = 256

#: Bounded result-cache entries (cleared wholesale when full, matching
#: the inference engine's policy).
CACHE_SIZE = 8192


class ShardArena:
    """Contiguous evaluation kernel over one :class:`ShardedSummary`'s
    fitted shards.  Rebuild (``ShardArena(summary)``) whenever the shard
    set changes — the sharding layer does this on load, hot reload, and
    delta-refresh publish."""

    def __init__(self, summary):
        shards = summary.shards
        schema = summary.schema
        self.schema = schema
        self.sizes = schema.sizes()
        self.num_shards = len(shards)
        self.by_pos = summary.by_position
        self.total = summary.total

        S = self.num_shards
        # -- stacked 1D parameters ------------------------------------
        self.alphas = [
            np.ascontiguousarray(
                np.stack([shard.params.alphas[pos] for shard in shards]),
                dtype=np.float64,
            )
            for pos in range(len(self.sizes))
        ]
        self.totals = np.asarray(
            [float(shard.total) for shard in shards], dtype=np.float64
        )
        self.fulls = np.asarray(
            [float(shard.engine.partition_value) for shard in shards],
            dtype=np.float64,
        )
        self.scales = self.totals / self.fulls

        # -- owned ranges of the shard attribute ----------------------
        ranges = summary.owned_ranges
        if ranges is None:
            self.owned = None
        else:
            size = self.sizes[self.by_pos]
            owned = np.zeros((S, size), dtype=bool)
            for index, (low, high) in enumerate(ranges):
                owned[index, low : high + 1] = True
            self.owned = owned

        # -- flattened term table -------------------------------------
        comp_sizes: list[int] = []
        comp_shard: list[int] = []
        self.comps_of_shard: list[list[int]] = [[] for _ in range(S)]
        self.free_of_shard: list[tuple[int, ...]] = []
        dprods: list[np.ndarray] = []
        entries: dict[int, list] = {}
        self.comp_of_shard_pos: list[dict[int, int]] = [{} for _ in range(S)]
        # Component-contiguous view of the same table: every term of a
        # component constrains the same positions and sits in one row
        # range, so the hot COUNT pass multiplies contiguous slices
        # in place instead of gather/scattering the full (T, B) matrix
        # per attribute.
        self.comp_table: list[tuple[int, int, int, dict[int, tuple]]] = []
        term_base = 0
        for s, shard in enumerate(shards):
            polynomial = shard.polynomial
            self.free_of_shard.append(tuple(polynomial.free_positions))
            for component in polynomial.components:
                k = len(comp_sizes)
                comp_sizes.append(component.num_terms)
                comp_shard.append(s)
                self.comps_of_shard[s].append(k)
                dprods.append(component.delta_products(shard.params.deltas))
                rows = np.arange(
                    term_base, term_base + component.num_terms, dtype=np.int64
                )
                bounds: dict[int, tuple] = {}
                for pos in component.positions:
                    self.comp_of_shard_pos[s][pos] = k
                    entries.setdefault(pos, []).append(
                        (rows, s, component.lo[pos], component.hi[pos])
                    )
                    bounds[pos] = (
                        component.lo[pos].astype(np.int64),
                        component.hi[pos].astype(np.int64),
                    )
                self.comp_table.append(
                    (term_base, term_base + component.num_terms, s, bounds)
                )
                term_base += component.num_terms
        self.num_terms = term_base
        self.comp_shard = np.asarray(comp_shard, dtype=np.int64)
        self.comp_start = np.concatenate(
            [[0], np.cumsum(comp_sizes)]
        ).astype(np.int64)
        self.dprod = (
            np.concatenate(dprods)
            if dprods
            else np.empty(0, dtype=np.float64)
        )
        # Per attribute: every (term row, shard, lo, hi) it constrains.
        self.entries: dict[int, tuple] = {}
        for pos, pieces in entries.items():
            self.entries[pos] = (
                np.concatenate([rows for rows, _, _, _ in pieces]),
                np.concatenate(
                    [np.full(rows.shape[0], s, dtype=np.int64) for rows, s, _, _ in pieces]
                ),
                np.concatenate([lo for _, _, lo, _ in pieces]).astype(np.int64),
                np.concatenate([hi for _, _, _, hi in pieces]).astype(np.int64),
            )

        self._cache: dict[tuple, tuple[float, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Kernel passes
    # ------------------------------------------------------------------
    def _prefixes(
        self,
        masks_list: Sequence[Mapping[int, np.ndarray]],
        skip_owned: bool = False,
    ) -> dict[int, np.ndarray]:
        """Masked prefix-sum matrices for one batch of mask dicts.

        Returns ``pos -> (S, size+1, B)`` for constrained attributes and
        ``pos -> (S, size+1, 1)`` (batch-shared) for unconstrained ones
        — value-major, so the term passes gather contiguous ``(rows, B)``
        blocks along the leading axis.  Unless ``skip_owned``, the shard
        attribute additionally carries each shard's owned-range mask —
        implicit pruning: a query whose intersection with a shard's
        range is empty evaluates to 0.
        """
        B = len(masks_list)
        constrained: set[int] = set()
        for masks in masks_list:
            constrained.update(masks.keys())
        fold_owned = self.owned is not None and not skip_owned
        if fold_owned:
            constrained.add(self.by_pos)
        prefixes: dict[int, np.ndarray] = {}
        for pos, alpha in enumerate(self.alphas):
            size = alpha.shape[1]
            if pos not in constrained:
                matrix = alpha[:, :, None]
            else:
                mask = np.ones((size, B), dtype=bool)
                for row, masks in enumerate(masks_list):
                    query_mask = masks.get(pos)
                    if query_mask is not None:
                        mask[:, row] = query_mask
                matrix = alpha[:, :, None] * mask[None, :, :]
                if fold_owned and pos == self.by_pos:
                    matrix = matrix * self.owned[:, :, None]
            prefix = np.zeros(
                (self.num_shards, size + 1, matrix.shape[2]),
                dtype=np.float64,
            )
            np.cumsum(matrix, axis=1, out=prefix[:, 1:, :])
            prefixes[pos] = prefix
        return prefixes

    def _term_products(
        self,
        prefixes: Mapping[int, np.ndarray],
        B: int,
        exclude_pos: int | None = None,
    ) -> np.ndarray:
        """``(T, B)`` products of range sums per flat term, optionally
        leaving one attribute's factors out (the gradient trick).

        Iterates the component-contiguous table: each component's rows
        are one slice of the product matrix, so every multiply is an
        in-place contiguous block operation — no gather/scatter of the
        full ``(T, B)`` matrix per attribute.
        """
        products = np.ones((self.num_terms, B), dtype=np.float64)
        for start, end, s, bounds in self.comp_table:
            block = products[start:end]
            for pos, (lo, hi) in bounds.items():
                if pos == exclude_pos:
                    continue
                prefix = prefixes[pos][s]  # (size+1, B or 1)
                block *= prefix[hi + 1] - prefix[lo]
        return products

    def _component_values(
        self, products: np.ndarray, consume: bool = False
    ) -> np.ndarray:
        """``(C, B)`` — each component's delta-weighted term sum.  With
        ``consume`` the ``(T, B)`` products matrix is weighted in place
        (callers that never touch it again skip a full-size copy)."""
        if self.num_terms == 0:
            return np.empty((0, products.shape[1]), dtype=np.float64)
        if consume:
            weighted = products
            weighted *= self.dprod[:, None]
        else:
            weighted = products * self.dprod[:, None]
        return np.add.reduceat(weighted, self.comp_start[:-1], axis=0)

    def _free_products(
        self, prefixes: Mapping[int, np.ndarray], B: int, exclude_pos: int | None = None
    ) -> np.ndarray:
        """``(S, B)`` — every shard's product of free-attribute full sums."""
        values = np.ones((self.num_shards, B), dtype=np.float64)
        for s, free in enumerate(self.free_of_shard):
            for pos in free:
                if pos == exclude_pos:
                    continue
                values[s] = values[s] * prefixes[pos][s, -1, :]
        return values

    def _masked_values(
        self, masks_list: Sequence[Mapping[int, np.ndarray]]
    ) -> np.ndarray:
        """``(S, B)`` masked polynomial values — the batched analogue of
        ``CompressedPolynomial.evaluate`` across every shard at once."""
        B = len(masks_list)
        prefixes = self._prefixes(masks_list)
        comp_vals = self._component_values(
            self._term_products(prefixes, B), consume=True
        )
        values = self._free_products(prefixes, B)
        for s in range(self.num_shards):
            for k in self.comps_of_shard[s]:
                values[s] = values[s] * comp_vals[k]
        return values

    # ------------------------------------------------------------------
    # COUNT
    # ------------------------------------------------------------------
    def _merge_counts(self, values: np.ndarray) -> list[tuple[float, float]]:
        """Per-query ``(expectation, variance)`` from per-shard masked
        values, using the quadrature merge algebra of the sharding
        layer (per-shard Binomial variances add)."""
        masked = np.clip(values, 0.0, None)
        expectations = self.scales @ masked
        p = np.clip(masked / self.fulls[:, None], 0.0, 1.0)
        variances = self.totals @ (p * (1.0 - p))
        return list(zip(expectations.tolist(), variances.tolist()))

    @staticmethod
    def _mask_key(masks: Mapping[int, np.ndarray]) -> tuple:
        return tuple(
            (pos, np.asarray(masks[pos], dtype=bool).tobytes())
            for pos in sorted(masks)
        )

    def estimate_masks_batch(
        self, masks_list: Sequence[Mapping[int, np.ndarray]]
    ) -> list[tuple[float, float]]:
        """``(expectation, variance)`` per mask dict, cache-assisted."""
        keys = [self._mask_key(masks) for masks in masks_list]
        out: list[tuple[float, float] | None] = [
            self._cache.get(key) for key in keys
        ]
        missing = [index for index, value in enumerate(out) if value is None]
        self.cache_hits += len(masks_list) - len(missing)
        self.cache_misses += len(missing)
        for start in range(0, len(missing), CHUNK):
            chunk = missing[start : start + CHUNK]
            values = self._masked_values([masks_list[i] for i in chunk])
            for index, merged in zip(chunk, self._merge_counts(values)):
                out[index] = merged
                if len(self._cache) >= CACHE_SIZE:
                    self._cache.clear()
                self._cache[keys[index]] = merged
        return out  # type: ignore[return-value]

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Gradient pass (GROUP BY / SUM)
    # ------------------------------------------------------------------
    def _gradient_numerators(
        self,
        pos: int,
        masks_list: Sequence[Mapping[int, np.ndarray]],
        skip_owned: bool = False,
    ) -> np.ndarray:
        """``(S, size, B)`` of ``α_v · ∂P_masked/∂α_v`` per shard — the
        per-value numerators behind GROUP BY and SUM (Eq. 19 batched
        over shards, values, and group combinations at once).

        ``masks_list`` must not constrain ``pos`` itself.  With
        ``skip_owned`` the shard attribute's owned ranges are *not*
        folded in — the grouping-by-shard-attribute case, where label
        filtering happens downstream instead.
        """
        B = len(masks_list)
        S = self.num_shards
        size = self.sizes[pos]
        prefixes = self._prefixes(masks_list, skip_owned=skip_owned)
        excl = self._term_products(prefixes, B, exclude_pos=pos)
        # Full component values (for the outer factors) reuse the
        # excluded products: multiply pos's factors back in.
        full = excl
        if pos in self.entries:
            full = excl.copy()
            rows, shard_of, lo, hi = self.entries[pos]
            prefix = prefixes[pos]
            sums = prefix[shard_of, hi + 1, :] - prefix[shard_of, lo, :]
            full[rows] = full[rows] * sums
        comp_vals = self._component_values(full, consume=True)

        # Outer factors: free product × every component except the one
        # holding pos (all of them, when pos is free in a shard).
        outers = self._free_products(prefixes, B, exclude_pos=pos)
        inner_comp_of_shard = [
            self.comp_of_shard_pos[s].get(pos) for s in range(S)
        ]
        for s in range(S):
            for k in self.comps_of_shard[s]:
                if k != inner_comp_of_shard[s]:
                    outers[s] = outers[s] * comp_vals[k]

        gradients = np.zeros((S, size, B), dtype=np.float64)
        if pos in self.entries:
            # Vectorized scatter over every shard at once: coefficients
            # accumulate at lo / hi+1 per (shard, term), then a cumsum
            # turns the difference array into the per-value gradient.
            rows, shard_of, lo, hi = self.entries[pos]
            coeff = excl[rows] * self.dprod[rows, None]
            diff = np.zeros((S * (size + 1), B), dtype=np.float64)
            np.add.at(diff, shard_of * (size + 1) + lo, coeff)
            np.add.at(diff, shard_of * (size + 1) + hi + 1, -coeff)
            grad_q = np.cumsum(
                diff.reshape(S, size + 1, B)[:, :-1, :], axis=1
            )
            gradients = grad_q * outers[:, None, :]
        for s in range(S):
            if inner_comp_of_shard[s] is None:
                # pos is free in this shard: ∂P/∂α_v is value-independent.
                gradients[s] = outers[s][None, :]
        return self.alphas[pos][:, :, None] * gradients

    def _live_mask(self, base_masks: Mapping[int, np.ndarray]) -> np.ndarray:
        """``(S,)`` — shards whose owned range meets the predicate (all
        live when round-robin); dead shards are exactly pruned."""
        live = np.ones(self.num_shards, dtype=bool)
        if self.owned is None:
            return live
        constraint = base_masks.get(self.by_pos)
        if constraint is None:
            return live
        return (self.owned & constraint[None, :]).any(axis=1)

    def group_by(
        self,
        positions: Sequence[int],
        base_masks: Mapping[int, np.ndarray],
    ):
        """Merged GROUP BY COUNT over already-resolved schema positions.

        ``base_masks`` are the predicate's per-position masks; masks on
        group attributes act as filters on which labels appear (SQL's
        filter-then-group), mirroring ``InferenceEngine.group_by`` and
        the sharding layer's label-union merge.  Returns
        ``{labels: (expectation, variance)}``.
        """
        if not positions:
            raise QueryError("group_by needs at least one attribute")
        if len(set(positions)) != len(positions):
            raise QueryError("duplicate group-by attribute")
        masks = dict(base_masks)
        allowed: dict[int, np.ndarray] = {}
        for pos in positions:
            mask = masks.pop(pos, None)
            if mask is not None:
                allowed[pos] = np.asarray(mask, dtype=bool)
        live = self._live_mask(base_masks)
        if not live.any():
            return {}
        *outer, inner = positions
        group_by_shard_attr = self.owned is not None and self.by_pos in positions

        # Outer combinations: the union over shards of the values each
        # shard would enumerate (owned ranges partition the domain, so
        # the union is exactly the allowed/full value set per position).
        combo_values = []
        for pos in outer:
            if pos in allowed:
                combo_values.append(np.flatnonzero(allowed[pos]).tolist())
            else:
                combo_values.append(list(range(self.sizes[pos])))
        combos: list[tuple[int, ...]] = [()]
        for values in combo_values:
            combos = [prefix + (v,) for prefix in combos for v in values]
        if not combos:
            return {}

        size = self.sizes[inner]
        inner_allowed = allowed.get(inner)
        if self.owned is not None and inner == self.by_pos:
            # Per-shard label filter: a shard only reports labels it owns.
            inner_allowed_by_shard = (
                self.owned
                if inner_allowed is None
                else self.owned & inner_allowed[None, :]
            )
        else:
            shared = (
                np.ones(size, dtype=bool)
                if inner_allowed is None
                else inner_allowed
            )
            inner_allowed_by_shard = np.broadcast_to(
                shared, (self.num_shards, size)
            )

        results: dict[tuple[int, ...], tuple[float, float]] = {}
        for start in range(0, len(combos), CHUNK):
            chunk = combos[start : start + CHUNK]
            rows = []
            for combo in chunk:
                row_masks = dict(masks)
                for pos, value in zip(outer, combo):
                    point = np.zeros(self.sizes[pos], dtype=bool)
                    point[value] = True
                    row_masks[pos] = point
                rows.append(row_masks)
            numerators = self._gradient_numerators(
                inner, rows, skip_owned=group_by_shard_attr
            )
            # (S, size, B) -> merged per (combo, value) over allowed shards
            contrib = np.ones((self.num_shards, len(chunk)), dtype=bool)
            contrib &= live[:, None]
            if self.owned is not None and self.by_pos in outer:
                axis = outer.index(self.by_pos)
                combo_vals = np.asarray([combo[axis] for combo in chunk])
                contrib &= self.owned[:, combo_vals]
            numerators *= contrib[:, None, :]
            expectation = np.einsum(
                "s,svb->vb", self.scales, numerators
            )
            p = np.clip(numerators / self.fulls[:, None, None], 0.0, 1.0)
            variance = np.einsum("s,svb->vb", self.totals, p * (1.0 - p))
            label_mask = inner_allowed_by_shard[:, :, None] & contrib[:, None, :]
            visible = label_mask.any(axis=0)  # (size, B)
            for b, combo in enumerate(chunk):
                for v in np.flatnonzero(visible[:, b]).tolist():
                    results[combo + (v,)] = (
                        float(expectation[v, b]),
                        float(variance[v, b]),
                    )
        return results

    def sum_estimate(
        self,
        pos: int,
        weights: np.ndarray,
        base_masks: Mapping[int, np.ndarray],
    ) -> float:
        """Merged ``E[Σ w(A_pos)]`` over all shards — mirrors
        ``InferenceEngine.sum_estimate`` summed with the linearity merge."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.sizes[pos]:
            raise QueryError(
                f"need one weight per domain value of attribute {pos}"
            )
        masks = dict(base_masks)
        attr_mask = masks.pop(pos, None)
        live = self._live_mask(base_masks)
        sum_over_shard_attr = self.owned is not None and pos == self.by_pos
        numerators = self._gradient_numerators(
            pos, [masks], skip_owned=sum_over_shard_attr
        )[:, :, 0]
        counts = numerators * self.scales[:, None]
        if sum_over_shard_attr:
            shard_mask = (
                self.owned
                if attr_mask is None
                else self.owned & attr_mask[None, :]
            )
            counts = np.where(shard_mask, counts, 0.0)
        elif attr_mask is not None:
            counts = np.where(attr_mask[None, :], counts, 0.0)
        counts = np.clip(counts, 0.0, None)
        counts *= live[:, None]
        return float(np.sum(counts @ weights))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "shards": self.num_shards,
            "terms": self.num_terms,
            "components": int(self.comp_shard.shape[0]),
            "cache_entries": len(self._cache),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def __repr__(self):
        return (
            f"ShardArena(shards={self.num_shards}, "
            f"terms={self.num_terms}, by_pos={self.by_pos})"
        )
