"""Query answering over one fitted MaxEnt model (Sec 3.2 and 4.2).

Sec 4.2's optimized route is the only one used at query time:

    E[⟨q, I⟩]  =  (n / P)  ·  P[ α_j ← 0  for excluded 1D variables ]

i.e. zero the 1D variables whose values fail the query predicate and
re-evaluate the compressed polynomial.  :class:`InferenceEngine` binds a
polynomial to its fitted parameters and answers through the same
evaluator every model uses, a :class:`~repro.core.arena.ShardArena` —
here over the one model as its single shard, built on the first query —
which folds everything in ``P`` that no mask can change once and redoes
only the factors a query constrains.

Beyond the paper's point estimates, this module implements the Sec 7
extension: under the model, a counting query's answer is
``Binomial(n, p)`` with ``p = P[masked]/P`` (each of the ``n`` i.i.d.
slotted rows lands in the query region with probability ``p``), giving
closed-form variance and confidence intervals
(:class:`~repro.core.arena.QueryEstimate`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.arena import ArenaModel, QueryEstimate
from repro.core.polynomial import CompressedPolynomial
from repro.core.variables import ModelParameters
from repro.errors import QueryError, SolverError
from repro.stats.predicates import Conjunction


class InferenceEngine(ArenaModel):
    """Binds a polynomial to fitted parameters and answers queries.

    Repeated queries are served from the arena's bounded result cache
    (parameters are fixed after fitting, so cached answers stay valid
    for the engine's lifetime).
    """

    def __init__(
        self,
        polynomial: CompressedPolynomial,
        params: ModelParameters,
        total: int,
    ):
        self.polynomial = polynomial
        self.params = params
        self.total = int(total)
        #: ``P`` at the fitted parameters (``Z = P^n`` by Lemma 3.1).
        self.partition_value = polynomial.evaluate(params)
        if self.partition_value <= 0:
            raise SolverError(
                "fitted polynomial evaluates to 0; the model is degenerate"
            )

    @property
    def schema(self):
        return self.polynomial.schema

    def group_by(
        self,
        group_positions: Sequence[int],
        predicate: Conjunction | None = None,
    ) -> dict[tuple[int, ...], QueryEstimate]:
        """Estimates for every value combination of the group attributes,
        keyed by domain index; a predicate on a group attribute restricts
        which of its values appear (filter-then-group)."""
        return self._grouped(group_positions, predicate)

    def point_estimate(self, values: Mapping) -> QueryEstimate:
        """Estimate a point query ``∧ A_i = v_i`` given a mapping from
        attribute (name or position) to a domain *index*."""
        masks = {}
        for attr, index in values.items():
            pos = self.schema.position(attr)
            size = self.polynomial.sizes[pos]
            if not 0 <= index < size:
                raise QueryError(
                    f"value index {index} out of range for attribute {attr!r}"
                )
            mask = np.zeros(size, dtype=bool)
            mask[index] = True
            masks[pos] = mask
        return self.estimate_masks(masks)
