"""The count reduction of a relation — all a summary ever reads of it.

A MaxEnt summary sees its relation only through counts (paper Sec 3.1
and 4.3): the complete 1D marginals, and, for statistic selection and
the multi-dimensional statistic values, one joint count tensor per
attribute set.  :class:`Counts` is that reduction.  It is additive —
the counts of a bag union are the sums of the parts' counts — so a
relation can be reduced chunk by chunk or shard by shard, and only the
reductions travel.

Tensors are ``int64``, exactly what :meth:`Relation.contingency`
returns, so everything derived from them (KD-tree splits, Cramér's V,
statistic values) is bit-for-bit what the rows give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.data.relation import Relation
from repro.data.schema import Schema, require_widened_schema
from repro.errors import ReproError


@dataclass(eq=False, repr=False)
class Counts:
    """Row count, 1D marginals and joint count tensors of a relation.

    ``tensors`` maps a sorted tuple of attribute positions to the joint
    counts over them (axes in that order).  Counts exposes the read
    surface statistic selection uses on a :class:`Relation` —
    ``schema``, ``num_rows``, ``marginal``, ``contingency`` — so the
    selection code takes either.
    """

    schema: Schema
    total: int
    marginals: list[np.ndarray]
    tensors: dict[tuple[int, ...], np.ndarray]

    @classmethod
    def of(
        cls, relation: Relation, attribute_sets: Iterable[Sequence] = ()
    ) -> "Counts":
        """Reduce ``relation`` to its marginals and one joint count
        tensor per attribute set (names or positions, any order)."""
        schema = relation.schema
        tensors = {}
        for attrs in attribute_sets:
            key = tuple(sorted(schema.position(attr) for attr in attrs))
            shape = tuple(schema.domain(pos).size for pos in key)
            columns = tuple(relation.column(pos) for pos in key)
            flat = np.ravel_multi_index(columns, shape)
            tensors[key] = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
        marginals = [relation.marginal(pos) for pos in range(schema.num_attributes)]
        return cls(schema, relation.num_rows, marginals, tensors)

    # -- the Relation read surface -----------------------------------------
    @property
    def num_rows(self) -> int:
        return self.total

    def marginal(self, attr) -> np.ndarray:
        """1D value counts of an attribute (length = domain size)."""
        return self.marginals[self.schema.position(attr)]

    def contingency(self, attr_a, attr_b) -> np.ndarray:
        """2D count table, shape ``(N_a, N_b)``, in the given order."""
        positions = [self.schema.position(attr_a), self.schema.position(attr_b)]
        tensor = self._tensor(tuple(sorted(positions)))
        if positions[0] > positions[1]:
            tensor = np.ascontiguousarray(tensor.T)
        return tensor

    # -- statistic values --------------------------------------------------
    def count(self, statistic) -> int:
        """The counting query of a multi-dimensional range statistic: a
        rectangle sum over the tensor of its attribute set."""
        window = tuple(
            slice(statistic.range_at(pos).low, statistic.range_at(pos).high + 1)
            for pos in statistic.positions
        )
        return int(self._tensor(statistic.positions)[window].sum())

    def _tensor(self, key: tuple[int, ...]) -> np.ndarray:
        if key not in self.tensors:
            raise ReproError(f"no count tensor over attribute positions {key}")
        return self.tensors[key]

    # -- bag union ---------------------------------------------------------
    def __add__(self, other: "Counts") -> "Counts":
        """Counts of the bag union.  When an append widened a domain, the
        side over the narrower schema is zero-padded to the wider one."""
        if self.tensors.keys() != other.tensors.keys():
            raise ReproError("cannot add counts over different attribute sets")
        narrow, wide = sorted(
            (self.schema, other.schema), key=lambda schema: sum(schema.sizes())
        )
        require_widened_schema(narrow, wide)
        sizes = wide.sizes()
        marginals = [
            _padded(mine, (size,)) + _padded(theirs, (size,))
            for size, mine, theirs in zip(sizes, self.marginals, other.marginals)
        ]
        tensors = {}
        for key, mine in self.tensors.items():
            shape = tuple(sizes[pos] for pos in key)
            tensors[key] = _padded(mine, shape) + _padded(other.tensors[key], shape)
        return Counts(wide, self.total + other.total, marginals, tensors)

    def __repr__(self):
        return f"Counts(n={self.total}, tensors={sorted(self.tensors)})"


def _padded(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``array`` zero-padded at the end of each axis to ``shape``."""
    if array.shape == shape:
        return array
    return np.pad(array, [(0, new - old) for old, new in zip(array.shape, shape)])
