"""Column-store relation substrate.

The evaluation needs a small but real analytic engine to (a) compute
the ground truth for every query, (b) extract statistics (1D marginals,
2D contingency tables), and (c) feed the sampling baselines.  A
:class:`Relation` stores one dense ``int64`` index column per attribute
(values are positions in the attribute's :class:`~repro.data.domain.Domain`),
which makes counting operations ``numpy.bincount`` calls rather than
Python loops.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.errors import SchemaError


class Relation:
    """An ordered bag of tuples over a :class:`Schema`, stored columnar.

    Parameters
    ----------
    schema:
        The relation's schema.
    columns:
        One ``int64`` array of domain indices per attribute, all the
        same length.  Arrays are not copied; callers hand over
        ownership.
    """

    __slots__ = ("schema", "_columns")

    def __init__(self, schema: Schema, columns: Sequence[np.ndarray]):
        if len(columns) != schema.num_attributes:
            raise SchemaError(
                f"expected {schema.num_attributes} columns, got {len(columns)}"
            )
        length = None
        converted = []
        for pos, column in enumerate(columns):
            array = np.asarray(column, dtype=np.int64)
            if array.ndim != 1:
                raise SchemaError("columns must be one-dimensional arrays")
            if length is None:
                length = array.shape[0]
            elif array.shape[0] != length:
                raise SchemaError("all columns must have the same length")
            size = schema.domain(pos).size
            if array.size and (array.min() < 0 or array.max() >= size):
                raise SchemaError(
                    f"column {schema.attribute_names[pos]!r} contains indices "
                    f"outside [0, {size})"
                )
            converted.append(array)
        self.schema = schema
        self._columns = converted

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Relation":
        """Build a relation from label rows (labels looked up per domain)."""
        domains = schema.domains
        materialized = [
            [domain.index_of(value) for domain, value in zip(domains, row)]
            for row in rows
        ]
        if materialized:
            matrix = np.asarray(materialized, dtype=np.int64)
            columns = [matrix[:, pos].copy() for pos in range(schema.num_attributes)]
        else:
            columns = [np.empty(0, dtype=np.int64) for _ in domains]
        return cls(schema, columns)

    @classmethod
    def from_index_rows(cls, schema: Schema, rows: np.ndarray) -> "Relation":
        """Build a relation from an ``(n, m)`` matrix of domain indices."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != schema.num_attributes:
            raise SchemaError(
                f"expected an (n, {schema.num_attributes}) index matrix, "
                f"got shape {rows.shape}"
            )
        return cls(schema, [rows[:, pos].copy() for pos in range(rows.shape[1])])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Cardinality ``n``."""
        return int(self._columns[0].shape[0]) if self._columns else 0

    def __len__(self) -> int:
        return self.num_rows

    def column(self, attr) -> np.ndarray:
        """Index column of an attribute (no copy — treat as read-only)."""
        return self._columns[self.schema.position(attr)]

    def row_labels(self, row: int) -> tuple:
        """One tuple of labels, mainly for debugging and examples."""
        return tuple(
            domain.label_of(int(column[row]))
            for domain, column in zip(self.schema.domains, self._columns)
        )

    # ------------------------------------------------------------------
    # Relational operations used by the evaluation
    # ------------------------------------------------------------------
    def select_mask(self, masks: Mapping) -> np.ndarray:
        """Boolean row mask for a conjunction of per-attribute masks.

        ``masks`` maps attribute name/position to a boolean array of the
        attribute's domain size (``True`` = value passes).
        """
        keep = np.ones(self.num_rows, dtype=bool)
        for attr, value_mask in masks.items():
            pos = self.schema.position(attr)
            value_mask = np.asarray(value_mask, dtype=bool)
            if value_mask.shape[0] != self.schema.domain(pos).size:
                raise SchemaError(
                    f"mask for {self.schema.attribute_names[pos]!r} has wrong size"
                )
            keep &= value_mask[self._columns[pos]]
        return keep

    def count_where(self, masks: Mapping) -> int:
        """``|σ_π(I)|`` for a conjunctive per-attribute predicate."""
        return int(self.select_mask(masks).sum())

    def filter(self, masks: Mapping) -> "Relation":
        """New relation with only the rows passing ``masks``."""
        keep = self.select_mask(masks)
        return Relation(self.schema, [column[keep] for column in self._columns])

    def sample_rows(self, row_indices: np.ndarray) -> "Relation":
        """New relation restricted to the given row positions."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return Relation(
            self.schema, [column[row_indices] for column in self._columns]
        )

    @classmethod
    def concat(cls, relations: Sequence["Relation"]) -> "Relation":
        """Row-wise concatenation of same-schema relations (bag union):
        the rows of each relation, in order.

        Builds exact ground truth over a base relation plus appended
        batches; the ingest layer itself never concatenates rows.
        """
        if not relations:
            raise SchemaError("concat needs at least one relation")
        schema = relations[0].schema
        for relation in relations[1:]:
            if relation.schema != schema:
                raise SchemaError("concat needs relations over one schema")
        return cls(
            schema,
            [
                np.concatenate(
                    [relation._columns[pos] for relation in relations]
                )
                for pos in range(schema.num_attributes)
            ],
        )

    def marginal(self, attr) -> np.ndarray:
        """1D value counts for an attribute (length = domain size)."""
        pos = self.schema.position(attr)
        return np.bincount(
            self._columns[pos], minlength=self.schema.domain(pos).size
        )

    def contingency(self, attr_a, attr_b) -> np.ndarray:
        """2D contingency table of counts, shape ``(N_a, N_b)``."""
        pos_a = self.schema.position(attr_a)
        pos_b = self.schema.position(attr_b)
        size_a = self.schema.domain(pos_a).size
        size_b = self.schema.domain(pos_b).size
        flat = self._columns[pos_a] * size_b + self._columns[pos_b]
        counts = np.bincount(flat, minlength=size_a * size_b)
        return counts.reshape(size_a, size_b)

    def group_by_counts(self, attrs: Sequence) -> dict[tuple, int]:
        """Counts per distinct combination of the given attributes.

        Returns a dict from index tuples to counts; only non-empty
        groups appear.
        """
        positions = [self.schema.position(attr) for attr in attrs]
        if not positions:
            raise SchemaError("group_by_counts needs at least one attribute")
        sizes = [self.schema.domain(pos).size for pos in positions]
        flat = np.zeros(self.num_rows, dtype=np.int64)
        for pos, size in zip(positions, sizes):
            flat = flat * size + self._columns[pos]
        values, counts = np.unique(flat, return_counts=True)
        result: dict[tuple, int] = {}
        for value, count in zip(values.tolist(), counts.tolist()):
            key = []
            for size in reversed(sizes):
                key.append(value % size)
                value //= size
            result[tuple(reversed(key))] = count
        return result

    def project(self, attrs: Sequence) -> "Relation":
        """Relation restricted to the given attributes (bag semantics —
        duplicates are kept, matching the paper's restricted Flights
        relation of Sec 4.3)."""
        positions = [self.schema.position(attr) for attr in attrs]
        return Relation(
            self.schema.project(attrs),
            [self._columns[pos].copy() for pos in positions],
        )

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, n={self.num_rows})"
