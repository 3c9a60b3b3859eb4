"""Append batches: new rows, validated against (and possibly widening)
a summary's schema.

The ingest layer accepts appended data in whatever shape the caller
has — label rows, a saved :class:`~repro.data.relation.Relation` — and
normalizes it to an :class:`AppendBatch`: a relation over the *target*
schema plus a record of any **domain growth** (labels never seen at
build time).  Growth is handled by widening: new labels are appended to
the affected domains, so every existing index — and with it every
fitted statistic, bucket boundary, and model parameter — keeps its
meaning (see :func:`repro.data.schema.require_widened_schema`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.data.domain import Domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import IngestError


def widen_schema(schema: Schema, new_labels: dict) -> Schema:
    """Schema with extra labels appended to some domains.

    ``new_labels`` maps attribute position to an ordered list of labels
    to append.  Returns ``schema`` unchanged when there is nothing to
    add.
    """
    if not any(new_labels.values()):
        return schema
    domains = []
    for pos, domain in enumerate(schema.domains):
        extra = new_labels.get(pos)
        if extra:
            domains.append(Domain(domain.name, domain.labels + list(extra)))
        else:
            domains.append(domain)
    return Schema(domains)


class AppendBatch:
    """One batch of rows to append to a summarized relation.

    Attributes
    ----------
    schema:
        The (possibly widened) schema the batch's indices refer to.
    relation:
        The batch rows as a :class:`Relation` over ``schema``.
    new_labels:
        ``{attribute name: [new labels]}`` for every domain the batch
        grew; empty when all values were already in the active domains.
    """

    __slots__ = ("schema", "relation", "new_labels")

    def __init__(self, schema: Schema, relation: Relation, new_labels: dict):
        self.schema = schema
        self.relation = relation
        self.new_labels = new_labels

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def grows_domains(self) -> bool:
        return bool(self.new_labels)

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "AppendBatch":
        """Build a batch from label rows (one tuple of labels per row).

        Labels outside an attribute's active domain are appended to it
        in first-seen order — the domain-growth path.
        """
        grown: dict[int, list] = {}
        lookup: list[dict] = []
        for pos, domain in enumerate(schema.domains):
            lookup.append({label: index for index, label in enumerate(domain.labels)})
        columns: list[list[int]] = [[] for _ in schema.domains]
        for row in rows:
            row = tuple(row)
            if len(row) != schema.num_attributes:
                raise IngestError(
                    f"append row {row!r} has {len(row)} values; schema has "
                    f"{schema.num_attributes} attributes"
                )
            for pos, label in enumerate(row):
                index = lookup[pos].get(label)
                if index is None:
                    index = len(lookup[pos])
                    lookup[pos][label] = index
                    grown.setdefault(pos, []).append(label)
                columns[pos].append(index)
        widened = widen_schema(schema, grown)
        relation = Relation(
            widened,
            [np.asarray(column, dtype=np.int64) for column in columns],
        )
        return cls(
            widened,
            relation,
            {
                schema.attribute_names[pos]: labels
                for pos, labels in sorted(grown.items())
            },
        )

    @classmethod
    def from_relation(cls, schema: Schema, relation: Relation) -> "AppendBatch":
        """Build a batch from a relation saved with its own schema.

        The batch relation must have the same attribute names in the
        same order; its labels are re-indexed into ``schema``'s domains
        (growing them where needed), so the two relations may disagree
        on label *order* or on which labels exist.
        """
        if relation.schema.attribute_names != schema.attribute_names:
            raise IngestError(
                f"append batch has attributes {relation.schema.attribute_names}, "
                f"summary expects {schema.attribute_names}"
            )
        grown: dict[int, list] = {}
        columns = []
        for pos, domain in enumerate(schema.domains):
            batch_domain = relation.schema.domain(pos)
            index_of = {label: index for index, label in enumerate(domain.labels)}
            mapping = np.empty(batch_domain.size, dtype=np.int64)
            for batch_index, label in enumerate(batch_domain.labels):
                index = index_of.get(label)
                if index is None:
                    index = len(index_of)
                    index_of[label] = index
                    grown.setdefault(pos, []).append(label)
                mapping[batch_index] = index
            columns.append(mapping[relation.column(pos)])
        widened = widen_schema(schema, grown)
        return cls(
            widened,
            Relation(widened, columns),
            {
                schema.attribute_names[pos]: labels
                for pos, labels in sorted(grown.items())
            },
        )

    def __repr__(self):
        growth = f", grew {sorted(self.new_labels)}" if self.new_labels else ""
        return f"AppendBatch(rows={self.num_rows}{growth})"
