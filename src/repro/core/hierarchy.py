"""Hierarchical summaries (Sec 7 future work: "hierarchical polynomials").

The paper proposes handling large categorical domains without global
bucketization by *layering* summaries: a coarse summary over grouped
values (cities → states) answers most queries, and per-group fine
summaries are built lazily when a query drills below the coarse level
— "this may require the user to wait while a new polynomial is being
loaded but would allow for different levels of query accuracy without
sacrificing polynomial size".

:class:`HierarchicalSummary` implements exactly that two-level scheme
for one *drill attribute*:

* level 0 — an :class:`~repro.core.summary.EntropySummary` over the
  relation with the drill attribute coarsened through a user-supplied
  grouping function;
* level 1 — for each coarse group, a summary over only that group's
  rows with the drill attribute at full resolution, built on first use
  and cached.

Queries that do not constrain the drill attribute (or constrain it
only at group granularity) never touch level 1.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.core.arena import QueryEstimate
from repro.core.summary import EntropySummary
from repro.data.domain import Domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError, SchemaError
from repro.stats.predicates import Conjunction, conjunction_from_masks


class HierarchicalSummary:
    """Two-level coarse/fine summary over one drill attribute.

    Parameters
    ----------
    relation:
        The fine-grained data.
    drill_attr:
        Attribute whose domain is large; queried at either granularity.
    coarsen:
        Maps each fine label of the drill attribute to its coarse group
        label (e.g. city → state).
    coarse_kwargs / leaf_kwargs:
        Options forwarded to
        :meth:`~repro.api.builder.SummaryBuilder.with_options` for the
        level-0 and level-1 models (budgets, iterations, ...).
    """

    def __init__(
        self,
        relation: Relation,
        drill_attr,
        coarsen: Callable,
        coarse_kwargs: Mapping | None = None,
        leaf_kwargs: Mapping | None = None,
    ):
        self.relation = relation
        self.fine_schema = relation.schema
        self.drill_pos = self.fine_schema.position(drill_attr)
        self.coarsen = coarsen
        self.leaf_kwargs = dict(leaf_kwargs or {})
        coarse_kwargs = dict(coarse_kwargs or {})

        fine_domain = self.fine_schema.domain(self.drill_pos)
        self._group_of_index = np.empty(fine_domain.size, dtype=object)
        groups: dict[object, list[int]] = {}
        for index, label in enumerate(fine_domain.labels):
            group = coarsen(label)
            self._group_of_index[index] = group
            groups.setdefault(group, []).append(index)
        if len(groups) < 2:
            raise SchemaError(
                "coarsening must produce at least two groups; otherwise a "
                "flat summary is strictly better"
            )
        self._fine_indices_of_group = groups
        group_labels = sorted(groups, key=str)
        # The coarse domain keeps the attribute's name so user-supplied
        # build kwargs (2D pairs etc.) read naturally at both levels.
        self._coarse_domain = Domain(fine_domain.name, group_labels)
        self._coarse_index_of_group = {
            label: index for index, label in enumerate(group_labels)
        }

        coarse_schema = Schema(
            [
                self._coarse_domain if pos == self.drill_pos else domain
                for pos, domain in enumerate(self.fine_schema.domains)
            ]
        )
        coarse_column = np.asarray(
            [
                self._coarse_index_of_group[self._group_of_index[index]]
                for index in relation.column(self.drill_pos).tolist()
            ],
            dtype=np.int64,
        )
        coarse_relation = Relation(
            coarse_schema,
            [
                coarse_column if pos == self.drill_pos else relation.column(pos)
                for pos in range(coarse_schema.num_attributes)
            ],
        )
        self.coarse = self._fit(coarse_relation, "coarse", coarse_kwargs)
        self._leaves: dict[object, EntropySummary | None] = {}
        self.leaf_builds = 0

    @staticmethod
    def _fit(relation: Relation, name: str, options: Mapping) -> EntropySummary:
        # Imported here: the api package sits above core in the layering.
        from repro.api.builder import SummaryBuilder

        return (
            SummaryBuilder(relation).name(name).with_options(**options).fit()
        )

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self._coarse_domain.size

    def leaf(self, group) -> EntropySummary | None:
        """The fine summary of one group, built on first use.

        Returns ``None`` for groups with no rows (their contribution to
        any count is exactly 0).
        """
        if group not in self._fine_indices_of_group:
            raise QueryError(f"unknown group {group!r}")
        if group not in self._leaves:
            fine_indices = self._fine_indices_of_group[group]
            keep = np.zeros(
                self.fine_schema.domain(self.drill_pos).size, dtype=bool
            )
            keep[fine_indices] = True
            rows = self.relation.filter({self.drill_pos: keep})
            if rows.num_rows == 0:
                self._leaves[group] = None
            else:
                leaf_domain = Domain(
                    self.fine_schema.domain(self.drill_pos).name,
                    [
                        self.fine_schema.domain(self.drill_pos).label_of(i)
                        for i in fine_indices
                    ],
                )
                leaf_schema = Schema(
                    [
                        leaf_domain if pos == self.drill_pos else domain
                        for pos, domain in enumerate(self.fine_schema.domains)
                    ]
                )
                remap = {old: new for new, old in enumerate(fine_indices)}
                drill_column = np.asarray(
                    [remap[v] for v in rows.column(self.drill_pos).tolist()],
                    dtype=np.int64,
                )
                leaf_relation = Relation(
                    leaf_schema,
                    [
                        drill_column if pos == self.drill_pos else rows.column(pos)
                        for pos in range(leaf_schema.num_attributes)
                    ],
                )
                self._leaves[group] = self._fit(
                    leaf_relation, f"leaf-{group}", self.leaf_kwargs
                )
                self.leaf_builds += 1
        return self._leaves[group]

    # ------------------------------------------------------------------
    def count(self, predicate: Conjunction) -> QueryEstimate:
        """Estimate a counting query over the *fine* schema.

        Routes to the coarse model when the drill attribute is
        unconstrained or its constraint is a union of whole groups;
        otherwise drills into the touched groups' leaf summaries.
        """
        if predicate.schema != self.fine_schema:
            raise QueryError("predicate must use the fine schema")
        drill_predicate = predicate.predicate_at(self.drill_pos)
        other_masks = {
            pos: predicate.predicate_at(pos).mask(
                self.fine_schema.domain(pos).size
            )
            for pos in predicate.constrained_positions
            if pos != self.drill_pos
        }
        if drill_predicate.is_true:
            return self.coarse.count(
                self._coarse_conjunction(other_masks, None)
            )
        fine_mask = drill_predicate.mask(
            self.fine_schema.domain(self.drill_pos).size
        )
        touched = self._touched_groups(fine_mask)
        whole = [
            group
            for group, partial in touched.items()
            if not partial
        ]
        if len(whole) == len(touched):
            group_mask = np.zeros(self.num_groups, dtype=bool)
            for group in whole:
                group_mask[self._coarse_index_of_group[group]] = True
            return self.coarse.count(
                self._coarse_conjunction(other_masks, group_mask)
            )
        # Drill: sum leaf estimates over every touched group.
        expectation = 0.0
        variance = 0.0
        for group in touched:
            leaf = self.leaf(group)
            if leaf is None:
                continue
            leaf_masks = dict(other_masks)
            fine_indices = self._fine_indices_of_group[group]
            leaf_masks[self.drill_pos] = fine_mask[fine_indices]
            if not leaf_masks[self.drill_pos].any():
                continue
            estimate = leaf.count(
                conjunction_from_masks(leaf.schema, leaf_masks)
            )
            expectation += estimate.expectation
            variance += estimate.variance
        # Leaf models are independent: their variances add.
        return QueryEstimate(expectation, variance, self.relation.num_rows)

    # ------------------------------------------------------------------
    def _touched_groups(self, fine_mask: np.ndarray) -> dict[object, bool]:
        """Groups whose fine values the mask selects; value records
        whether the selection is *partial* (needs a leaf)."""
        touched: dict[object, bool] = {}
        for group, fine_indices in self._fine_indices_of_group.items():
            selected = fine_mask[fine_indices]
            if selected.any():
                touched[group] = not selected.all()
        if not touched:
            raise QueryError("predicate selects no drill-attribute value")
        return touched

    def _coarse_conjunction(self, other_masks, group_mask) -> Conjunction:
        masks = dict(other_masks)
        if group_mask is not None:
            masks[self.drill_pos] = group_mask
        return conjunction_from_masks(self.coarse.schema, masks)

    def __repr__(self):
        return (
            f"HierarchicalSummary(groups={self.num_groups}, "
            f"leaves_built={self.leaf_builds})"
        )
