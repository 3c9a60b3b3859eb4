"""Canonical predicates: the normalize stage of the query planner.

Every query surface (SQL text, the fluent builder, raw conjunctions
from the evaluation harness) reduces its WHERE clause to one
:class:`CanonicalPredicate` — a per-attribute interval/set form in
canonical attribute order.  Normalization is interval algebra over the
dense domain indices, in one pass over the conditions:

* each condition resolves to a *selection* — an index ``range`` or a
  sorted index list — by bisection on its domain's
  :class:`~repro.query.linear.LabelTable`, at a cost that does not grow
  with the domain,
* selections on the same attribute **intersect** (``x >= 3 AND x <= 7``
  equals ``x BETWEEN 3 AND 7``), so duplicate conjuncts dedupe for free,
* trivial conjuncts (a selection of the whole domain) drop out,
* an empty intersection — or a condition selecting no value at all —
  marks the predicate as a **contradiction**, which the planner answers
  with ``0`` in O(1) without touching any backend.

No dense mask is built here: :meth:`CanonicalPredicate.to_conjunction`
builds each constrained attribute's mask once, read-only, the first
time a backend needs it, and the :class:`Conjunction` carries them.

The canonical form is hashable: :attr:`CanonicalPredicate.key` is the
predicate part of every :attr:`~repro.plan.planner.QueryPlan.cache_key`,
which the Explorer's result LRU and the server's result cache share, so
syntactic variants of one query hit one cache entry.  A repeated SQL
text never gets here: the Explorer caches its whole plan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import Schema
from repro.errors import QueryError, ReproError
from repro.query.ast import Condition
from repro.query.linear import intersect, resolve
from repro.stats.predicates import (
    Conjunction,
    Predicate,
    RangePredicate,
    SetPredicate,
)

#: Key of every contradictory predicate — all of them are equivalent
#: (they select the empty set), so they share one canonical key.
EMPTY_KEY = ("empty",)


def _predicate_key(predicate: Predicate):
    """Hashable canonical form of one per-attribute predicate."""
    if isinstance(predicate, RangePredicate):
        return ("range", predicate.low, predicate.high)
    if isinstance(predicate, SetPredicate):
        return ("set", tuple(sorted(predicate.indices)))
    raise TypeError(f"cannot canonicalize {type(predicate).__name__}")


class CanonicalPredicate:
    """Normal form of a conjunctive WHERE clause over one schema.

    ``entries`` holds ``(position, predicate)`` pairs in ascending
    attribute position — the canonical attribute order — with only
    non-trivial predicates present.  A contradiction has no entries and
    ``is_empty`` set; the trivial predicate (matches everything) has no
    entries and ``is_empty`` unset.
    """

    __slots__ = ("schema", "entries", "is_empty", "empty_reason", "key",
                 "_conjunction")

    def __init__(
        self,
        schema: Schema,
        entries: Sequence[tuple[int, Predicate]] = (),
        *,
        is_empty: bool = False,
        empty_reason: str | None = None,
    ):
        self.schema = schema
        self.entries = tuple(sorted(entries, key=lambda entry: entry[0]))
        self.is_empty = bool(is_empty)
        self.empty_reason = empty_reason
        if self.is_empty:
            self.key = EMPTY_KEY
        else:
            self.key = tuple(
                (pos, _predicate_key(predicate))
                for pos, predicate in self.entries
            )
        self._conjunction = None

    # -- algebraic views -------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        """Matches every tuple (no constraints, not a contradiction)."""
        return not self.entries and not self.is_empty

    def predicate_at(self, pos: int) -> Predicate | None:
        """The canonical predicate on ``pos``, or None if unconstrained."""
        for position, predicate in self.entries:
            if position == pos:
                return predicate
        return None

    def to_conjunction(self) -> Conjunction:
        """The executable :class:`Conjunction` (memoized), carrying the
        read-only mask of every constrained attribute.  A cached plan is
        shared across threads, so no caller may write into them.

        Contradictions have no conjunction — the planner must
        short-circuit them before execution.
        """
        if self.is_empty:
            raise QueryError(
                "a contradictory predicate has no executable conjunction; "
                f"short-circuit it ({self.empty_reason or 'empty selection'})"
            )
        conjunction = self._conjunction
        if conjunction is None:
            # Racing first calls on a shared plan each build an equal
            # conjunction; whichever lands is the one kept.
            masks = {}
            domains = self.schema.domains
            for pos, predicate in self.entries:
                mask = predicate.mask(domains[pos].size)
                mask.setflags(write=False)
                masks[pos] = mask
            conjunction = self._conjunction = Conjunction(
                self.schema, dict(self.entries), masks=masks
            )
        return conjunction

    def describe(self) -> str:
        """One-line human form used by ``explain()``."""
        if self.is_empty:
            reason = self.empty_reason or "empty selection"
            return f"contradiction ({reason})"
        if not self.entries:
            return "true (no constraints)"
        names = self.schema.attribute_names
        return " AND ".join(
            f"{names[pos]} {predicate!r}" for pos, predicate in self.entries
        )

    def __eq__(self, other):
        if not isinstance(other, CanonicalPredicate):
            return NotImplemented
        return self.schema == other.schema and self.key == other.key

    def __hash__(self):
        return hash((self.schema, self.key))

    def __repr__(self):
        return f"CanonicalPredicate({self.describe()})"


def _entry(selection, size: int) -> Predicate | None:
    """Tightest predicate for a non-empty selection (an index ``range``
    or a sorted index list); None when it is the whole domain."""
    count = len(selection)
    if count == size:
        return None
    if isinstance(selection, range):
        return RangePredicate(selection.start, selection.stop - 1)
    first, last = selection[0], selection[-1]
    if last - first + 1 == count:
        return RangePredicate(first, last)
    return SetPredicate(selection)


def _from_selections(schema: Schema, selections: dict) -> CanonicalPredicate:
    entries = []
    domains = schema.domains
    for pos, selection in selections.items():
        if not selection:
            name = domains[pos].name
            return CanonicalPredicate(
                schema,
                is_empty=True,
                empty_reason=f"no value of {name!r} satisfies the conditions",
            )
        predicate = _entry(selection, domains[pos].size)
        if predicate is not None:
            entries.append((pos, predicate))
    return CanonicalPredicate(schema, entries)


def canonicalize_conditions(
    schema: Schema, conditions: Sequence[Condition]
) -> CanonicalPredicate:
    """Normalize parsed WHERE conditions.

    Each condition resolves to an index selection by bisection, the
    selections on one attribute intersect, and unsatisfiable conditions
    (values outside the active domain, reversed ranges after clamping,
    contradictory bounds) collapse to the canonical contradiction
    instead of raising.  Unknown attributes and type errors still raise.
    """
    selections: dict = {}
    domains = schema.domains
    for condition in conditions:
        pos = schema.position(condition.attribute)
        selection = resolve(domains[pos], condition)
        previous = selections.get(pos)
        selections[pos] = (
            selection if previous is None else intersect(previous, selection)
        )
    return _from_selections(schema, selections)


def canonicalize_conjunction(predicate: Conjunction | None, schema=None):
    """Normalize an already-compiled conjunction (the harness's and the
    experiment drivers' native currency).

    Re-deriving the canonical form from the masks collapses equivalent
    spellings — a ``SetPredicate`` over contiguous indices and the
    matching ``RangePredicate`` share one key — so predicate-level
    callers join the same caches as the SQL surfaces.
    """
    if predicate is None:
        if schema is None:
            raise ReproError("need a schema to canonicalize None")
        return CanonicalPredicate(schema)
    if predicate.is_trivial():
        return CanonicalPredicate(predicate.schema)
    return _from_selections(
        predicate.schema,
        {
            pos: np.flatnonzero(mask).tolist()
            for pos, mask in predicate.attribute_masks().items()
        },
    )
