"""Linear queries and label → predicate resolution.

Two jobs live here:

* Resolve one parsed WHERE condition (over *labels*: state codes, raw
  numbers for bucketized attributes, ...) into a mask over the dense
  domain indices; :mod:`repro.plan.canonical` intersects the masks
  into a canonical predicate.
* Provide the paper's formal :class:`LinearQuery` — a vector ``q ∈ R^d``
  over the possible-tuple space with answer ``⟨q, n^I⟩`` (Fig. 1).  It
  is materializable only for small schemas and is used by tests and
  examples to connect the implementation to the paper's model.
"""

from __future__ import annotations

import numpy as np

from repro.data.binning import Bucket
from repro.data.domain import Domain
from repro.data.frequency import all_tuples, frequency_vector
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.query.ast import Condition
from repro.stats.predicates import Conjunction


# ----------------------------------------------------------------------
# Label resolution
# ----------------------------------------------------------------------

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


def condition_mask(domain: Domain, condition: Condition) -> np.ndarray:
    """Boolean value mask of one condition over a domain.

    A condition that selects no value (a literal outside the active
    domain, a range past the last label) gives the empty mask, which
    the query planner turns into a contradiction that answers ``0``
    without touching a backend.  Type errors (comparing a number with a
    string label, ...) raise :class:`QueryError`.
    """
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


def numeric_weights(domain: Domain) -> np.ndarray:
    """Numeric value of every label — the weight vector turning a SUM
    over an attribute into a linear query.  Bucket labels contribute
    their midpoint (the standard histogram estimator).  Computed once
    per domain; the array handed out is read-only."""
    weights = domain._numeric_weights
    if weights is None:
        weights = np.empty(domain.size, dtype=float)
        for index, label in enumerate(domain.labels):
            if isinstance(label, Bucket):
                weights[index] = label.midpoint
            elif isinstance(label, bool) or not isinstance(label, (int, float)):
                raise QueryError(
                    f"attribute {domain.name!r} is not numeric; cannot SUM/AVG "
                    f"over label {label!r}"
                )
            else:
                weights[index] = float(label)
        weights.setflags(write=False)
        domain._numeric_weights = weights
    return weights


# ----------------------------------------------------------------------
# The paper's linear-query formalism
# ----------------------------------------------------------------------

class LinearQuery:
    """A dense linear query ``q ∈ R^d`` over ``Tup`` (paper Sec 3.1).

    Only materializable for small schemas; the production path never
    builds these vectors, but they are the semantic reference point:
    every counting query of the engine equals ``⟨q, n^I⟩`` for the
    vector produced by :meth:`from_conjunction`.
    """

    __slots__ = ("schema", "vector")

    def __init__(self, schema: Schema, vector: np.ndarray):
        vector = np.asarray(vector, dtype=float)
        if vector.shape[0] != schema.num_possible_tuples():
            raise QueryError(
                "linear query vector length must equal the number of "
                "possible tuples"
            )
        self.schema = schema
        self.vector = vector

    @classmethod
    def from_conjunction(
        cls, schema: Schema, predicate: Conjunction
    ) -> "LinearQuery":
        """0/1 counting-query vector of a conjunctive predicate."""
        coords = np.fromiter(
            (
                1.0 if predicate.matches_tuple(indices) else 0.0
                for indices in all_tuples(schema)
            ),
            dtype=float,
            count=schema.num_possible_tuples(),
        )
        return cls(schema, coords)

    def answer(self, relation: Relation) -> float:
        """``⟨q, n^I⟩`` — the exact answer on an instance."""
        if relation.schema != self.schema:
            raise QueryError("relation schema does not match the query")
        return float(np.dot(self.vector, frequency_vector(relation)))

    def is_counting_query(self) -> bool:
        """All coordinates 0/1 (the class the paper's predicates form)."""
        return bool(np.all((self.vector == 0.0) | (self.vector == 1.0)))

    def __add__(self, other: "LinearQuery") -> "LinearQuery":
        if self.schema != other.schema:
            raise QueryError("cannot add queries over different schemas")
        return LinearQuery(self.schema, self.vector + other.vector)

    def __mul__(self, scale: float) -> "LinearQuery":
        return LinearQuery(self.schema, self.vector * float(scale))

    __rmul__ = __mul__
