"""Linear queries and label → predicate resolution.

Two jobs live here:

* Resolve one parsed WHERE condition (over *labels*: state codes, raw
  numbers for bucketized attributes, ...) into the dense domain indices
  it selects: an index ``range``, or a sorted index list when the
  domain's labels do not sort in label order.  Each domain's
  :class:`LabelTable` — every label's low and high key, built once and
  cached on the domain — is bisected, so a condition costs two or three
  bisections however large the domain; no label is visited one by one.
  :mod:`repro.plan.canonical` intersects the selections into a
  canonical predicate.
* Provide the paper's formal :class:`LinearQuery` — a vector ``q ∈ R^d``
  over the possible-tuple space with answer ``⟨q, n^I⟩`` (Fig. 1).  It
  is materializable only for small schemas and is used by tests and
  examples to connect the implementation to the paper's model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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

class LabelTable:
    """What resolving a WHERE condition reads of one domain, built once.

    Every label has a *low* and a *high* key — a :class:`Bucket`'s
    bounds, a plain label is both — and is closed on the right unless it
    is a half-open bucket.  ``lows`` and ``highs`` hold the keys sorted,
    ``low_order`` / ``high_order`` the permutations that sort them
    (``None`` when label order already does: every bucketized and every
    sorted numeric domain), ``highs`` breaking ties open-before-closed.
    ``lows`` is ``None`` when the labels do not compare with each other
    at all.  ``=`` and ``IN`` read the label dict, the composite-key dict
    (``'WA/Seattle'`` for ``('WA', 'Seattle')``, first label wins) and,
    for a number, the buckets sorted by their lows.
    """

    __slots__ = (
        "name", "size", "index", "composite", "lows", "low_order",
        "highs", "high_order", "closed", "bucket_lows", "buckets",
    )

    def __init__(self, domain: Domain):
        labels = domain.labels
        self.name = domain.name
        self.size = len(labels)
        self.index = domain._index
        self.composite: dict[str, int] = {}
        lows, highs, closed, buckets = [], [], [], []
        for index, label in enumerate(labels):
            if isinstance(label, tuple):
                self.composite.setdefault("/".join(map(str, label)), index)
            if isinstance(label, Bucket):
                lows.append(label.low)
                highs.append(label.high)
                closed.append(label.closed_right)
                buckets.append((label.low, index, label))
            else:
                lows.append(label)
                highs.append(label)
                closed.append(True)
        buckets.sort(key=lambda bucket: (bucket[0], bucket[1]))
        self.bucket_lows = [low for low, _, _ in buckets]
        self.buckets = [(index, label) for _, index, label in buckets]
        try:
            low_order = sorted(range(self.size), key=lows.__getitem__)
            high_order = sorted(
                range(self.size), key=lambda i: (highs[i], closed[i])
            )
        except TypeError:
            self.lows = self.highs = self.closed = None
            self.low_order = self.high_order = None
            return
        self.lows = [lows[i] for i in low_order]
        self.highs = [highs[i] for i in high_order]
        self.closed = [closed[i] for i in high_order]
        identity = list(range(self.size))
        self.low_order = None if low_order == identity else low_order
        self.high_order = None if high_order == identity else high_order

    def match(self, literal) -> int | None:
        """Index of the one label a literal names, or ``None``."""
        index = self.index.get(literal)
        if index is not None:
            return index
        if isinstance(literal, str):
            return self.composite.get(literal)
        if isinstance(literal, (int, float)) and self.bucket_lows:
            at = bisect_right(self.bucket_lows, literal)
            if at:
                index, bucket = self.buckets[at - 1]
                if literal in bucket:
                    return index
        return None

    def compare(self, op: str, literal):
        """Selection of ``A <op> literal``: the labels a bucket overlaps
        or a plain label satisfies (``<`` keeps buckets starting below
        ``v``, ``>`` buckets ending above it, ``>=`` a bucket's open
        upper bound excluded)."""
        lows, highs = self.lows, self.highs
        try:
            if lows is None:  # the labels do not compare with each other
                raise TypeError
            if op == "<":
                run, order = range(bisect_left(lows, literal)), self.low_order
            elif op == "<=":
                run, order = range(bisect_right(lows, literal)), self.low_order
            elif op == ">":
                start = bisect_right(highs, literal)
                run, order = range(start, self.size), self.high_order
            elif op == ">=":
                start = bisect_right(highs, literal)
                closed = self.closed
                while start and closed[start - 1] and highs[start - 1] == literal:
                    start -= 1
                run, order = range(start, self.size), self.high_order
            else:
                raise QueryError(f"unsupported comparison {op!r}")
        except TypeError:
            raise QueryError(
                f"cannot compare {literal!r} with the labels of attribute "
                f"{self.name!r}"
            ) from None
        if literal != literal:  # NaN satisfies no comparison
            return range(0)
        if order is None:
            return run
        return sorted(order[run.start : run.stop])


def label_table(domain: Domain) -> LabelTable:
    """The domain's :class:`LabelTable` (built on first use, cached on
    the domain like :func:`numeric_weights`)."""
    table = domain._lookup
    if table is None:
        table = domain._lookup = LabelTable(domain)
    return table


def intersect(a, b):
    """Intersection of two selections (a ``range`` of indices or a
    sorted index list); a list stays sorted."""
    if isinstance(a, range):
        if isinstance(b, range):
            return range(max(a.start, b.start), min(a.stop, b.stop))
        a, b = b, a
    if not isinstance(b, range):
        b = set(b)
    return [index for index in a if index in b]


def resolve(domain: Domain, condition: Condition):
    """The dense indices one condition selects: a ``range`` or a sorted
    index list, empty when no label satisfies it (a literal outside the
    active domain, a range past the last label).  Type errors (comparing
    a number with string labels, ...) raise :class:`QueryError`."""
    table = label_table(domain)
    op, values = condition.op, condition.values
    if op == "=" or op == "!=":
        index = table.match(values[0])
        if op == "=":
            return range(0) if index is None else range(index, index + 1)
        if index is None:
            return range(table.size)
        return [*range(index), *range(index + 1, table.size)]
    if op == "in":
        found = {table.match(literal) for literal in values}
        found.discard(None)
        return sorted(found)
    if op == "between":
        low, high = values
        return intersect(table.compare(">=", low), table.compare("<=", high))
    return table.compare(op, values[0])


def condition_mask(domain: Domain, condition: Condition) -> np.ndarray:
    """Boolean value mask of one condition over a domain (the dense form
    of :func:`resolve`'s selection).

    A condition that selects no value gives the empty mask, which the
    query planner turns into a contradiction that answers ``0`` without
    touching a backend.  Type errors raise :class:`QueryError`.
    """
    mask = np.zeros(domain.size, dtype=bool)
    selection = resolve(domain, condition)
    if isinstance(selection, range):
        mask[selection.start : selection.stop] = True
    else:
        mask[selection] = True
    return mask


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
