"""The fluent, chainable query builder behind ``Explorer.query()``.

Django-style lookups express the paper's conjunctive counting queries
without SQL strings::

    ex.query().where(distance__ge=1000).run()                 # COUNT(*)
    ex.query().where(origin_state="CA", dest_state__in=("NY", "WA")).run()
    ex.query().where(distance__ge=1000).group_by("origin_state")
      .order("desc").limit(10).run()
    ex.query().sum("distance").where(origin_state="CA").run() # SUM

Supported lookup suffixes: ``__eq`` (default), ``__ne``, ``__lt``,
``__le``, ``__gt``, ``__ge``, ``__in`` (iterable), ``__between``
(2-sequence).  ``run()`` executes through the owning Explorer (and its
caches); building a query never touches the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import QueryError
from repro.query.ast import Condition, CountQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.explorer import Explorer
    from repro.query.results import QueryResult

#: lookup suffix → Condition operator
_LOOKUPS = {
    "eq": "=",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "in": "in",
    "between": "between",
}


def _condition_from_lookup(lookup: str, value) -> Condition:
    """``distance__ge=1000`` → ``Condition("distance", ">=", [1000])``."""
    attribute, separator, suffix = lookup.rpartition("__")
    if not separator:
        attribute, suffix = lookup, "eq"
    op = _LOOKUPS.get(suffix)
    if op is None:
        # An attribute whose name itself contains "__" (no known suffix).
        attribute, op = lookup, "="
        suffix = "eq"
    if op == "in":
        values = list(value)
    elif op == "between":
        values = list(value)
        if len(values) != 2:
            raise QueryError(
                f"{lookup}=... needs a (low, high) pair, got {value!r}"
            )
    else:
        values = [value]
    return Condition(attribute, op, values)


class Query:
    """One query under construction; every method returns ``self``."""

    __slots__ = (
        "_explorer", "_conditions", "_group_by", "_order", "_limit",
        "_aggregate", "_aggregate_attr",
    )

    def __init__(self, explorer: "Explorer"):
        self._explorer = explorer
        self._conditions: list[Condition] = []
        self._group_by: list[str] = []
        self._order: str | None = None
        self._limit: int | None = None
        self._aggregate = "count"
        self._aggregate_attr: str | None = None

    # -- WHERE -----------------------------------------------------------
    def where(self, *conditions: Condition, **lookups) -> "Query":
        """Add conjunctive conditions (all must hold, Eq. 16).

        Positional arguments are raw :class:`Condition` objects; keyword
        arguments use the lookup syntax documented in the module
        docstring.
        """
        for condition in conditions:
            if not isinstance(condition, Condition):
                raise QueryError(
                    f"positional where() arguments must be Conditions, "
                    f"got {type(condition).__name__}"
                )
            self._conditions.append(condition)
        for lookup, value in lookups.items():
            self._conditions.append(_condition_from_lookup(lookup, value))
        return self

    # -- GROUP BY / ORDER / LIMIT ---------------------------------------
    def group_by(self, *attrs: str) -> "Query":
        """Group counts by one or more attributes."""
        self._group_by.extend(attrs)
        return self

    def order(self, direction: str = "desc") -> "Query":
        """Order grouped rows by count (``"asc"`` or ``"desc"``)."""
        self._order = direction
        return self

    def limit(self, count: int) -> "Query":
        """Keep only the first ``count`` grouped rows."""
        self._limit = count
        return self

    # -- aggregate selection --------------------------------------------
    def count(self) -> "Query":
        """Aggregate ``COUNT(*)`` (the default)."""
        self._aggregate, self._aggregate_attr = "count", None
        return self

    def sum(self, attr: str) -> "Query":
        """Aggregate ``SUM(attr)`` (numeric attributes only)."""
        self._aggregate, self._aggregate_attr = "sum", attr
        return self

    def avg(self, attr: str) -> "Query":
        """Aggregate ``AVG(attr)`` (numeric attributes only)."""
        self._aggregate, self._aggregate_attr = "avg", attr
        return self

    # -- terminals -------------------------------------------------------
    def to_ast(self) -> CountQuery:
        """The backend-agnostic :class:`CountQuery` this builder denotes."""
        return CountQuery(
            table=self._explorer.table_name,
            group_by=self._group_by,
            conditions=self._conditions,
            order=self._order,
            limit=self._limit,
            aggregate=self._aggregate,
            aggregate_attr=self._aggregate_attr,
        )

    def run(self) -> "QueryResult":
        """Execute through the Explorer (cached)."""
        return self._explorer.execute(self.to_ast())

    def value(self) -> float:
        """Execute and unwrap the scalar answer."""
        result = self.run()
        if not result.is_scalar:
            raise QueryError("query is grouped; use run()")
        return result.scalar

    def __repr__(self):
        return f"Query({self.to_ast()!r})"
