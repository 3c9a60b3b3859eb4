"""The formal query-backend contract.

Every estimation method the engine can execute against — the exact
relation, weighted samples, and MaxEnt summaries — implements this ABC.
It replaces the old ``CountBackend`` Protocol duck-typing with an
explicit base class carrying *capability flags*, so callers (the SQL
engine, the evaluation harness, the CLI) can ask a backend what it can
do instead of probing for attributes:

* ``supports_sum`` — the backend can answer ``SUM``/``AVG`` aggregates
  via :meth:`sum_values` and :meth:`sum_and_count`;
* ``is_exact`` — answers are ground truth, not estimates (used by the
  harness to pick the reference method).

The module deliberately sits at the bottom of the import graph (only
``repro.errors`` above it) so concrete backends in ``repro.query`` and
``repro.baselines`` can subclass it without cycles.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.schema import Schema
    from repro.stats.predicates import Conjunction


class Backend(abc.ABC):
    """A method that answers conjunctive counting queries.

    Subclasses must set :attr:`schema` and :attr:`name` in
    ``__init__`` and may flip the capability flags as class attributes.
    """

    #: Can this backend answer ``SUM``/``AVG`` via :meth:`sum_values`?
    supports_sum: bool = False
    #: Are answers ground truth (full scan) rather than estimates?
    is_exact: bool = False

    schema: "Schema"
    name: str = "backend"

    # -- required interface ---------------------------------------------
    @abc.abstractmethod
    def count(self, predicate: "Conjunction") -> float:
        """Estimated/exact ``COUNT(*)`` under a conjunction."""

    @abc.abstractmethod
    def group_counts(
        self, attrs: Sequence[str], predicate: "Conjunction | None"
    ) -> dict[tuple, float]:
        """Counts per combination of group-attribute *labels*."""

    # -- optional capabilities ------------------------------------------
    def count_many(self, predicates: Sequence["Conjunction"]) -> list[float]:
        """Batched :meth:`count`.

        The default loops; backends with a vectorized path (the MaxEnt
        summary's single-pass polynomial evaluation) override this.
        """
        return [self.count(predicate) for predicate in predicates]

    def sum_values(self, attr, weights, predicate: "Conjunction | None") -> float:
        """``SUM(w(attr))`` under a conjunction, when ``supports_sum``."""
        raise QueryError(
            f"backend {self.name!r} ({type(self).__name__}) does not "
            "support SUM/AVG aggregates"
        )

    def sum_and_count(
        self, attr, weights, predicate: "Conjunction"
    ) -> tuple[float, float]:
        """``(SUM(w(attr)), COUNT(*))`` under a conjunction — what an AVG
        needs.  The default asks :meth:`sum_values` and :meth:`count`;
        a model backend answers both from one pass."""
        return (
            float(self.sum_values(attr, weights, predicate)),
            float(self.count(predicate)),
        )

    # -- introspection ---------------------------------------------------
    def describe(self) -> dict:
        """Capability card shown by the CLI and the Explorer."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "supports_sum": self.supports_sum,
            "is_exact": self.is_exact,
        }

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
