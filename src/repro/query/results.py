"""Query results: a scalar count or a list of group rows.

They sit below the planning layer (:mod:`repro.plan`), which builds
them, so every query surface shares them without an import cycle.
"""

from __future__ import annotations

from repro.query.ast import CountQuery


class GroupRow:
    """One GROUP BY output row."""

    __slots__ = ("labels", "count")

    def __init__(self, labels: tuple, count: float):
        self.labels = labels
        self.count = count

    def __iter__(self):
        yield from self.labels
        yield self.count

    def __eq__(self, other):
        if not isinstance(other, GroupRow):
            return NotImplemented
        return self.labels == other.labels and self.count == other.count

    def __repr__(self):
        return f"GroupRow({self.labels!r}, {self.count:g})"


def ordered_rows(counts, order: str | None, limit: int | None) -> list[GroupRow]:
    """``{labels: count}`` → the output rows of a grouped query: ORDER
    BY cnt (``"desc"`` / ``"asc"`` / None), ties and the unordered case
    by the label tuple's string form, then LIMIT.  The one copy — the
    in-process operator and the cluster frontend's merge both call it on
    the same label objects, so served rows equal in-process rows in
    order as well as in value."""
    rows = [GroupRow(labels, count) for labels, count in counts.items()]
    if order == "desc":
        rows.sort(key=lambda row: (-row.count, str(row.labels)))
    elif order == "asc":
        rows.sort(key=lambda row: (row.count, str(row.labels)))
    else:
        rows.sort(key=lambda row: str(row.labels))
    return rows if limit is None else rows[:limit]


class QueryResult:
    """Result of one execution: a scalar or a list of group rows.

    For scalar counts answered by a model backend, ``estimate`` carries
    the full :class:`~repro.core.inference.QueryEstimate`, so the error
    bounds (``std``, ``ci95``) of Sec 7's Binomial extension travel with
    the result.
    """

    __slots__ = ("query", "scalar", "rows", "estimate")

    def __init__(
        self,
        query: CountQuery,
        scalar: float | None,
        rows: list[GroupRow] | None,
        estimate=None,
    ):
        self.query = query
        self.scalar = scalar
        self.rows = rows
        self.estimate = estimate

    @property
    def is_scalar(self) -> bool:
        return self.scalar is not None

    # -- error bounds (model backends only; None otherwise) -------------
    @property
    def std(self) -> float | None:
        """Model standard deviation of a scalar count, if available."""
        return self.estimate.std if self.estimate is not None else None

    @property
    def ci95(self) -> tuple[float, float] | None:
        """Model 95% confidence interval of a scalar count, if available."""
        return self.estimate.ci95 if self.estimate is not None else None

    # -- conversions -----------------------------------------------------
    def to_rows(self) -> list[tuple]:
        """Uniform row view: ``[(label, ..., count), ...]``.

        A scalar result becomes a single ``(count,)`` row.
        """
        if self.is_scalar:
            return [(self.scalar,)]
        return [tuple(row.labels) + (row.count,) for row in self.rows]

    def to_dict(self) -> dict:
        """Dict view of the result.

        Scalar: ``{"count": x}`` plus ``std``/``ci95`` when the backend
        provides error bounds.  Grouped: label(s) → count, with
        single-attribute groups keyed by the bare label.
        """
        if self.is_scalar:
            out: dict = {"count": self.scalar}
            if self.estimate is not None:
                out["std"] = self.estimate.std
                out["ci95"] = self.estimate.ci95
            return out
        single = len(self.query.group_by) == 1
        return {
            (row.labels[0] if single else row.labels): row.count
            for row in self.rows
        }

    def __repr__(self):
        if self.is_scalar:
            return f"QueryResult({self.scalar:g})"
        return f"QueryResult({len(self.rows)} rows)"
