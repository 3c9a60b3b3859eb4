"""SQL front-end: parser, AST, label resolution, and result types.

Planning (predicate normalization, backend routing, the physical
operators) lives one package over in :mod:`repro.plan`, and the
:class:`~repro.api.Explorer` caches one plan per SQL text on top of it.
"""

from repro.query.ast import Condition, CountQuery
from repro.query.backends import SummaryBackend
from repro.query.results import GroupRow, QueryResult
from repro.query.linear import LinearQuery, condition_mask
from repro.query.parser import parse_query

__all__ = [
    "Condition",
    "CountQuery",
    "GroupRow",
    "LinearQuery",
    "QueryResult",
    "SummaryBackend",
    "condition_mask",
    "parse_query",
]
