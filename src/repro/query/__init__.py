"""SQL front-end: parser, AST, label resolution, and execution against
exact / sample / summary backends.

Planning (predicate normalization, backend routing, the physical
operators) lives one package over in :mod:`repro.plan`; the
:class:`SQLEngine` here is the stable per-backend façade on top of it.
"""

from repro.query.ast import Condition, CountQuery
from repro.query.backends import SummaryBackend
from repro.query.engine import CountBackend, SQLEngine
from repro.query.results import GroupRow, QueryResult
from repro.query.linear import (
    LinearQuery,
    condition_mask,
    conjunction_from_conditions,
)
from repro.query.parser import parse_query

__all__ = [
    "Condition",
    "CountBackend",
    "CountQuery",
    "GroupRow",
    "LinearQuery",
    "QueryResult",
    "SQLEngine",
    "SummaryBackend",
    "condition_mask",
    "conjunction_from_conditions",
    "parse_query",
]
