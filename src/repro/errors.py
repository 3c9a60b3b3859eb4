"""Exception hierarchy for the repro (EntropyDB reproduction) package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DomainError(ReproError):
    """A value is outside an attribute's active domain, or a domain is
    malformed (empty, unordered buckets, ...)."""


class SchemaError(ReproError):
    """A relation, statistic, or query references attributes inconsistently
    with the schema."""


class StatisticError(ReproError):
    """A statistic set violates the model's structural assumptions
    (e.g. overlapping 2D statistics on the same attribute pair)."""


class SolverError(ReproError):
    """The Mirror Descent solver failed to make progress or was given an
    infeasible statistic set.

    ``report`` is the :class:`~repro.core.solver.SolverReport` of the
    solve that failed, when the failure came from a running solve."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class QueryError(ReproError):
    """A query cannot be parsed or is not supported by the engine."""


class BudgetError(ReproError):
    """A statistic-selection budget is invalid or cannot be met."""


class IngestError(ReproError):
    """An append batch cannot be applied to a summary (schema mismatch,
    stale base relation, malformed rows, ...)."""


class ObservabilityError(ReproError):
    """The observability layer was misused (metric re-registered with a
    different type or label set, malformed exposition text, ...)."""


class ChaosError(ReproError):
    """The chaos/soak harness was misused (malformed fault plan or
    scenario config) or a soak scenario violated an invariant."""


class InjectedFault(ChaosError):
    """A fault deliberately injected by the chaos harness.

    Only ever raised when a :class:`~repro.chaos.FaultInjector` is
    explicitly attached to a component — production paths without an
    injector can never see it.  The serve layer maps it to a retryable
    503 (with a ``retry_after`` hint) so well-behaved clients recover
    the same way they recover from admission control.
    """

    def __init__(self, hook: str):
        super().__init__(f"chaos: injected fault at hook {hook!r}")
        self.hook = hook
