"""EntropyDB reproduction: probabilistic database summarization for
interactive data exploration (Orr, Balazinska, Suciu — VLDB 2017).

A *summary* is a maximum-entropy probabilistic model of one relation,
fitted to a budgeted set of 1D/2D statistics; counting queries are
answered in milliseconds by evaluating a compressed polynomial instead
of scanning data.  This package reproduces the paper's models and
experiments, then grows them into a small analytic system.

The canonical public API lives in :mod:`repro.api` and is
session-oriented:

1. load or generate a discrete :class:`~repro.data.relation.Relation`,
2. fit a summary with the fluent :class:`~repro.api.SummaryBuilder`
   (choose 2D statistics, compress the polynomial, fit with Mirror
   Descent)::

       summary = (
           SummaryBuilder(relation)
           .pairs(("origin_state", "distance"))
           .per_pair_budget(150)
           .fit()
       )

   Add ``.shards(4, by="origin_state")`` before ``fit()`` to partition
   the relation and fit one model per shard in parallel worker
   processes — queries evaluate the shards independently and merge
   (counts add, error bounds combine in quadrature), and shards whose
   partition cannot match the predicate are pruned.

3. open an :class:`~repro.api.Explorer` session and ask questions —
   chainable queries, plain SQL, or batched ``run_many()`` (one
   vectorized inference pass per batch, fanned across shards for
   sharded models)::

       ex = Explorer.attach(summary)
       ex.query().where(distance__ge=1000).group_by("origin_state") \\
         .order("desc").limit(10).run()

   Every query — from the Explorer, the SQL engine, the CLI, or the
   evaluation harness — flows through the :mod:`repro.plan` query
   planner: the WHERE clause normalizes to a canonical predicate
   (``BETWEEN 3 AND 7`` and ``x >= 3 AND x <= 7`` share one cache
   key, contradictions answer ``0`` without touching a backend), a
   cost/capability model routes it (exact scan vs summary vs sharded
   fan-out with pruning), and shared physical operators execute it.
   ``ex.explain(q)`` shows the three stages for any query.

4. persist fitted models — plain or sharded — as named, versioned
   artifacts in a :class:`~repro.api.SummaryStore` and reopen them
   with ``Explorer.open(store, name)``.

5. serve a stored model to many concurrent clients with
   :mod:`repro.serve` (``python -m repro serve``): an asyncio
   JSON-lines server with single-flight evaluation (a miss is
   evaluated by the request that found it; same-canonical-key queries
   in flight share one execution), a
   process-wide TTL result cache keyed on the store
   version, admission control with ``Retry-After`` backpressure, and
   ``SIGHUP``/``reload`` hot version swaps.

6. keep the served model fresh with :mod:`repro.ingest`
   (``python -m repro ingest``): appended rows route to the shards
   whose value ranges they touch, only those shards delta-refit (each
   solver warm-started from its previous solution, bucket structure
   reused — ~1/N of a rebuild), the refreshed shard set publishes to
   the store as a child version with lineage metadata, and a server
   started with ``--watch`` hot-reloads it without dropping requests.
   Unseen labels widen the domains instead of forcing a rebuild.

Every estimation method — the exact relation, uniform/stratified
samples, single MaxEnt summaries, sharded summaries — implements the
:class:`~repro.api.Backend` ABC, so the same query text runs against
any of them.  The lower-level layers (``repro.core``, ``repro.query``,
``repro.stats``) remain importable for tests and experiments;
construct summaries with :class:`~repro.api.SummaryBuilder`.

Verify an installation with the tier-1 suite::

    PYTHONPATH=src python -m pytest -x -q

See ``README.md`` for a quickstart, ``docs/`` for the architecture and
API reference, and ``examples/quickstart.py`` /
``examples/sharded_exploration.py`` for complete tours.
"""

from repro.api import (
    Backend,
    Explorer,
    Query,
    SummaryBuilder,
    SummaryRecord,
    SummaryStore,
)
from repro.core import (
    CompressedPolynomial,
    EntropySummary,
    InferenceEngine,
    MirrorDescentSolver,
    ModelParameters,
    NaivePolynomial,
    QueryEstimate,
    ShardedSummary,
    SolverReport,
    partition_relation,
)
from repro.data import (
    Bucket,
    Domain,
    EquiWidthBinner,
    Relation,
    Schema,
    TopKGroupBinner,
    integer_domain,
)
from repro.errors import (
    BudgetError,
    DomainError,
    IngestError,
    QueryError,
    ReproError,
    SchemaError,
    SolverError,
    StatisticError,
)
from repro.stats import (
    Conjunction,
    RangePredicate,
    SetPredicate,
    Statistic,
    StatisticSet,
    build_statistic_set,
)

__version__ = "1.8.0"

__all__ = [
    "Backend",
    "BudgetError",
    "Bucket",
    "CompressedPolynomial",
    "Conjunction",
    "Domain",
    "DomainError",
    "EntropySummary",
    "EquiWidthBinner",
    "Explorer",
    "InferenceEngine",
    "IngestError",
    "MirrorDescentSolver",
    "ModelParameters",
    "NaivePolynomial",
    "Query",
    "QueryError",
    "QueryEstimate",
    "RangePredicate",
    "Relation",
    "ReproError",
    "Schema",
    "SchemaError",
    "SetPredicate",
    "ShardedSummary",
    "SolverError",
    "SolverReport",
    "Statistic",
    "StatisticError",
    "StatisticSet",
    "SummaryBuilder",
    "SummaryRecord",
    "SummaryStore",
    "TopKGroupBinner",
    "build_statistic_set",
    "integer_domain",
    "partition_relation",
    "__version__",
]
