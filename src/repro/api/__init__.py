"""The canonical public API: session-oriented exploration.

One coherent surface over the whole reproduction:

* :class:`Explorer` — a session facade (``attach``/``open``) with a
  fluent query builder, SQL execution, plan and result caches, and batched
  ``run_many()`` execution;
* :class:`SummaryBuilder` — keyword-free summary construction;
  ``.shards(n, by=...)`` fits a partitioned
  :class:`~repro.core.sharding.ShardedSummary` in parallel workers;
* :class:`Backend` — the formal ABC every estimation method (exact,
  samples, single or sharded MaxEnt summaries) implements, with
  capability flags;
* :class:`SummaryStore` — named, versioned persistence for fitted
  summaries, including whole shard sets as one version.

Quick tour::

    from repro.api import Explorer, SummaryBuilder, SummaryStore

    summary = SummaryBuilder(relation).pairs(("a", "b")).budget(0).fit()
    store = SummaryStore("models")
    store.save(summary, "demo", tag="first")

    ex = Explorer.attach(summary)
    ex.query().where(a__ge=3).group_by("b").order("desc").limit(5).run()
"""

from repro.api.backend import Backend
from repro.api.builder import SummaryBuilder
from repro.api.explorer import Explorer
from repro.api.query import Query
from repro.api.store import SummaryRecord, SummaryStore

__all__ = [
    "Backend",
    "Explorer",
    "Query",
    "SummaryBuilder",
    "SummaryRecord",
    "SummaryStore",
]
