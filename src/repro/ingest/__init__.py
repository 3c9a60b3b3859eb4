"""Incremental summary maintenance: append → delta refit → publish.

EntropyDB's summaries (journals_pvldb_OrrSB17) are fitted once over a
static relation; this package makes them *maintainable* under an
append-mostly feed without ever paying for a full rebuild:

* :class:`AppendBatch` — new rows normalized against the summary's
  schema, with domain growth handled by widening (old indices keep
  their meaning);
* :class:`IngestPipeline` — routes batch rows to the shards whose
  value ranges they touch, **delta-refits only those shards** (each
  solver warm-started from its previous solution, bucket structure
  reused), and publishes the refreshed shard set to a
  :class:`~repro.api.store.SummaryStore` as a child version with
  lineage metadata.  It holds only the summary: an append reads its
  batch and nothing else, so a stored summary takes appends without the
  data it was built from (``IngestPipeline(summary).append(batch)`` is
  the one-shot form).

The serve layer's :class:`~repro.serve.watcher.StoreWatcher` closes the
loop: it notices the published version and hot-reloads live sessions,
so data staleness becomes a tunable, not a redeploy.
"""

from repro.ingest.batch import AppendBatch, widen_schema
from repro.ingest.pipeline import IngestPipeline, IngestReport

__all__ = [
    "AppendBatch",
    "IngestPipeline",
    "IngestReport",
    "widen_schema",
]
