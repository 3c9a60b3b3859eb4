"""Sharded summaries on the flights dataset: build fast, merge at query.

One global MaxEnt fit is solver-bound: its polynomial grows
superlinearly with the 2D bucket budget.  ``SummaryBuilder.shards(n)``
partitions the relation, divides the budget across shards (total model
size stays constant), fits the per-shard models in parallel worker
processes, and answers queries by evaluating shards independently and
merging — counts add, error bounds combine in quadrature.

This script builds the same configuration unsharded and 4-way sharded,
compares build time, answer quality, and batch latency, then shows
attribute partitioning (``by="origin_state"``), where queries that
constrain the shard attribute prune non-owning shards entirely.

Run:  python examples/sharded_exploration.py            (small data)
      REPRO_ROWS=200000 python examples/sharded_exploration.py
"""

import os
import time

from repro.api import Explorer, SummaryBuilder, SummaryStore
from repro.datasets import generate_flights

PAIRS = (
    ("origin_state", "distance"),
    ("dest_state", "distance"),
    ("fl_time", "distance"),
)


def build(relation, shards=0, by=None):
    builder = (
        SummaryBuilder(relation)
        .pairs(*PAIRS)
        .per_pair_budget(160)
        .iterations(15)
        .name("flights")
    )
    if shards:
        builder.shards(shards, by=by)
    start = time.perf_counter()
    summary = builder.fit()
    return summary, time.perf_counter() - start


def main() -> None:
    num_rows = int(os.environ.get("REPRO_ROWS", "60000"))
    print(f"generating {num_rows} synthetic flights ...")
    dataset = generate_flights(num_rows=num_rows, seed=7)
    relation = dataset.coarse

    print("\n-- build: one global fit vs 4 round-robin shards --")
    flat, flat_time = build(relation)
    sharded, sharded_time = build(relation, shards=4)
    print(f"  unsharded: {flat_time:5.2f}s  {flat!r}")
    print(f"  sharded  : {sharded_time:5.2f}s  {sharded!r}")
    print(f"  speedup  : {flat_time / sharded_time:.2f}x")

    exact = Explorer.attach(relation)
    flat_session = Explorer.attach(flat)
    sharded_session = Explorer.attach(sharded)

    print("\n-- answer quality: merged vs global vs exact --")
    sql = (
        "SELECT COUNT(*) FROM R "
        "WHERE origin_state = 'CA' AND distance >= 1000"
    )
    merged = sharded_session.sql(sql)
    print(f"  exact    : {exact.sql(sql).scalar:9.0f}")
    print(f"  unsharded: {flat_session.sql(sql).scalar:9.1f}")
    print(
        f"  sharded  : {merged.scalar:9.1f}   "
        f"± {merged.std:.1f} (quadrature-merged bounds)"
    )

    print("\n-- batched drill-down through Explorer.run_many --")
    buckets = relation.schema.domain("distance").labels
    span = (buckets[0].low, buckets[-1].high)
    width = (span[1] - span[0]) / 16
    bands = [
        (span[0] + index * width, span[0] + (index + 1) * width)
        for index in range(16)
    ]
    queries = [
        sharded_session.query().where(distance__between=band).to_ast()
        for band in bands
    ]
    for name, session in (("unsharded", flat_session), ("sharded", sharded_session)):
        session.clear_cache()
        start = time.perf_counter()
        session.run_many(queries)
        print(f"  {name:9s}: {len(queries)} queries in "
              f"{(time.perf_counter() - start) * 1e3:6.1f} ms")

    print("\n-- attribute partitioning: shard by origin_state --")
    by_state, by_time = build(relation, shards=4, by="origin_state")
    print(f"  built in {by_time:.2f}s: {by_state!r}")
    session = Explorer.attach(by_state)
    sql = "SELECT COUNT(*) FROM R WHERE origin_state = 'CA'"
    value = session.sql(sql).scalar
    touched = len(session.plan(sql).route.detail["live_shards"])
    print(
        f"  COUNT(origin_state='CA') = {value:.1f} touched "
        f"{touched}/{by_state.num_shards} shards (others pruned)"
    )

    print("\n-- persistence: the shard set is one named version --")
    store = SummaryStore(os.environ.get("REPRO_STORE", ".cache/example-store"))
    record = store.save(by_state, "flights-by-state", tag="demo")
    print(f"  stored as {record.describe()}")
    reopened = Explorer.open(store, "flights-by-state")
    print(f"  reopened: {reopened.summary!r}")


if __name__ == "__main__":
    main()
