"""Tests for the ingest subsystem: append → delta refit → publish →
hot reload.

Unit pieces (batches, routing, refit math) run on tiny synthetic
relations; the serving-side tests boot a real watcher-enabled
:class:`SummaryServer` and verify the whole freshness loop — including
the acceptance demo: ``repro ingest`` against a served store flips live
clients to the new version with zero dropped requests.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import SummaryBuilder, SummaryStore
from repro.cli import main
from repro.core.summary import EntropySummary, pad_parameters
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import IngestError, ReproError
from repro.ingest import AppendBatch, IngestPipeline, delta_refresh, widen_schema
from repro.serve import ServeClient, ServeConfig, ServerThread, SummaryServer
from repro.stats.predicates import Conjunction, RangePredicate


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

def _schema() -> Schema:
    return Schema(
        [Domain("state", ["CA", "NY", "WA", "TX"]), integer_domain("hour", 8)]
    )


def _relation(rows: int = 1200, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation(
        _schema(),
        [
            rng.choice(4, size=rows, p=[0.4, 0.3, 0.2, 0.1]),
            rng.integers(0, 8, rows),
        ],
    )


def _fit(relation, **shard_kwargs):
    builder = (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(16)
        .iterations(30)
        .name("demo")
    )
    if shard_kwargs:
        builder.shards(workers=1, **shard_kwargs)
    return builder.fit()


def _count(summary, schema, **constraints) -> float:
    predicate = Conjunction(
        schema,
        {attr: RangePredicate.point(index) for attr, index in constraints.items()},
    )
    if isinstance(summary, EntropySummary):
        return summary.count(predicate).expectation
    return summary.estimate(predicate).expectation


# ----------------------------------------------------------------------
# AppendBatch
# ----------------------------------------------------------------------

class TestAppendBatch:
    def test_from_rows_in_domain(self):
        batch = AppendBatch.from_rows(
            _schema(), [("CA", 0), ("TX", 7), ("CA", 3)]
        )
        assert batch.num_rows == 3
        assert not batch.grows_domains
        assert batch.schema == _schema()
        assert batch.relation.column("state").tolist() == [0, 3, 0]

    def test_from_rows_wrong_arity(self):
        with pytest.raises(IngestError, match="2 attributes"):
            AppendBatch.from_rows(_schema(), [("CA",)])

    def test_from_rows_domain_growth(self):
        batch = AppendBatch.from_rows(
            _schema(), [("OR", 1), ("CA", 2), ("OR", 3)]
        )
        assert batch.grows_domains
        assert batch.new_labels == {"state": ["OR"]}
        assert batch.schema.domain("state").labels == [
            "CA", "NY", "WA", "TX", "OR",
        ]
        # New label got the next free index; old indices are untouched.
        assert batch.relation.column("state").tolist() == [4, 0, 4]

    def test_from_relation_reindexes_labels(self):
        # Same labels, different order: indices must be remapped.
        other_schema = Schema(
            [Domain("state", ["TX", "CA", "NY", "WA"]), integer_domain("hour", 8)]
        )
        other = Relation(other_schema, [np.array([0, 1]), np.array([2, 4])])
        batch = AppendBatch.from_relation(_schema(), other)
        assert not batch.grows_domains
        assert batch.relation.column("state").tolist() == [3, 0]  # TX, CA
        assert batch.relation.column("hour").tolist() == [2, 4]

    def test_from_relation_attribute_mismatch(self):
        other = Relation(
            Schema([Domain("region", ["CA"]), integer_domain("hour", 8)]),
            [np.array([0]), np.array([0])],
        )
        with pytest.raises(IngestError, match="attributes"):
            AppendBatch.from_relation(_schema(), other)

    def test_widen_schema_noop_when_nothing_new(self):
        schema = _schema()
        assert widen_schema(schema, {}) is schema
        assert widen_schema(schema, {0: []}) is schema


# ----------------------------------------------------------------------
# Core refit primitives
# ----------------------------------------------------------------------

class TestRefit:
    def test_refit_reuses_structure_and_warm_starts(self):
        relation = _relation()
        summary = _fit(relation)
        extra = _relation(rows=150, seed=9)
        combined = Relation(
            relation.schema,
            [
                np.concatenate([relation.column(pos), extra.column(pos)])
                for pos in range(2)
            ],
        )
        warm = summary.refit(combined)
        assert warm.total == combined.num_rows
        assert warm.report.warm_started
        assert warm.num_statistics == summary.num_statistics
        cold = summary.refit(combined, warm_start=False)
        assert not cold.report.warm_started
        # Same statistics, same model: answers agree tightly.
        for state in range(4):
            assert _count(warm, relation.schema, state=state) == pytest.approx(
                _count(cold, relation.schema, state=state), rel=0.01, abs=0.5
            )

    def test_refit_appended_equals_full_remeasure(self):
        """The O(batch) additive update is exactly the O(shard)
        re-measure: identical statistics in, identical solve out."""
        relation = _relation()
        summary = _fit(relation)
        extra = _relation(rows=90, seed=13)
        combined = Relation.concat([relation, extra])
        additive = summary.refit_appended(extra)
        full = summary.refit(combined)
        assert additive.total == full.total == combined.num_rows
        assert additive.statistic_set.one_dim == full.statistic_set.one_dim
        for mine, theirs in zip(
            additive.statistic_set.multi_dim, full.statistic_set.multi_dim
        ):
            assert mine.value == theirs.value
            assert mine.predicate == theirs.predicate
        for pos in range(2):
            assert np.array_equal(
                additive.params.alphas[pos], full.params.alphas[pos]
            )
        assert np.array_equal(additive.params.deltas, full.params.deltas)

    def test_refit_rejects_non_widening_schema(self):
        relation = _relation()
        summary = _fit(relation)
        reordered = Schema(
            [Domain("state", ["NY", "CA", "WA", "TX"]), integer_domain("hour", 8)]
        )
        with pytest.raises(ReproError, match="keep their indices"):
            summary.refit(Relation(reordered, [relation.column(0), relation.column(1)]))

    def test_migrated_is_exact(self):
        relation = _relation()
        summary = _fit(relation)
        wide = Schema(
            [Domain("state", ["CA", "NY", "WA", "TX", "OR"]), integer_domain("hour", 8)]
        )
        migrated = summary.migrated(wide)
        assert migrated.schema == wide
        for state in range(4):
            assert _count(migrated, wide, state=state) == pytest.approx(
                _count(summary, relation.schema, state=state), abs=1e-9
            )
        # The value that did not exist yet answers exactly zero.
        assert _count(migrated, wide, state=4) == 0.0
        # Same schema: migrated() is the identity.
        assert summary.migrated(relation.schema) is summary

    def test_pad_parameters_shapes(self):
        relation = _relation()
        summary = _fit(relation)
        wide = Schema(
            [Domain("state", ["CA", "NY", "WA", "TX", "OR"]), integer_domain("hour", 8)]
        )
        padded = pad_parameters(summary.params, relation.schema, wide)
        assert padded.alphas[0].shape[0] == 5
        assert padded.alphas[0][4] == 0.0
        assert np.array_equal(padded.alphas[1], summary.params.alphas[1])


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

class TestPipeline:
    def test_base_relation_must_match(self):
        relation = _relation()
        summary = _fit(relation)
        with pytest.raises(IngestError, match="fitted over"):
            IngestPipeline(summary, _relation(rows=900))

    def test_round_robin_rejects_reordered_base_relation(self):
        """Positional splitting cannot detect a reordered relation by
        row counts alone; the marginal fingerprint must catch it."""
        relation = _relation()
        sharded = _fit(relation, count=3)
        order = np.argsort(relation.column(0), kind="stable")
        reordered = relation.sample_rows(order)
        with pytest.raises(IngestError, match="original row order"):
            IngestPipeline(sharded, reordered)
        # The faithful relation still splits cleanly.
        assert IngestPipeline(sharded, relation).total == relation.num_rows

    def test_unsharded_append(self):
        relation = _relation()
        summary = _fit(relation)
        report = delta_refresh(summary, relation, [("CA", 0)] * 60)
        assert report.rows_appended == 60
        assert report.shards_refit == (0,)
        assert report.summary.total == relation.num_rows + 60
        exact = relation.count_where({"state": RangePredicate.point(0).mask(4)}) + 60
        assert _count(report.summary, relation.schema, state=0) == pytest.approx(
            exact, rel=0.02, abs=1.0
        )

    def test_ranged_append_refits_only_touched_shard(self):
        relation = _relation()
        sharded = _fit(relation, count=2, by="hour")
        pipeline = IngestPipeline(sharded, relation)
        low, high = sharded.owned_ranges[0]
        report = pipeline.append([("CA", low), ("NY", high)] * 30)
        assert report.shards_refit == (0,)
        refreshed = report.summary
        # The untouched shard model is the same object, not a refit.
        assert refreshed.shards[1] is sharded.shards[1]
        assert refreshed.total == relation.num_rows + 60
        # Merged-estimate invariant: shard counts add up to the total.
        merged = refreshed.estimate(None)
        assert merged.expectation == pytest.approx(refreshed.total, rel=0.01)

    def test_round_robin_append_rebalances(self):
        relation = _relation()
        sharded = _fit(relation, count=3)
        pipeline = IngestPipeline(sharded, relation)
        sizes_before = [rel.num_rows for rel in pipeline._shard_relations]
        report = pipeline.append([("TX", 2)] * 7)
        sizes_after = [rel.num_rows for rel in pipeline._shard_relations]
        assert sum(sizes_after) == sum(sizes_before) + 7
        assert max(sizes_after) - min(sizes_after) <= 1
        assert len(report.shards_refit) == 3

    def test_round_robin_relation_round_trips(self):
        """The documented --write-data loop: saving pipeline.relation
        and re-opening a pipeline on it must reconstruct each shard's
        exact rows (not just matching row counts)."""
        relation = _relation(rows=1201)  # uneven: shard sizes differ
        sharded = _fit(relation, count=3)
        pipeline = IngestPipeline(sharded, relation)
        pipeline.append([("TX", 2), ("CA", 5), ("NY", 1)] * 4)
        refreshed = pipeline.summary
        combined = pipeline.relation
        reopened = IngestPipeline(refreshed, combined)
        for mine, theirs in zip(
            pipeline._shard_relations, reopened._shard_relations
        ):
            for pos in range(combined.schema.num_attributes):
                assert np.array_equal(mine.column(pos), theirs.column(pos))
        # And the reopened pipeline keeps working.
        report = reopened.append([("WA", 0)] * 5)
        assert report.summary.total == combined.num_rows + 5

    def test_empty_batch_is_a_noop_version_wise(self, tmp_path):
        relation = _relation()
        summary = _fit(relation, count=2, by="hour")
        store = SummaryStore(tmp_path / "models")
        store.save(summary, "demo")
        pipeline = IngestPipeline.from_store(store, "demo", relation)
        report = pipeline.append([])
        assert report.rows_appended == 0
        assert report.shards_refit == ()
        assert report.record is None
        # The pipeline's summary object is untouched — no refit happened.
        assert report.summary is pipeline.summary
        assert store.latest_version("demo") == 1
        # And an empty batch normalized from an empty relation too.
        empty = AppendBatch.empty(relation.schema)
        assert pipeline.append(empty).record is None
        assert store.latest_version("demo") == 1

    def test_domain_growth_on_plain_attribute(self):
        relation = _relation()
        sharded = _fit(relation, count=2, by="hour")
        pipeline = IngestPipeline(sharded, relation)
        before = {
            state: _count(sharded, relation.schema, state=state)
            for state in range(4)
        }
        report = pipeline.append([("OR", 0), ("OR", 1)])
        assert report.domain_growth
        refreshed = report.summary
        wide = refreshed.schema
        assert wide.domain("state").size == 5
        assert _count(refreshed, wide, state=4) == pytest.approx(2.0, abs=0.1)
        # Old answers moved only by the two appended rows' influence.
        for state in range(4):
            assert _count(refreshed, wide, state=state) == pytest.approx(
                before[state], rel=0.05, abs=1.5
            )

    def test_domain_growth_on_shard_attribute_widens_top_range(self):
        relation = _relation()
        sharded = _fit(relation, count=2, by="hour")
        pipeline = IngestPipeline(sharded, relation)
        report = pipeline.append([("CA", 8), ("CA", 9)])  # hours 8, 9 are new
        refreshed = report.summary
        assert refreshed.schema.domain("hour").size == 10
        top = refreshed.owned_ranges[-1]
        assert top[1] == 9
        # The new values routed to the top shard; only it was refit.
        assert report.shards_refit == (1,)
        assert _count(refreshed, refreshed.schema, hour=9) == pytest.approx(
            1.0, abs=0.1
        )
        # Pruning still exact: a query on the new hour skips shard 0.
        predicate = Conjunction(
            refreshed.schema, {"hour": RangePredicate.point(9)}
        )
        assert refreshed.live_shards(predicate) == [1]

    def test_lineage_chain_in_store(self, tmp_path):
        relation = _relation()
        summary = _fit(relation, count=2, by="hour")
        store = SummaryStore(tmp_path / "models")
        store.save(summary, "demo", tag="seed")
        pipeline = IngestPipeline.from_store(store, "demo", relation)
        first = pipeline.append([("CA", 0)] * 10, tag="fresh")
        second = pipeline.append([("NY", 7)] * 5)
        assert first.record.version == 2
        assert first.record.tag == "fresh"
        assert first.lineage["parent_version"] == 1
        assert first.lineage["rows_appended"] == 10
        assert second.record.version == 3
        assert second.record.parent_version == 2
        records = store.versions("demo")
        assert [record.parent_version for record in records] == [None, 1, 2]
        assert "+5 rows" in records[-1].describe()
        # The published model round-trips with the appended rows.
        reloaded = store.load("demo")
        assert reloaded.total == relation.num_rows + 15

    def test_parent_version_not_claimed_for_mismatched_summary(self, tmp_path):
        """A summary that is not the store's latest version must not
        label its children as refreshed from it."""
        relation = _relation()
        summary = _fit(relation, count=2, by="hour")
        store = SummaryStore(tmp_path / "models")
        store.save(summary, "demo")  # v1 — matches `summary`
        bigger = Relation(
            relation.schema,
            [
                np.concatenate([relation.column(pos), relation.column(pos)[:50]])
                for pos in range(2)
            ],
        )
        store.save(_fit(bigger, count=2, by="hour"), "demo")  # v2 — different
        # A summary that *is* the latest version gets claimed as parent.
        latest_pipeline = IngestPipeline(
            store.load("demo"), bigger, store=store, name="demo"
        )
        assert latest_pipeline.parent_version == 2
        # Direct constructor with the *v1* summary: latest (v2) does not
        # match it, so lineage must not claim v2 as parent.
        pipeline = IngestPipeline(
            summary, relation, store=store, name="demo"
        )
        assert pipeline.parent_version is None
        report = pipeline.append([("CA", 0)] * 5)
        assert report.lineage["parent_version"] is None

    def test_builder_append_chains(self):
        relation = _relation()
        builder = (
            SummaryBuilder(relation)
            .pairs(("state", "hour"))
            .per_pair_budget(16)
            .iterations(30)
            .name("demo")
        )
        summary = builder.fit()
        report = builder.append(summary, [("WA", 3)] * 20)
        assert report.summary.total == relation.num_rows + 20
        # The builder's relation advanced: a second append chains.
        second = builder.append(report.summary, [("WA", 4)] * 10)
        assert second.summary.total == relation.num_rows + 30


# ----------------------------------------------------------------------
# Serving: the freshness loop
# ----------------------------------------------------------------------

class TestServingFreshness:
    @pytest.fixture()
    def served_store(self, tmp_path):
        relation = _relation(rows=600, seed=11)
        summary = _fit(relation, count=2, by="hour")
        store = SummaryStore(tmp_path / "models")
        store.save(summary, "demo")
        return store, relation

    def test_watch_requires_store(self):
        summary = _fit(_relation(rows=400))
        with pytest.raises(ReproError, match="--watch"):
            SummaryServer(summary, config=ServeConfig(watch_interval=0.05))

    def test_watch_interval_validated(self):
        with pytest.raises(ReproError, match="--watch"):
            ServeConfig(watch_interval=-1).validated()

    def test_watcher_flips_to_published_version(self, served_store):
        store, relation = served_store
        server = SummaryServer(
            store=store,
            name="demo",
            config=ServeConfig(watch_interval=0.05),
        )
        pipeline = IngestPipeline.from_store(store, "demo", relation)
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                assert client.ping() == {"version": 1}
                pipeline.append([("CA", 0)] * 25)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if client.ping()["version"] == 2:
                        break
                    time.sleep(0.02)
                assert client.ping() == {"version": 2}
                stats = client.stats()
        assert server.reloads == 1
        assert stats["watcher"]["reloads"] == 1
        assert stats["watcher"]["last_seen_version"] == 2

    def test_watcher_respects_operator_rollback(self, served_store):
        """Pinning an older version via reload(version=...) must stick:
        the watcher acts only when the store moves beyond the newest
        version it has seen, never to re-apply one it already acted on."""
        import asyncio

        from repro.serve.watcher import StoreWatcher

        store, relation = served_store
        IngestPipeline.from_store(store, "demo", relation).append(
            [("CA", 0)] * 10
        )  # v2 exists before the server starts
        server = SummaryServer(store=store, name="demo", config=ServeConfig())
        assert server.version == 2  # latest by default
        watcher = StoreWatcher(server, interval=0.01)

        async def drive():
            assert await watcher.check_once() is False  # nothing newer
            server.reload(version=1)  # operator rolls back
            # The watcher has already seen v2: the rollback must stick.
            assert await watcher.check_once() is False
            assert server.version == 1
            return True

        assert asyncio.run(drive())
        assert watcher.reloads == 0

    def test_watcher_survives_unexpected_errors(self, served_store):
        """A poll failure of any kind is counted and swallowed — the
        watcher must keep polling, or the server serves stale data
        forever."""
        import asyncio

        from repro.serve.watcher import StoreWatcher

        store, relation = served_store
        server = SummaryServer(store=store, name="demo", config=ServeConfig())
        watcher = StoreWatcher(server, interval=0.01)
        calls = {"count": 0}
        real_latest = watcher._latest_version

        def flaky():
            calls["count"] += 1
            if calls["count"] == 1:
                raise OSError("manifest read hiccup")  # not a ReproError
            return real_latest()

        watcher._latest_version = flaky

        async def drive():
            assert await watcher.check_once() is False  # swallowed
            IngestPipeline.from_store(store, "demo", relation).append(
                [("CA", 0)] * 10
            )
            return await watcher.check_once()  # next poll still works

        assert asyncio.run(drive()) is True
        assert watcher.errors == 1
        assert watcher.reloads == 1
        assert server.version == 2

    def test_live_traffic_ingest_demo(self, served_store, tmp_path):
        """Acceptance: `repro ingest` against a served store flips
        clients to the new version with zero dropped requests, and
        in-flight answers stay on the generation they started on."""
        store, relation = served_store
        data_prefix = tmp_path / "base"
        batch_prefix = tmp_path / "batch"
        from repro.data.serialize import save_relation

        save_relation(relation, data_prefix)
        save_relation(_relation(rows=80, seed=23), batch_prefix)

        server = SummaryServer(
            store=store,
            name="demo",
            config=ServeConfig(watch_interval=0.05),
        )
        stop = threading.Event()
        errors: list[BaseException] = []
        versions_seen = set()
        answered = [0]

        def chatter(index: int) -> None:
            try:
                with ServeClient(port=server.port) as client:
                    step = 0
                    while not stop.is_set():
                        response = client.call(
                            "query",
                            sql="SELECT COUNT(*) FROM R WHERE hour = "
                            f"{(index + step) % 8}",
                        )
                        assert response["ok"]
                        # Every answer names the generation it ran on —
                        # only published store versions, never a torn
                        # in-between state.
                        versions_seen.add(response["version"])
                        answered[0] += 1
                        step += 1
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        with ServerThread(server):
            threads = [
                threading.Thread(target=chatter, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)
            code = main(
                [
                    "ingest",
                    "--store", str(store.root),
                    "--name", "demo",
                    "--data", str(data_prefix),
                    "--batch", str(batch_prefix),
                ]
            )
            assert code == 0
            deadline = time.monotonic() + 5.0
            with ServeClient(port=server.port) as probe:
                while time.monotonic() < deadline:
                    if probe.ping()["version"] == 2:
                        break
                    time.sleep(0.02)
                assert probe.ping() == {"version": 2}
            time.sleep(0.15)  # traffic on the new version too
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors[0]
        assert answered[0] > 0
        assert versions_seen <= {1, 2}
        assert 2 in versions_seen

    def test_cli_ingest_writes_combined_data(self, served_store, tmp_path, capsys):
        store, relation = served_store
        from repro.data.serialize import load_relation, save_relation

        data_prefix = tmp_path / "base"
        batch_prefix = tmp_path / "batch"
        combined_prefix = tmp_path / "combined"
        save_relation(relation, data_prefix)
        save_relation(_relation(rows=40, seed=29), batch_prefix)
        code = main(
            [
                "ingest",
                "--store", str(store.root),
                "--name", "demo",
                "--data", str(data_prefix),
                "--batch", str(batch_prefix),
                "--tag", "fresh",
                "--write-data", str(combined_prefix),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "+40 rows" in out
        assert "v2" in out
        combined = load_relation(combined_prefix)
        assert combined.num_rows == relation.num_rows + 40
        record = store.record("demo")
        assert record.version == 2
        assert record.tag == "fresh"
        assert record.lineage["rows_appended"] == 40

    def test_cli_ingest_rejects_bad_iterations(self, served_store, tmp_path, capsys):
        store, relation = served_store
        from repro.data.serialize import save_relation

        save_relation(relation, tmp_path / "base")
        save_relation(_relation(rows=5, seed=2), tmp_path / "batch")
        code = main(
            [
                "ingest",
                "--store", str(store.root),
                "--name", "demo",
                "--data", str(tmp_path / "base"),
                "--batch", str(tmp_path / "batch"),
                "--iterations", "0",
            ]
        )
        assert code == 1
        assert "--iterations" in capsys.readouterr().err
