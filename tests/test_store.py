"""Tests for the versioned SummaryStore."""

import json

import numpy as np
import pytest

from repro.api import Explorer, SummaryBuilder, SummaryStore
from repro.core.sharding import load_model
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ReproError


@pytest.fixture
def relation():
    schema = Schema(
        [Domain("g", ["a", "b"]), integer_domain("v", 5)]
    )
    rng = np.random.default_rng(11)
    return Relation(
        schema, [rng.integers(0, 2, 200), rng.integers(0, 5, 200)]
    )


@pytest.fixture
def summary(relation):
    return (
        SummaryBuilder(relation)
        .pairs(("g", "v"))
        .per_pair_budget(3)
        .iterations(30)
        .name("demo")
        .fit()
    )


@pytest.fixture
def store(tmp_path):
    return SummaryStore(tmp_path / "store")


class TestSaveLoadList:
    def test_round_trip(self, store, summary):
        record = store.save(summary)
        assert record.name == "demo"
        assert record.version == 1
        assert record.total == summary.total
        loaded = store.load("demo")
        assert loaded.total == summary.total
        assert (
            loaded.statistic_set.num_statistics
            == summary.statistic_set.num_statistics
        )
        original = Explorer.attach(summary).query().where(g="a").value()
        reloaded = Explorer.attach(loaded).query().where(g="a").value()
        assert reloaded == pytest.approx(original)

    def test_versions_increment(self, store, summary):
        assert store.save(summary).version == 1
        assert store.save(summary).version == 2
        assert store.save(summary).version == 3
        assert store.latest_version("demo") == 3
        assert [record.version for record in store.versions("demo")] == [1, 2, 3]

    def test_list_across_names(self, store, summary):
        store.save(summary, "alpha")
        store.save(summary, "beta")
        store.save(summary, "alpha")
        listed = [(record.name, record.version) for record in store.list()]
        assert listed == [("alpha", 1), ("alpha", 2), ("beta", 1)]
        assert len(store) == 2
        assert "alpha" in store
        assert "gamma" not in store

    def test_explicit_name_overrides_summary_name(self, store, summary):
        record = store.save(summary, "custom")
        assert record.name == "custom"
        assert store.has("custom")
        assert not store.has("demo")

    def test_unsafe_names_get_safe_directories(self, store, summary):
        record = store.save(summary, "Ent1&2&3 (coarse)")
        assert store.load("Ent1&2&3 (coarse)").total == summary.total
        assert "&" not in record.prefix
        assert "(" not in record.prefix

    def test_distinct_names_never_share_directories(self, store, summary):
        first = store.save(summary, "a&b")
        second = store.save(summary, "a_b")
        assert first.prefix.split("/")[0] != second.prefix.split("/")[0]


class TestTagsAndPinning:
    def test_load_by_tag_and_version(self, store, summary):
        store.save(summary, "demo", tag="first")
        store.save(summary, "demo", tag="second")
        assert store.record("demo", tag="first").version == 1
        assert store.record("demo", version=2).tag == "second"
        assert store.record("demo").version == 2  # latest by default

    def test_repeated_tag_resolves_to_newest(self, store, summary):
        store.save(summary, "demo", tag="best")
        store.save(summary, "demo", tag="best")
        assert store.record("demo", tag="best").version == 2

    def test_errors(self, store, summary):
        store.save(summary, "demo", tag="only")
        with pytest.raises(ReproError, match="no summary named"):
            store.load("missing")
        with pytest.raises(ReproError, match="no version 9"):
            store.load("demo", version=9)
        with pytest.raises(ReproError, match="tagged"):
            store.load("demo", tag="nope")
        with pytest.raises(ReproError, match="not both"):
            store.load("demo", version=1, tag="only")


class TestDelete:
    def test_delete_version(self, store, summary):
        store.save(summary, "demo")
        store.save(summary, "demo")
        store.delete("demo", version=1)
        assert [record.version for record in store.versions("demo")] == [2]
        # New saves continue above the highest ever used.
        assert store.save(summary, "demo").version == 3

    def test_delete_name_removes_everything(self, store, summary):
        record = store.save(summary, "demo")
        store.delete("demo")
        assert not store.has("demo")
        assert not (store.root / record.prefix).with_suffix(".json").exists()
        with pytest.raises(ReproError):
            store.delete("demo")


class TestManifest:
    def test_format_version_guard(self, store, summary):
        store.save(summary, "demo")
        manifest = json.loads((store.root / "manifest.json").read_text())
        manifest["format_version"] = 999
        (store.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="format"):
            store.load("demo")

    def test_empty_store(self, store):
        assert store.list() == []
        assert len(store) == 0
        with pytest.raises(ReproError, match="empty store"):
            store.load("anything")

    def test_open_explorer_from_path(self, store, summary, tmp_path):
        store.save(summary, "demo")
        explorer = Explorer.open(store.root, "demo")
        assert explorer.summary.total == summary.total


def _truncate(path) -> None:
    """Cut a file in half, as a crash mid-write leaves it."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestCorruptFiles:
    """A half-written store file fails as a ReproError that names it,
    not as a raw zipfile / json error."""

    def test_truncated_parameter_npz(self, store, summary):
        record = store.save(summary, "demo")
        store.save(summary, "demo")
        path = (store.root / store.record("demo").prefix).with_suffix(".npz")
        _truncate(path)
        with pytest.raises(ReproError, match="v2.npz"):
            store.load("demo")
        assert store.load("demo", version=record.version).total == summary.total

    def test_truncated_statistics_json(self, store, summary):
        store.save(summary, "demo")
        store.save(summary, "demo")
        path = (store.root / store.record("demo").prefix).with_suffix(".json")
        _truncate(path)
        with pytest.raises(ReproError, match="v2.json"):
            store.load("demo")

    def test_truncated_manifest(self, store, summary):
        store.save(summary, "demo")
        _truncate(store.root / "manifest.json")
        with pytest.raises(ReproError, match="manifest.json"):
            store.load("demo")

    def test_truncated_sharded_manifest(self, store, relation):
        sharded = (
            SummaryBuilder(relation)
            .pairs(("g", "v"))
            .per_pair_budget(3)
            .iterations(10)
            .shards(2, workers=1)
            .fit()
        )
        record = store.save(sharded, "split")
        _truncate((store.root / record.prefix).with_suffix(".json"))
        with pytest.raises(ReproError, match="v1.json"):
            store.load("split")
        with pytest.raises(ReproError, match="v1.json"):
            load_model(store.root / record.prefix)
