"""A directory-backed registry of named, versioned summaries.

The paper stores fitted models in Postgres plus a factorization text
file; our substrate persists each summary as a JSON + NPZ pair.  The
:class:`SummaryStore` wraps those pairs with a manifest so summaries
become *named artifacts* (in the spirit of OrpheusDB's bolt-on
versioned storage): every ``save`` creates a new immutable version of a
name, optionally tagged, and ``load``/``list`` address summaries by
name instead of file prefix.

Sharded summaries persist as one named version too: the version's
prefix holds the shard manifest plus one file pair per shard, and
``load`` transparently returns a
:class:`~repro.core.sharding.ShardedSummary`.

Layout::

    <root>/manifest.json
    <root>/<dir>/v<k>.json               (statistics, schema — or the
                                          shard manifest when sharded)
    <root>/<dir>/v<k>.npz                (fitted parameters)
    <root>/<dir>/v<k>-shard<i>.json/.npz (sharded versions only)
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.core.sharding import ShardedSummary, shard_prefix
from repro.core.summary import EntropySummary
from repro.data.serialize import read_json
from repro.errors import ReproError

_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"
_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass(frozen=True)
class SummaryRecord:
    """One stored version of one named summary."""

    name: str
    version: int
    tag: str | None
    created_at: float
    total: int
    num_statistics: int
    prefix: str  # store-relative path prefix of the .json/.npz pair
    #: shard count of a sharded version; 0 for a plain summary.
    shards: int = 0
    shard_by: str | None = None
    #: Ingest provenance of a delta-refreshed version
    #: (``parent_version``, ``rows_appended``, ``shards_refit``, ...);
    #: ``None`` for versions built from scratch.
    lineage: dict | None = None

    @property
    def parent_version(self) -> int | None:
        """Version this one was delta-refreshed from, if any."""
        if self.lineage is None:
            return None
        return self.lineage.get("parent_version")

    def describe(self) -> str:
        tag = f" tag={self.tag}" if self.tag else ""
        sharding = ""
        if self.shards:
            by = f" by {self.shard_by}" if self.shard_by else ""
            sharding = f", {self.shards} shards{by}"
        ancestry = ""
        if self.lineage is not None:
            parent = self.parent_version
            appended = self.lineage.get("rows_appended")
            ancestry = (
                f" (from v{parent}, +{appended} rows)"
                if parent is not None
                else f" (+{appended} rows)"
            )
        return (
            f"{self.name}@v{self.version}{tag}: n={self.total}, "
            f"stats={self.num_statistics}{sharding}{ancestry}"
        )


class SummaryStore:
    """Named, versioned persistence for :class:`EntropySummary`."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- manifest I/O ----------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    @contextlib.contextmanager
    def _manifest_lock(self):
        """Serialize manifest read-modify-write across processes.

        Experiment stores share one cache directory between concurrent
        bench processes; without the lock, two simultaneous ``save``
        calls would each read the manifest and the last writer would
        drop the other's version entry, orphaning its files.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.root / (_MANIFEST + ".lock")
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_manifest(self) -> dict:
        if not self._manifest_path.exists():
            return {"format_version": _FORMAT_VERSION, "summaries": {}}
        document = read_json(self._manifest_path)
        found = document.get("format_version")
        if found != _FORMAT_VERSION:
            raise ReproError(
                f"summary store at {self.root} has manifest format "
                f"{found!r}; this build reads format {_FORMAT_VERSION}"
            )
        return document

    def _write_manifest(self, document: dict) -> None:
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True))
        tmp.replace(self._manifest_path)

    def _dir_for(self, name: str, summaries: dict) -> str:
        taken = {entry["dir"] for entry in summaries.values()}
        base = _SAFE.sub("_", name) or "summary"
        candidate = base
        suffix = 2
        while candidate in taken:
            candidate = f"{base}-{suffix}"
            suffix += 1
        return candidate

    @staticmethod
    def _record(name: str, entry: dict, version_entry: dict) -> SummaryRecord:
        return SummaryRecord(
            name=name,
            version=version_entry["version"],
            tag=version_entry.get("tag"),
            created_at=version_entry["created_at"],
            total=version_entry["total"],
            num_statistics=version_entry["num_statistics"],
            prefix=version_entry["prefix"],
            shards=version_entry.get("shards", 0),
            shard_by=version_entry.get("shard_by"),
            lineage=version_entry.get("lineage"),
        )

    # -- public API ------------------------------------------------------
    def save(
        self,
        summary: "EntropySummary | ShardedSummary",
        name: str | None = None,
        tag: str | None = None,
        lineage: dict | None = None,
    ) -> SummaryRecord:
        """Persist a summary as the next version of ``name``.

        ``name`` defaults to ``summary.name``.  Versions are immutable
        and monotonically numbered per name; ``tag`` is free-form (e.g.
        ``"baseline"``, ``"budget-3000"``) and may repeat across
        versions.  A :class:`~repro.core.sharding.ShardedSummary`
        persists its whole shard set as the one version.  ``lineage``
        (JSON-safe) records ingest provenance — the delta-refresh
        pipeline writes ``parent_version``/``rows_appended``/
        ``shards_refit`` so a version's ancestry survives in the
        manifest.
        """
        name = name if name is not None else summary.name
        if not name:
            raise ReproError("summary name must be non-empty")
        with self._manifest_lock():
            document = self._read_manifest()
            summaries = document["summaries"]
            entry = summaries.get(name)
            if entry is None:
                entry = {"dir": self._dir_for(name, summaries), "versions": []}
                summaries[name] = entry
            version = 1 + max(
                (item["version"] for item in entry["versions"]), default=0
            )
            prefix = f"{entry['dir']}/v{version}"
            summary.save(self.root / prefix)
            version_entry = {
                "version": version,
                "tag": tag,
                "created_at": time.time(),
                "total": summary.total,
                "num_statistics": summary.num_statistics,
                "prefix": prefix,
            }
            if isinstance(summary, ShardedSummary):
                version_entry["kind"] = "sharded"
                version_entry["shards"] = summary.num_shards
                version_entry["shard_by"] = summary.shard_by
            if lineage is not None:
                version_entry["lineage"] = lineage
            entry["versions"].append(version_entry)
            self._write_manifest(document)
        return self._record(name, entry, version_entry)

    def _resolve(
        self, name: str, version: int | None, tag: str | None
    ) -> tuple[dict, dict]:
        document = self._read_manifest()
        entry = document["summaries"].get(name)
        if entry is None or not entry["versions"]:
            known = ", ".join(sorted(document["summaries"])) or "<empty store>"
            raise ReproError(
                f"no summary named {name!r} in store {self.root} "
                f"(known: {known})"
            )
        if version is not None and tag is not None:
            raise ReproError("give version or tag, not both")
        candidates = entry["versions"]
        if tag is not None:
            candidates = [item for item in candidates if item.get("tag") == tag]
            if not candidates:
                raise ReproError(f"summary {name!r} has no version tagged {tag!r}")
        if version is not None:
            for item in candidates:
                if item["version"] == version:
                    return entry, item
            raise ReproError(f"summary {name!r} has no version {version}")
        return entry, max(candidates, key=lambda item: item["version"])

    def load(
        self,
        name: str,
        version: int | None = None,
        tag: str | None = None,
    ) -> "EntropySummary | ShardedSummary":
        """Load a stored summary (latest version unless pinned).

        Sharded versions come back as
        :class:`~repro.core.sharding.ShardedSummary`.
        """
        _, summary = self.load_with_record(name, version=version, tag=tag)
        return summary

    def load_with_record(
        self,
        name: str,
        version: int | None = None,
        tag: str | None = None,
    ) -> "tuple[SummaryRecord, EntropySummary | ShardedSummary]":
        """Load a summary *and* its metadata record in one manifest read.

        The serving layer's hot-reload path: the record pins the
        version number the server keys its shared result cache on, and
        resolving both together means a concurrent ``save`` cannot slip
        a different version between the metadata and the model load.
        """
        entry, version_entry = self._resolve(name, version, tag)
        record = self._record(name, entry, version_entry)
        prefix = self.root / version_entry["prefix"]
        if version_entry.get("kind") == "sharded":
            return record, ShardedSummary.load(prefix)
        return record, EntropySummary.load(prefix)

    def record(
        self,
        name: str,
        version: int | None = None,
        tag: str | None = None,
    ) -> SummaryRecord:
        """Metadata of one stored version without loading the model."""
        entry, version_entry = self._resolve(name, version, tag)
        return self._record(name, entry, version_entry)

    def list(self) -> list[SummaryRecord]:
        """Every stored version of every name, newest last per name."""
        document = self._read_manifest()
        records = []
        for name in sorted(document["summaries"]):
            entry = document["summaries"][name]
            for version_entry in sorted(
                entry["versions"], key=lambda item: item["version"]
            ):
                records.append(self._record(name, entry, version_entry))
        return records

    def versions(self, name: str) -> list[SummaryRecord]:
        """All versions of one name, oldest first."""
        return [record for record in self.list() if record.name == name]

    def latest_version(self, name: str) -> int:
        """Highest stored version number of ``name``."""
        return self.record(name).version

    def has(self, name: str) -> bool:
        return name in self._read_manifest()["summaries"]

    __contains__ = has

    def delete(self, name: str, version: int | None = None) -> None:
        """Remove one version, or every version of a name."""
        with self._manifest_lock():
            document = self._read_manifest()
            entry = document["summaries"].get(name)
            if entry is None:
                raise ReproError(
                    f"no summary named {name!r} in store {self.root}"
                )
            doomed = [
                item
                for item in entry["versions"]
                if version is None or item["version"] == version
            ]
            if not doomed:
                raise ReproError(f"summary {name!r} has no version {version}")
            for item in doomed:
                prefix = self.root / item["prefix"]
                prefix.with_suffix(".json").unlink(missing_ok=True)
                prefix.with_suffix(".npz").unlink(missing_ok=True)
                for index in range(item.get("shards", 0)):
                    shard = shard_prefix(prefix, index)
                    shard.with_suffix(".json").unlink(missing_ok=True)
                    shard.with_suffix(".npz").unlink(missing_ok=True)
            entry["versions"] = [
                item for item in entry["versions"] if item not in doomed
            ]
            if not entry["versions"]:
                del document["summaries"][name]
            self._write_manifest(document)

    def __len__(self):
        return len(self._read_manifest()["summaries"])

    def __repr__(self):
        return f"SummaryStore({str(self.root)!r}, names={len(self)})"
