"""Serialization of domains, schemas, and relations.

Labels are persisted with a small tag system so the non-JSON-native
kinds survive round trips: numeric :class:`~repro.data.binning.Bucket`
intervals and composite tuple labels (the top-k city binning).
Relations persist as a JSON schema next to an NPZ of index columns.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.data.binning import Bucket
from repro.data.domain import Domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ReproError


def read_json(path):
    """Parse a JSON file.  A truncated or corrupt file raises
    :class:`ReproError` naming it (a missing one stays
    ``FileNotFoundError``)."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ReproError(f"corrupt JSON file {path}: {error}") from error


def read_npz(path) -> dict[str, np.ndarray]:
    """Every array of an NPZ archive, read eagerly.  A truncated or
    corrupt archive raises :class:`ReproError` naming it (a missing one
    stays ``FileNotFoundError``)."""
    try:
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as error:
        raise ReproError(f"corrupt NPZ file {path}: {error}") from error


def encode_label(label):
    """Tagged JSON form of one domain label."""
    if isinstance(label, Bucket):
        return {
            "t": "bucket",
            "lo": label.low,
            "hi": label.high,
            "cr": label.closed_right,
        }
    if isinstance(label, tuple):
        return {"t": "pair", "v": [encode_label(part) for part in label]}
    if isinstance(label, bool):
        return {"t": "bool", "v": label}
    if isinstance(label, (int, np.integer)):
        return {"t": "int", "v": int(label)}
    if isinstance(label, (float, np.floating)):
        return {"t": "float", "v": float(label)}
    if isinstance(label, str):
        return {"t": "str", "v": label}
    raise ReproError(f"cannot serialize domain label {label!r}")


def decode_label(encoded):
    """Inverse of :func:`encode_label`."""
    kind = encoded["t"]
    if kind == "bucket":
        return Bucket(encoded["lo"], encoded["hi"], encoded["cr"])
    if kind == "pair":
        return tuple(decode_label(part) for part in encoded["v"])
    if kind in ("int", "float", "str", "bool"):
        return encoded["v"]
    raise ReproError(f"unknown label tag {kind!r}")


def encode_schema(schema: Schema):
    return [
        {
            "name": domain.name,
            "labels": [encode_label(label) for label in domain.labels],
        }
        for domain in schema.domains
    ]


def decode_schema(encoded) -> Schema:
    return Schema(
        [
            Domain(entry["name"], [decode_label(label) for label in entry["labels"]])
            for entry in encoded
        ]
    )


def save_relation(relation: Relation, prefix) -> None:
    """Write ``<prefix>.schema.json`` + ``<prefix>.columns.npz``."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    prefix.with_suffix(".schema.json").write_text(
        json.dumps(encode_schema(relation.schema))
    )
    arrays = {
        f"col_{pos}": relation.column(pos)
        for pos in range(relation.schema.num_attributes)
    }
    np.savez_compressed(prefix.with_suffix(".columns.npz"), **arrays)


def load_relation(prefix) -> Relation:
    """Inverse of :func:`save_relation`."""
    prefix = Path(prefix)
    schema = decode_schema(read_json(prefix.with_suffix(".schema.json")))
    arrays = read_npz(prefix.with_suffix(".columns.npz"))
    return Relation(
        schema, [arrays[f"col_{pos}"] for pos in range(schema.num_attributes)]
    )
