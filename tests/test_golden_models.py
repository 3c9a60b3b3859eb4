"""Golden fitted models: sha256 digests of ``to_payload()``.

Each case fits a small model the way a user would — statistic
selection, construction, solve, and the maintenance paths (``refit``,
``refit_appended`` with and without domain growth, ``migrated``, and
their composition by :class:`~repro.ingest.IngestPipeline`) — and
digests the statistics document and the parameter arrays.  The checked-in
digests pin every byte of the fitted model, so a refactor of how
statistics are measured cannot drift the model without failing here.

To regenerate after an intended model change::

    PYTHONPATH=src python -m tests.test_golden_models
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api import SummaryBuilder
from repro.core.summary import EntropySummary
from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.ingest import IngestPipeline
from repro.stats.statistic import Statistic, StatisticSet, range_statistic_2d


def model_digest(summary) -> str:
    """sha256 over the statistics document and the parameter arrays of
    one summary (each shard's payload, in order, for a sharded one)."""
    digest = hashlib.sha256()
    for model in getattr(summary, "shards", [summary]):
        document, arrays = model.to_payload()
        digest.update(json.dumps(document, sort_keys=True).encode())
        for key in sorted(arrays):
            array = np.ascontiguousarray(arrays[key])
            digest.update(f"{key}:{array.dtype}:{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


SIZES = {"a": 6, "b": 8, "c": 5, "d": 7, "e": 4}


def golden_schema(grow: int = 0) -> Schema:
    """Five integer attributes; ``grow`` extra values appended to ``c``."""
    return Schema(
        [
            integer_domain(name, size + (grow if name == "c" else 0))
            for name, size in SIZES.items()
        ]
    )


def golden_relation(rows: int = 2400, seed: int = 3, grow: int = 0) -> Relation:
    """A correlated chain a~b~c, a weaker pair d~e.  The two selection
    strategies differ on it: *correlation* extends the chain with (b, c),
    *cover* takes (d, e).  With ``grow`` the schema widens ``c`` and
    some rows take the new values."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 6, rows)
    b = (a + rng.integers(0, 3, rows)) % 8
    c = (b // 2 + rng.integers(0, 2, rows)) % 5
    if grow:
        fresh = rng.random(rows) < 0.1
        c[fresh] = rng.integers(5, 5 + grow, int(fresh.sum()))
    d = rng.integers(0, 7, rows)
    e = (d + rng.integers(0, 3, rows)) % 4
    return Relation(golden_schema(grow), [a, b, c, d, e])


def _builder(relation) -> SummaryBuilder:
    return SummaryBuilder(relation).iterations(20).name("golden")


def _pairs(relation):
    # ("d", "c") is deliberately reversed: the pair's table is read
    # transposed from its canonical (c, d) order.
    return (
        _builder(relation)
        .pairs(("a", "b"), ("d", "c"))
        .per_pair_budget(6)
        .fit()
    )


def _auto(strategy: str, heuristic: str):
    def fit(relation):
        return (
            _builder(relation)
            .budget(12)
            .num_pairs(2)
            .strategy(strategy)
            .heuristic(heuristic)
            .fit()
        )

    return fit


def _chain(relation):
    # Three pairs sharing ``a``, as M1's pairs share ``distance``: one
    # component whose deepest terms hold a statistic of every pair.
    return (
        _builder(relation)
        .pairs(("a", "b"), ("a", "c"), ("a", "d"))
        .per_pair_budget(6)
        .fit()
    )


#: (a, b) and (b, c) rectangles in an interleaved ``multi_dim`` order:
#: runs of one attribute set are 1, 1, 2, 3 and 1 statistics long.
_INTERLEAVED = [
    ("a", (0, 2), "b", (0, 3)),
    ("b", (0, 1), "c", (0, 4)),
    ("a", (3, 5), "b", (0, 3)),
    ("a", (0, 2), "b", (4, 7)),
    ("b", (2, 4), "c", (0, 1)),
    ("b", (2, 4), "c", (2, 4)),
    ("b", (5, 7), "c", (0, 4)),
    ("a", (3, 5), "b", (4, 7)),
]


def _interleaved(relation):
    measured = []
    for attr_a, range_a, attr_b, range_b in _INTERLEAVED:
        shape = range_statistic_2d(relation.schema, attr_a, range_a, attr_b, range_b, 0.0)
        measured.append(Statistic(shape.predicate, float(shape.measure(relation))))
    statistic_set = StatisticSet.from_counts(Counts.of(relation), measured)
    return EntropySummary.from_statistics(statistic_set, max_iterations=20, name="golden")


def _extra(grow: int = 0) -> Relation:
    return golden_relation(rows=300, seed=17, grow=grow)


def _widened(relation: Relation) -> Relation:
    schema = golden_schema(grow=1)
    return Relation(
        schema, [relation.column(pos) for pos in range(schema.num_attributes)]
    )


def _pairs_sharded(relation, count: int, by=None):
    return (
        _builder(relation)
        .pairs(("a", "b"), ("d", "c"))
        .per_pair_budget(6)
        .shards(count, by=by, workers=1)
        .fit()
    )


def _uneven(relation: Relation) -> Relation:
    """2399 rows: round-robin shards of 800, 800 and 799."""
    return relation.sample_rows(np.arange(relation.num_rows - 1))


#: Label rows whose ``a`` values 6 and 7 are new: they grow the shard
#: attribute of a model ranged on ``a``, route to its top shard only,
#: and leave the other shard to be migrated onto the widened schema.
_GROW_A = [(6, 1, 2, 3, 0), (7, 2, 1, 0, 3)] * 5


def _appended(summary, *batches):
    """The composed ingest result: route, refit, migrate and re-range
    through :class:`IngestPipeline`, one append per batch."""
    pipeline = IngestPipeline(summary)
    for batch in batches:
        pipeline.append(batch)
    return pipeline.summary


#: name -> fit(relation) for the base relation.
CASES = {
    "one_dim": lambda relation: _builder(relation).fit(),
    "pairs": _pairs,
    "chain": _chain,
    "interleaved": _interleaved,
    **{
        f"auto_{strategy}_{heuristic}": _auto(strategy, heuristic)
        for strategy in ("cover", "correlation")
        for heuristic in ("large", "zero", "composite")
    },
    "auto_exclude": lambda relation: (
        _builder(relation).budget(8).num_pairs(2).exclude("b").fit()
    ),
    "sharded": lambda relation: (
        _builder(relation)
        .pairs(("a", "b"), ("d", "c"))
        .per_pair_budget(6)
        .shards(3, by="c", workers=1)
        .fit()
    ),
    "refit": lambda relation: _pairs(relation).refit(
        Relation.concat([relation, _extra()]), max_iterations=20
    ),
    "refit_growth": lambda relation: _pairs(relation).refit(
        Relation.concat([_widened(relation), _extra(grow=1)]),
        max_iterations=20,
    ),
    "refit_appended": lambda relation: _pairs(relation).refit_appended(
        _extra(), max_iterations=20
    ),
    "refit_appended_growth": lambda relation: _pairs(relation).refit_appended(
        _extra(grow=1), max_iterations=20
    ),
    "migrated": lambda relation: _pairs(relation).migrated(golden_schema(grow=1)),
    "pipeline_unsharded": lambda relation: _appended(
        _pairs(relation), _extra(), _extra(grow=1)
    ),
    "pipeline_round_robin": lambda relation: _appended(
        _pairs_sharded(_uneven(relation), 3), _extra(), _extra(grow=1)
    ),
    "pipeline_ranged_growth": lambda relation: _appended(
        _pairs_sharded(relation, 2, by="a"), _extra(), _GROW_A
    ),
}

#: Digests computed before statistics were measured from count tensors.
GOLDEN = {
    "auto_correlation_composite": (
        "64047df4f00d271e79e7f3f35b3a7f0c3c942d358c7a5df7d13e5bc48a0525bc"
    ),
    "auto_correlation_large": (
        "d9154d26bf1f0e9a016c957dea1bb5ad85a77e219d7e5b869409ce40e8f03dc8"
    ),
    "auto_correlation_zero": (
        "044dfdbda5e19c3439f1ac323b3708e3630617133fe077e3ece14d612fe725af"
    ),
    "auto_cover_composite": (
        "7ce57e4afa8092d0e94fa5a60fc8626016966886f454050b0097adf351a290c0"
    ),
    "auto_cover_large": (
        "4642648cf14ca84ee02a6f21fe878137272f8a7a6a6ce34c6915f26e178d263d"
    ),
    "auto_cover_zero": (
        "726e3ed8bc24540f6ec927e86f3a0f0f0e767fc748bbe7167f17e898adabf87a"
    ),
    "auto_exclude": (
        "9cc98f1d163aa91c30eb85d211366a4022ed87f18631bbcef47d6a7964b19eae"
    ),
    # chain and interleaved were computed while the solver still took
    # each δ partial statistic by statistic; fitting one attribute-set
    # run at a time must reproduce them byte for byte.
    "chain": (
        "674488deec84dba8f84cfb8cad7b32946425958e389f9f34f32da2071548ef15"
    ),
    "interleaved": (
        "9c303bf7fc1fab17b66220833a3597892a36d95e523ff40a2b456ece98ce34dd"
    ),
    "migrated": (
        "8337bf58e74eaffa7520e3e7d56c5ce713a40ef2c8d17c90f8eafc4abd7369d2"
    ),
    "one_dim": (
        "2b6e463b9b5aa9dbf3860e9f6a9c62319566138be767962796458feb876815f8"
    ),
    "pairs": (
        "3d0f7cc37f8796d9b623b9751656564db993ea94bc97ced670869ab127de0efc"
    ),
    # The pipeline_* digests were computed when IngestPipeline still
    # kept a row copy of every shard; reading only the batch must
    # reproduce them byte for byte.
    "pipeline_ranged_growth": (
        "229197657de98dc62a9237a4092945b0c0f6f532f6ff016a3078d1a8f9bdda5c"
    ),
    "pipeline_round_robin": (
        "a5271aa6d0f94939d599dc787eedbf2ed656e9cd78ffcd936e10df6f531987d9"
    ),
    "pipeline_unsharded": (
        "9f67e83f53f3de4b45786b3dcd40660f8d526dcf2af04951c9c50b2cecd00005"
    ),
    "refit": (
        "75f239058529839cbad5ede9cf874206ecfe51fc16ee0af8f12123719fbd7601"
    ),
    "refit_appended": (
        "75f239058529839cbad5ede9cf874206ecfe51fc16ee0af8f12123719fbd7601"
    ),
    "refit_appended_growth": (
        "9d335dd83dee75e1a6b410d05eee44b3829ae4e4fa18615b1a32bc4ae427ed20"
    ),
    "refit_growth": (
        "9d335dd83dee75e1a6b410d05eee44b3829ae4e4fa18615b1a32bc4ae427ed20"
    ),
    "sharded": (
        "351a0181e2e4f7bd0495c54793558332fe4928c04c18c539a117b6e13fb9b77c"
    ),
}


@pytest.fixture(scope="module")
def relation():
    return golden_relation()


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_matches_golden_digest(relation, case):
    assert model_digest(CASES[case](relation)) == GOLDEN[case]


if __name__ == "__main__":
    base = golden_relation()
    for name in sorted(CASES):
        print(f'    "{name}": (\n        "{model_digest(CASES[name](base))}"\n    ),')
