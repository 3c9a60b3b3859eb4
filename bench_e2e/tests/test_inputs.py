import numpy as np
import pytest

from bench_e2e import inputs
from repro.api import Explorer

#: sha256 of gen_queries(seed=7, n=300) over make_data(5000).  The
#: program must see the same inputs on every commit: if this moves, the
#: generator (or generate_flights) changed and old numbers are void.
PINNED = "cf44a012b5e0cfe32a5330f68cb12503f6dada48010fc9c0d49cb0847790dfb6"


@pytest.fixture(scope="module")
def data():
    return inputs.make_data(5_000)


def test_same_seed_same_texts(data):
    first = inputs.gen_queries(7, 300, data)
    again = inputs.gen_queries(7, 300, inputs.make_data(5_000))
    assert [q.text for q in first] == [q.text for q in again]
    assert inputs.stream_digest(first) == PINNED


def test_different_seed_different_texts(data):
    assert inputs.stream_digest(inputs.gen_queries(7, 300, data)) != inputs.stream_digest(
        inputs.gen_queries(8, 300, data)
    )


def test_stream_mix_and_prefix(data):
    stream = inputs.gen_queries(7, 300, data)
    kinds = [q.kind for q in stream]
    assert sum(k in ("heavy", "light", "null") for k in kinds) == 120
    assert kinds.count("range") == 75 and kinds.count("group") == 60
    # Every prefix keeps the mix: a time-bounded window sees all kinds.
    assert {"range", "group"} <= set(kinds[:20])


def test_texts_distinct_after_canonicalization(data):
    """The program's own canonicalizer must agree that no two
    statements of a stream ask the same question."""
    model = inputs.fit_model(data.relation, "Ent1&2", budget_scale=0.2)
    explorer = Explorer.attach(model)
    stream = inputs.gen_queries(7, 300, data)
    keys = {explorer.plan(q.text).cache_key for q in stream}
    assert len(keys) == len(stream) == len({q.key for q in stream})


def test_respelling_is_the_same_question(data):
    model = inputs.fit_model(data.relation, "Ent1&2", budget_scale=0.2)
    explorer = Explorer.attach(model)
    respelled = 0
    for q in inputs.gen_queries(7, 300, data):
        other = inputs.respelled(q, data)
        if other:
            respelled += 1
            assert other != q.text
            assert explorer.plan(other).cache_key == explorer.plan(q.text).cache_key
    assert respelled > 50


def test_dashboard_mix_has_ten_questions(data):
    model = inputs.fit_model(data.relation, "Ent1&2", budget_scale=0.2)
    explorer = Explorer.attach(model)
    mix = inputs.dashboard_mix(7, data)
    assert len(mix) == 12
    assert len({explorer.plan(q.text).cache_key for q in mix}) == 10


def test_oracle_against_hand_counted_relation():
    #      a  b  c      (20 rows, counted by hand below)
    rows = [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 2),
        (1, 0, 0), (1, 0, 0), (1, 1, 2), (1, 2, 2), (1, 2, 1),
        (2, 0, 1), (2, 1, 1), (2, 2, 0), (2, 2, 2), (2, 2, 2),
        (0, 0, 0), (1, 1, 1), (2, 0, 2), (0, 2, 0), (1, 0, 2),
    ]
    columns = {name: np.asarray([r[i] for r in rows]) for i, name in enumerate("abc")}
    oracle = inputs.Oracle(columns, {"a": 3, "b": 3, "c": 3})
    assert oracle.count({}) == 20
    assert oracle.count({"a": (0,)}) == 7
    assert oracle.count({"a": (0,), "b": (0,)}) == 3
    assert oracle.count({"a": (1, 2), "c": (2,)}) == 6
    assert oracle.count({"a": (0,), "b": (1,), "c": (2,)}) == 0
    assert oracle.group({"a": (1,)}, "b").tolist() == [3, 2, 2]
    assert oracle.group({"b": (2,)}, "c").tolist() == [2, 1, 4]
    # Filter-then-group: values the filter excludes count 0.
    assert oracle.group({"c": (0, 1)}, "c").tolist() == [7, 6, 0]
    assert oracle.weighted_sum({"a": (2,)}, "c", [10.0, 20.0, 30.0]) == 10 + 40 + 90


def test_one_shard_batches_hold_only_recent_dates(data):
    ones, alls = inputs.append_batches(7, data, 3, 1)
    assert len(ones) == 3 and len(alls) == 1
    floor = data.sizes["fl_date"] - 12
    for batch in ones + alls:
        assert batch.num_rows == data.num_rows // 50
    for batch in ones:
        assert int(np.asarray(batch.column("fl_date")).min()) >= floor
    assert int(np.asarray(alls[0].column("fl_date")).min()) < floor
