"""Generated inputs: the relation, the models, the query streams, the oracle.

The program under test sees only what this module generates: a flights
relation (a constant of the benchmark), and SQL texts and append batches
that are functions of the seed.  Sizes are constants of the benchmark
(never ``REPRO_SCALE``).

The oracle counts with numpy straight from the generated columns and
does not go through ``ExactBackend`` or any other part of the program.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.api import SummaryBuilder
from repro.datasets import generate_flights

NUM_ROWS = 100_000
#: The relation is a constant of the benchmark: the seed drives the
#: traffic (query streams, dashboard mix, append batches), not the data.
#: Model size, fit time and accuracy move 15-50 % from one generated
#: relation to the next, which would drown every bound below in
#: seed-to-seed differences that no change to the program caused.
DATA_SEED = 7
ITERATIONS = 15
NUM_SHARDS = 8
SHARD_BY = "fl_date"

#: Paper Fig. 4 attribute pairs (FlightsCoarse).
PAIRS = {
    1: ("origin_state", "distance"),
    2: ("dest_state", "distance"),
    3: ("fl_time", "distance"),
    4: ("origin_state", "dest_state"),
}

#: name -> (pair ids, per-pair budget, shards).  M1 is the paper's
#: Ent1&2&3; M8 is the same pairs at twice the budget over 8 shards.
MODELS = {
    "Ent1&2": ((1, 2), 90, 1),
    "Ent3&4": ((3, 4), 90, 1),
    "M1": ((1, 2, 3), 90, 1),
    "M8": ((1, 2, 3), 180, NUM_SHARDS),
}

CORE = ("origin_state", "dest_state", "fl_time", "distance")
POINT_TEMPLATES = [
    *itertools.combinations(CORE, 2),
    *itertools.combinations(CORE, 3),
]

#: Query-kind shares of ``gen_queries`` (Sec 6.2 point templates first).
MIX = (("point", 0.40), ("range", 0.25), ("group", 0.20), ("agg", 0.15))

#: Floor of the relative-error denominator: light hitters have counts
#: of 1-3, where |est - true| / true measures rounding, not the model.
REL_ERROR_FLOOR = 8.0


# ----------------------------------------------------------------------
# Data and models
# ----------------------------------------------------------------------

class Data:
    """The generated relation plus the plain-numpy view the oracle and
    the query generator work on."""

    def __init__(self, relation):
        self.relation = relation
        schema = relation.schema
        self.attrs = list(schema.attribute_names)
        self.labels = {a: schema.domain(a).labels for a in self.attrs}
        self.sizes = {a: len(self.labels[a]) for a in self.attrs}
        self.columns = {a: np.asarray(relation.column(a)) for a in self.attrs}
        self.oracle = Oracle(self.columns, self.sizes)

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    def weights(self, attr: str) -> np.ndarray:
        """Numeric value of each label (bucket midpoint), the SUM/AVG
        weight vector."""
        return np.asarray(
            [
                label.midpoint if hasattr(label, "midpoint") else float(label)
                for label in self.labels[attr]
            ]
        )

    def grown(self, batch) -> "Data":
        """This data plus an appended batch relation (same schema)."""
        out = Data.__new__(Data)
        out.relation = None
        out.attrs, out.labels, out.sizes = self.attrs, self.labels, self.sizes
        out.columns = {
            a: np.concatenate([self.columns[a], np.asarray(batch.column(a))])
            for a in self.attrs
        }
        out.oracle = Oracle(out.columns, out.sizes)
        return out


def make_data(num_rows: int = NUM_ROWS) -> Data:
    return Data(generate_flights(num_rows=num_rows, seed=DATA_SEED).coarse)


def fit_model(relation, name: str, budget_scale: float = 1.0):
    """Fit one of ``MODELS`` with the public builder.  Shard fits run
    serially in-process: no fork noise in the timing, and every shard
    keeps its ``SolverReport``."""
    pair_ids, budget, shards = MODELS[name]
    builder = (
        SummaryBuilder(relation)
        .pairs(*[PAIRS[i] for i in pair_ids])
        .per_pair_budget(max(2, int(budget * budget_scale)))
        .iterations(ITERATIONS)
        .name(name)
    )
    if shards > 1:
        builder.shards(shards, by=SHARD_BY, workers=1)
    return builder.fit()


def solver_residual(summary) -> float | None:
    """Largest ``SolverReport.final_error`` a fitted model carries."""
    reports = [getattr(summary, "report", None)]
    reports += [getattr(s, "report", None) for s in getattr(summary, "shards", ())]
    errors = [r.final_error for r in reports if r is not None]
    return max(errors) if errors else None


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

class Oracle:
    """Exact answers from raw columns, via joint count tensors."""

    def __init__(self, columns: dict, sizes: dict):
        self.columns = columns
        self.sizes = sizes
        self.num_rows = len(next(iter(columns.values())))
        self._tensors: dict[tuple, np.ndarray] = {}

    def tensor(self, attrs: tuple) -> np.ndarray:
        """Joint counts over ``attrs`` (shape = their domain sizes)."""
        tensor = self._tensors.get(attrs)
        if tensor is None:
            shape = tuple(self.sizes[a] for a in attrs)
            if not attrs:
                tensor = np.asarray(self.num_rows)
            else:
                flat = np.ravel_multi_index(
                    tuple(self.columns[a] for a in attrs), shape
                )
                tensor = np.bincount(flat, minlength=int(np.prod(shape)))
                tensor = tensor.reshape(shape)
            self._tensors[attrs] = tensor
        return tensor

    def _restricted(self, where: dict, keep: str | None = None):
        """Counts under ``where`` along axis ``keep`` (scalar if None)."""
        attrs = tuple(sorted(set(where) | ({keep} if keep else set())))
        tensor = self.tensor(attrs)
        if not attrs:
            return tensor
        index = [
            np.asarray(where[a]) if a in where else np.arange(self.sizes[a])
            for a in attrs
        ]
        block = tensor[np.ix_(*index)]
        if keep is None:
            return block.sum()
        axis = attrs.index(keep)
        sums = block.sum(axis=tuple(i for i in range(len(attrs)) if i != axis))
        full = np.zeros(self.sizes[keep], dtype=np.int64)
        full[index[axis]] = sums
        return full

    def count(self, where: dict) -> int:
        return int(self._restricted(where))

    def group(self, where: dict, attr: str) -> np.ndarray:
        """Per-value counts of ``attr`` under ``where`` (values that
        ``where`` excludes on ``attr`` itself count 0)."""
        return self._restricted(where, keep=attr)

    def weighted_sum(self, where: dict, attr: str, weights) -> float:
        return float(np.dot(self.group(where, attr), weights))


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Q:
    """One generated statement with its index-space meaning."""

    text: str
    kind: str  # heavy | light | null | range | group | sum | avg
    where: dict = field(hash=False, compare=False, default_factory=dict)
    group_attr: str | None = None
    agg_attr: str | None = None
    #: Canonical meaning: equal keys are the same question respelled.
    key: tuple = ()
    #: Point queries: position in their (template, class) pool.  The
    #: pools are functions of the relation alone, so "rank < K" names
    #: the same questions under every seed: the accuracy set.
    rank: int = -1

    @property
    def is_point(self) -> bool:
        return self.kind in ("heavy", "light", "null")


def literal(label) -> str:
    if hasattr(label, "midpoint"):
        return repr(label.midpoint)
    if isinstance(label, str):
        return "'" + label.replace("'", "''") + "'"
    return repr(label)


def _ordered(attr: str, data: Data) -> bool:
    return not isinstance(data.labels[attr][0], str)


def condition(attr: str, indices, data: Data, between: bool) -> str:
    """SQL for ``attr in indices``: a contiguous run on an ordered
    attribute becomes a range (``between`` picks the spelling), anything
    else an ``=`` or ``IN``."""
    labels = data.labels[attr]
    indices = sorted(indices)
    lo, hi = indices[0], indices[-1]
    if len(indices) == 1:
        return f"{attr} = {literal(labels[lo])}"
    if _ordered(attr, data) and hi - lo + 1 == len(indices):
        low, high = literal(labels[lo]), literal(labels[hi])
        if lo == 0:
            return f"{attr} <= {high}"
        if hi == data.sizes[attr] - 1:
            return f"{attr} >= {low}"
        if between:
            return f"{attr} BETWEEN {low} AND {high}"
        return f"{attr} >= {low} AND {attr} <= {high}"
    return f"{attr} IN ({', '.join(literal(labels[i]) for i in indices)})"


def where_sql(where: dict, data: Data, rng) -> str:
    if not where:
        return ""
    attrs = list(where)
    rng.shuffle(attrs)
    return " WHERE " + " AND ".join(
        condition(a, where[a], data, rng.random() < 0.5) for a in attrs
    )


def respelled(q: "Q", data: Data) -> str | None:
    """The same scalar question in another spelling (conjunct order,
    ``BETWEEN`` vs paired comparisons), or None if it has only one."""
    if q.kind not in ("heavy", "light", "null", "range"):
        return None
    for attrs in (sorted(q.where), sorted(q.where, reverse=True)):
        for between in (True, False):
            text = "SELECT COUNT(*) FROM R WHERE " + " AND ".join(
                condition(a, q.where[a], data, between) for a in attrs
            )
            if text != q.text:
                return text
    return None


def _canonical(kind_key, where: dict) -> tuple:
    return (kind_key, tuple(sorted((a, tuple(sorted(v))) for a, v in where.items())))


def _random_where(data: Data, rng, attrs) -> dict:
    """A non-trivial constraint on each of ``attrs``."""
    where = {}
    for attr in attrs:
        size = data.sizes[attr]
        if _ordered(attr, data):
            width = int(rng.integers(1, max(2, size // 2)))
            lo = int(rng.integers(0, size - width + 1))
            where[attr] = tuple(range(lo, lo + width))
        else:
            count = int(rng.integers(1, 7))
            where[attr] = tuple(
                sorted(rng.choice(size, size=count, replace=False).tolist())
            )
    return where


def _point_pools(data: Data, per_class: int) -> list[list]:
    """Heavy / light / nonexistent point queries per Sec 6.2 template,
    one pool per (template, class).  A function of the relation alone:
    the seed only orders and spells what is drawn from the pools."""
    rng = np.random.default_rng([DATA_SEED, 0x0E])
    pools = []
    for template in POINT_TEMPLATES:
        tensor = data.oracle.tensor(template)
        flat = tensor.ravel()
        # Stable order: count descending, then cell index.
        order = np.lexsort((np.arange(flat.size), -flat))
        nonzero = order[: int(np.count_nonzero(flat))]
        zeros = np.flatnonzero(flat == 0)
        picks = {
            "heavy": nonzero[:per_class],
            "light": nonzero[::-1][:per_class],
            "null": rng.permutation(zeros)[:per_class],
        }
        for kind, cells in picks.items():
            pool = []
            for cell in np.asarray(cells).tolist():
                values = np.unravel_index(cell, tensor.shape)
                where = {a: (int(v),) for a, v in zip(template, values)}
                pool.append((kind, where))
            pools.append(pool)
    return pools


def gen_queries(seed: int, n: int, data: Data) -> list[Q]:
    """``n`` statements with pairwise-distinct canonical meaning, kinds
    mixed evenly along the stream so every prefix has the same mix."""
    rng = np.random.default_rng([seed, 0x51])
    quotas = {kind: int(round(share * n)) for kind, share in MIX}
    quotas["point"] += n - sum(quotas.values())
    seen: set = set()
    out: dict[str, list[Q]] = {kind: [] for kind, _ in MIX}

    # -- points: round-robin over the (template, class) pools ----------
    per_class = -(-quotas["point"] // (3 * len(POINT_TEMPLATES))) + 8
    pools = _point_pools(data, per_class)
    cursor = [0] * len(pools)
    while len(out["point"]) < quotas["point"]:
        progressed = False
        for index, pool in enumerate(pools):
            if len(out["point"]) >= quotas["point"]:
                break
            while cursor[index] < len(pool):
                kind, where = pool[cursor[index]]
                cursor[index] += 1
                key = _canonical("count", where)
                if key not in seen:
                    seen.add(key)
                    text = "SELECT COUNT(*) FROM R" + where_sql(where, data, rng)
                    out["point"].append(
                        Q(text, kind, where, key=key, rank=cursor[index] - 1)
                    )
                    progressed = True
                    break
        if not progressed:
            raise ValueError("point-query pools exhausted; lower n")

    def fresh(kind_key, where):
        """The canonical key if unseen so far, else None."""
        key = _canonical(kind_key, where)
        if key in seen:
            return None
        seen.add(key)
        return key

    # -- range conjunctions over 1-3 attributes -------------------------
    while len(out["range"]) < quotas["range"]:
        arity = int(rng.integers(1, 4))
        attrs = rng.choice(data.attrs, size=arity, replace=False).tolist()
        where = _random_where(data, rng, attrs)
        key = any(len(v) > 1 for v in where.values()) and fresh("count", where)
        if key:
            text = "SELECT COUNT(*) FROM R" + where_sql(where, data, rng)
            out["range"].append(Q(text, "range", where, key=key))

    # -- filtered GROUP BY ----------------------------------------------
    while len(out["group"]) < quotas["group"]:
        group_attr = str(rng.choice(CORE))
        others = [a for a in data.attrs if a != group_attr]
        attrs = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
        where = _random_where(data, rng, attrs.tolist())
        tail = ""
        if rng.random() < 0.5:
            tail = f" ORDER BY cnt DESC LIMIT {int(rng.integers(3, 11))}"
        key = fresh(("group", group_attr, tail), where)
        if key:
            text = (
                f"SELECT {group_attr}, COUNT(*) FROM R"
                + where_sql(where, data, rng)
                + f" GROUP BY {group_attr}{tail}"
            )
            out["group"].append(Q(text, "group", where, group_attr, key=key))

    # -- filtered SUM / AVG(distance) -----------------------------------
    others = [a for a in data.attrs if a != "distance"]
    while len(out["agg"]) < quotas["agg"]:
        agg = "sum" if rng.random() < 0.5 else "avg"
        attrs = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
        where = _random_where(data, rng, attrs.tolist())
        # AVG over (almost) no rows is an error, not a workload.
        if data.oracle.count(where) < 100:
            continue
        key = fresh((agg,), where)
        if key:
            text = f"SELECT {agg.upper()}(distance) FROM R" + where_sql(
                where, data, rng
            )
            out["agg"].append(Q(text, agg, where, agg_attr="distance", key=key))

    for kind in out:
        order = rng.permutation(len(out[kind]))
        out[kind] = [out[kind][i] for i in order]
    # Interleave by quota so a prefix of the stream keeps the mix.
    slots = sorted(
        ((i + 0.5) / len(items), k, i)
        for k, items in out.items()
        for i in range(len(items))
    )
    return [out[kind][i] for _, kind, i in slots]


def accuracy_set(stream, per_pool: int) -> list[int]:
    """Positions in ``stream`` of the accuracy set: the first
    ``per_pool`` questions of every (template, class) pool."""
    return [i for i, q in enumerate(stream) if 0 <= q.rank < per_pool]


def stream_digest(queries) -> str:
    return hashlib.sha256("\n".join(q.text for q in queries).encode()).hexdigest()


def dashboard_mix(seed: int, data: Data) -> list[Q]:
    """The 12-statement hot mix: scalars, respellings of the same
    question, GROUP BY, SUM/AVG, ORDER/LIMIT.  10 distinct keys."""
    rng = np.random.default_rng([seed, 0xDA])
    volume = data.oracle.tensor(("origin_state",))
    top = np.argsort(-volume, kind="stable")[:10]
    s1, s2, s3 = (int(v) for v in rng.choice(top, size=3, replace=False))
    state = lambda i: literal(data.labels["origin_state"][i])  # noqa: E731
    d_lo = int(rng.integers(20, 120))
    dates = tuple(range(d_lo, d_lo + int(rng.integers(20, 90))))
    k_lo = int(rng.integers(2, 12))
    dist = tuple(range(k_lo, k_lo + int(rng.integers(8, 30))))
    dl = data.labels["distance"]
    lo, hi = literal(dl[dist[0]]), literal(dl[dist[-1]])
    near = tuple(range(0, dist[-1] + 1))
    in_states = tuple(sorted((s1, s2, s3)))
    in_sql = ", ".join(state(i) for i in in_states)
    date_where = {"fl_date": dates}
    box = {"distance": dist, "origin_state": in_states}
    return [
        Q("SELECT COUNT(*) FROM R", "range", {}),
        Q(f"SELECT COUNT(*) FROM R WHERE origin_state = {state(s1)}",
          "range", {"origin_state": (s1,)}),
        Q(f"SELECT COUNT(*) FROM R WHERE origin_state = {state(s1)} "
          f"AND dest_state = {state(s2)}",
          "range", {"origin_state": (s1,), "dest_state": (s2,)}),
        Q(f"SELECT COUNT(*) FROM R WHERE fl_date BETWEEN {dates[0]} AND "
          f"{dates[-1]}", "range", date_where),
        Q(f"SELECT COUNT(*) FROM R WHERE fl_date >= {dates[0]} AND "
          f"fl_date <= {dates[-1]}", "range", date_where),
        Q(f"SELECT COUNT(*) FROM R WHERE distance BETWEEN {lo} AND {hi} "
          f"AND origin_state IN ({in_sql})", "range", box),
        Q(f"SELECT COUNT(*) FROM R WHERE origin_state IN ({in_sql}) AND "
          f"distance >= {lo} AND distance <= {hi}", "range", box),
        Q("SELECT origin_state, COUNT(*) FROM R GROUP BY origin_state",
          "group", {}, group_attr="origin_state"),
        Q(f"SELECT dest_state, COUNT(*) FROM R WHERE origin_state = "
          f"{state(s1)} GROUP BY dest_state ORDER BY cnt DESC LIMIT 5",
          "group", {"origin_state": (s1,)}, group_attr="dest_state"),
        Q(f"SELECT SUM(distance) FROM R WHERE origin_state = {state(s1)}",
          "sum", {"origin_state": (s1,)}, agg_attr="distance"),
        Q(f"SELECT AVG(distance) FROM R WHERE fl_date BETWEEN {dates[0]} "
          f"AND {dates[-1]}", "avg", date_where, agg_attr="distance"),
        Q(f"SELECT fl_time, COUNT(*) FROM R WHERE distance <= {hi} GROUP BY "
          f"fl_time ORDER BY cnt DESC LIMIT 10",
          "group", {"distance": near}, group_attr="fl_time"),
    ]


# ----------------------------------------------------------------------
# Append batches (ingest_live)
# ----------------------------------------------------------------------

def append_batches(seed: int, data: Data, one_shard: int, all_shards: int):
    """``(one-shard batches, all-shard batches)``: the first resample
    rows from the newest dates (they route to the last ``fl_date`` shard
    only), the second resample rows from everywhere.  Each batch is 2 %
    of the base relation."""
    rng = np.random.default_rng([seed, 0xA9])
    rows = max(1, data.num_rows // 50)
    recent = np.flatnonzero(data.columns["fl_date"] >= data.sizes["fl_date"] - 12)
    everywhere = np.arange(data.num_rows)

    def batches(pool, count):
        return [
            data.relation.sample_rows(rng.choice(pool, size=rows, replace=True))
            for _ in range(count)
        ]

    return batches(recent, one_shard), batches(everywhere, all_shards)
