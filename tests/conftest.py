"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

# tools/ lives next to src/ at the repo root; the lock-order watchdog
# (tools.analyze.lockorder) is opt-in and only imported when enabled.
_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.stats.statistic import StatisticSet, range_statistic_2d

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Lock-order watchdog (opt-in: --lockorder or REPRO_LOCKORDER=1)
# ----------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption(
        "--lockorder",
        action="store_true",
        default=False,
        help="instrument threading.Lock/RLock and fail the session on "
        "inconsistent lock-acquisition order (see tools/analyze/lockorder.py)",
    )
    parser.addoption(
        "--soak",
        action="store_true",
        default=False,
        help="run the chaos soak scenarios (tests marked @pytest.mark.soak): "
        "short fault-injected multi-tenant runs against a live server "
        "(see docs/testing.md)",
    )


def _lockorder_enabled(config) -> bool:
    if config.getoption("--lockorder"):
        return True
    return os.environ.get("REPRO_LOCKORDER", "") not in ("", "0")


def _soak_enabled(config) -> bool:
    if config.getoption("--soak"):
        return True
    return os.environ.get("REPRO_SOAK", "") not in ("", "0")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "soak: chaos soak scenario (seconds of live traffic); "
        "skipped unless --soak or REPRO_SOAK=1",
    )


def pytest_collection_modifyitems(config, items):
    if _soak_enabled(config):
        return
    skip_soak = pytest.mark.skip(reason="needs --soak (or REPRO_SOAK=1)")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip_soak)


@pytest.fixture(autouse=True, scope="session")
def _lockorder_watchdog(request):
    """Record lock-acquisition order across the whole session when enabled.

    Inconsistent ordering (a cycle in the waits-for graph between lock
    creation sites) is a latent deadlock even if no run has hung yet;
    the watchdog turns it into a loud session failure.
    """
    if not _lockorder_enabled(request.config):
        yield None
        return
    from tools.analyze.lockorder import LockOrderWatchdog

    watchdog = LockOrderWatchdog()
    watchdog.install()
    try:
        yield watchdog
    finally:
        watchdog.uninstall()
        watchdog.assert_no_cycles()


# ----------------------------------------------------------------------
# Deterministic fixtures
# ----------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_schema():
    """A 3-attribute schema small enough for the naive polynomial."""
    return Schema(
        [integer_domain("A", 4), integer_domain("B", 5), integer_domain("C", 3)]
    )


@pytest.fixture
def small_relation(small_schema, rng):
    """A skewed random relation over the small schema."""
    num_rows = 400
    # Skew: value 0 of each attribute is much more likely.
    columns = []
    for size in small_schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        weights /= weights.sum()
        columns.append(rng.choice(size, size=num_rows, p=weights))
    return Relation(small_schema, columns)


@pytest.fixture
def small_statistics(small_relation):
    """Statistic set with three overlapping 2D statistics."""
    relation = small_relation
    schema = relation.schema

    def count(attr_a, range_a, attr_b, range_b):
        masks = {}
        for attr, (low, high) in ((attr_a, range_a), (attr_b, range_b)):
            size = schema.domain(attr).size
            mask = np.zeros(size, dtype=bool)
            mask[low : high + 1] = True
            masks[attr] = mask
        return float(relation.count_where(masks))

    stats = [
        range_statistic_2d(
            schema, "A", (1, 2), "B", (0, 2), count("A", (1, 2), "B", (0, 2))
        ),
        range_statistic_2d(
            schema, "B", (2, 4), "C", (0, 1), count("B", (2, 4), "C", (0, 1))
        ),
        range_statistic_2d(
            schema, "A", (0, 0), "C", (2, 2), count("A", (0, 0), "C", (2, 2))
        ),
    ]
    return StatisticSet.from_counts(Counts.of(relation), stats)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

@st.composite
def schemas(draw, max_attrs=4, max_size=6):
    """Random small schemas."""
    num_attrs = draw(st.integers(2, max_attrs))
    sizes = [draw(st.integers(2, max_size)) for _ in range(num_attrs)]
    return Schema(
        [integer_domain(f"X{index}", size) for index, size in enumerate(sizes)]
    )


@st.composite
def relations(draw, schema_strategy=None, max_rows=200):
    """Random relations (rows drawn uniformly, some skew via seed)."""
    schema = draw(schemas() if schema_strategy is None else schema_strategy)
    num_rows = draw(st.integers(10, max_rows))
    seed = draw(st.integers(0, 2**31 - 1))
    generator = np.random.default_rng(seed)
    columns = []
    for size in schema.sizes():
        weights = generator.random(size) + 0.1
        weights /= weights.sum()
        columns.append(generator.choice(size, size=num_rows, p=weights))
    return Relation(schema, columns)


@st.composite
def relations_with_stats(draw, max_stats=4, schema_strategy=None):
    """A relation plus a set of measured (consistent) 2D statistics.

    Statistics are disjoint within each attribute pair (rejection-
    sampled), overlapping freely across pairs — the structural setting
    of Theorem 4.1.
    """
    relation = draw(relations(schema_strategy))
    schema = relation.schema
    num_stats = draw(st.integers(0, max_stats))
    chosen: list = []
    stats = []
    for _ in range(num_stats):
        pos_a = draw(st.integers(0, schema.num_attributes - 2))
        pos_b = draw(st.integers(pos_a + 1, schema.num_attributes - 1))
        size_a = schema.domain(pos_a).size
        size_b = schema.domain(pos_b).size
        low_a = draw(st.integers(0, size_a - 1))
        high_a = draw(st.integers(low_a, size_a - 1))
        low_b = draw(st.integers(0, size_b - 1))
        high_b = draw(st.integers(low_b, size_b - 1))
        candidate = (pos_a, pos_b, low_a, high_a, low_b, high_b)
        if _overlaps_existing(chosen, candidate):
            continue
        chosen.append(candidate)
        masks = {
            pos_a: _range_mask(size_a, low_a, high_a),
            pos_b: _range_mask(size_b, low_b, high_b),
        }
        value = float(relation.count_where(masks))
        stats.append(
            range_statistic_2d(
                schema, pos_a, (low_a, high_a), pos_b, (low_b, high_b), value
            )
        )
    return relation, StatisticSet.from_counts(Counts.of(relation), stats)


def _range_mask(size, low, high):
    mask = np.zeros(size, dtype=bool)
    mask[low : high + 1] = True
    return mask


def _overlaps_existing(chosen, candidate):
    pos_a, pos_b, low_a, high_a, low_b, high_b = candidate
    for other in chosen:
        if other[:2] != (pos_a, pos_b):
            continue
        if max(low_a, other[2]) <= min(high_a, other[3]) and max(
            low_b, other[4]
        ) <= min(high_b, other[5]):
            return True
    return False


@st.composite
def parameters_for(draw, polynomial):
    """Random positive parameters shaped for a polynomial."""
    from repro.core.variables import ModelParameters

    seed = draw(st.integers(0, 2**31 - 1))
    generator = np.random.default_rng(seed)
    alphas = [
        generator.random(size) * 2.0 + 0.05 for size in polynomial.sizes
    ]
    deltas = generator.random(polynomial.num_deltas) * 2.0 + 0.05
    return ModelParameters(alphas, deltas)


@st.composite
def masked_models(draw):
    """A random statistic set (0-4 statistics over 2-4 attributes, so
    multi-component sets and free positions both occur), its compressed
    polynomial, positive parameters, and value masks on any subset of
    the attributes — no mask at all and all-False masks included."""
    from repro.core.polynomial import CompressedPolynomial

    _, statistic_set = draw(relations_with_stats())
    polynomial = CompressedPolynomial(statistic_set)
    params = draw(parameters_for(polynomial))
    masks = {}
    for pos, size in enumerate(polynomial.sizes):
        if draw(st.booleans()):
            bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            masks[pos] = np.array(bits, dtype=bool)
    return statistic_set, polynomial, params, masks
