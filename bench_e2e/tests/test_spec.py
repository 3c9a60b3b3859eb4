"""``BENCHMARK.json`` and ``spec.py`` name the same things, inside the
limits the PR driver refuses a file for."""

import json
import re
from pathlib import Path

from bench_e2e import spec

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["paths"] == ["bench_e2e"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16 and 1 <= len(DOC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DOC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_spec_and_file_agree():
    assert {w["name"]: w["why"] for w in DOC["workloads"]} == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DOC["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.DRIVER_END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]


def test_the_issues_names():
    assert list(spec.WORKLOADS) == [
        "build_flights", "explore_cold", "serve_hot", "serve_cold",
        "cluster_cold", "ingest_live",
    ]
    assert [m.name for m in spec.END_TO_END] == [
        "setup_s", "build_s", "summary_bytes", "solver_residual", "query_p50_ms",
        "query_p95_ms", "queries_per_s", "cpu_ms_per_query", "peak_rss_mb",
        "mean_rel_error", "f_measure", "append_s", "reload_s", "failed_share",
    ]
