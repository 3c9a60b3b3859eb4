"""The whole benchmark at toy sizes: every workload runs, every answer
check is active, every metric name of ``BENCHMARK.json`` is printed."""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_e2e import calibrate

ROOT = Path(__file__).resolve().parents[2]


def test_run_quick_prints_every_metric_name():
    meter = calibrate.Meter()
    meter.tick(5)
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "run", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    ended = time.perf_counter()
    meter.tick(5)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # 20 s on the reference box; a slow hour of a shared box is not a bug.
    slowdown = statistics.median(meter.pieces) / calibrate.REFERENCE_PIECE_S
    elapsed = (ended - began) / max(slowdown, 1.0)
    assert elapsed < 20, f"run --quick took {elapsed:.1f} s at reference speed"
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = set(done.stdout.split())
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in document[key]:
            assert entry["name"] in printed, f"{entry['name']} was not printed"
    assert "failed_share" in printed and "append_s" in printed and "reload_s" in printed


def test_driver_form_prints_one_json_line_last():
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "run", "--quick", "--workload", "serve_hot",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in document["end_to_end"]}
    for metric in document["end_to_end"]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
