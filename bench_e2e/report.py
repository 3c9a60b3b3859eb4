"""Printing, run sets, and the two judging tools: ``aa`` and ``compare``.

``compare`` is what later performance issues are judged with: one row
per workload x metric with both medians and quartiles, the metric's
bound applied, and ``unresolved`` (never ``unchanged``) when the
run-to-run spread is wider than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_e2e import spec
from bench_e2e.workloads import RESULTS_DIR

ROOT = Path(__file__).resolve().parent.parent


def run_seconds() -> float:
    """The window length the PR driver uses (``BENCHMARK.json``)."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 8.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def record_of(result, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": result.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {} if trace else result.metrics,
        "raw": result.raw,
        "blocks": result.blocks,
        "layer": result.layer,
        "reasons": result.reasons,
        "samples": result.samples,
        "notes": result.notes,
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} (seed {record['seed']}, {kind}, "
          f"{record['seconds']:g} s window)")
    print(f"   attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}  samples {record['samples']}")
    for note in record["notes"]:
        print(f"   ! {note}")
    for metric in spec.END_TO_END:
        if metric.name in record["metrics"]:
            arrow = "v" if metric.better == "lower" else "^"
            raw = record["raw"].get(metric.name)
            measured = f"  (as measured: {_fmt(raw)})" if raw is not None else ""
            print(f"   {metric.name:<34} {_fmt(record['metrics'][metric.name]):>12} "
                  f"{metric.unit:<6} {arrow}{measured}")
    for metric in spec.PER_LAYER:
        if metric.name in record["layer"]:
            value = record["layer"][metric.name]
            why = f"  ({record['reasons'][metric.name]})" if value is None else ""
            exact = " [x]" if metric.exact else ""
            print(f"   {metric.name:<44} {_fmt(value):>12} {metric.unit:<6}{exact}{why}")


def driver_line(record: dict) -> dict:
    """The PR driver's contract: every end-to-end metric untraced,
    every per-layer metric traced."""
    if record["trace"]:
        metrics = {}
        for metric in spec.PER_LAYER:
            value = record["layer"].get(metric.name)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            if value is None:
                metrics[metric.name]["reason"] = "probe_unavailable"
    else:
        metrics = {
            m.name: {"value": record["metrics"][m.name], "unit": m.unit}
            for m in spec.DRIVER_END_TO_END
        }
    return {
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Sets of runs (one process per run: set-up and memory start from zero)
# ----------------------------------------------------------------------

def run_child(workload, seed, seconds, trace, quick) -> dict:
    RESULTS_DIR.mkdir(exist_ok=True)
    handle, detail = tempfile.mkstemp(suffix=".json", dir=RESULTS_DIR)
    os.close(handle)
    command = [
        sys.executable, "-m", "bench_e2e", "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--detail", detail,
    ] + (["--quick"] if quick else [])
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        # Everything but the driver's JSON line is for the reader.
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        sys.stdout.flush()
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
        return json.loads(Path(detail).read_text())
    finally:
        Path(detail).unlink(missing_ok=True)


def run_set(names, seed, repeat, seconds, trace, quick, reverse=False) -> list[dict]:
    order = list(reversed(names)) if reverse else list(names)
    return [
        run_child(name, seed + turn, seconds, trace, quick)
        for turn in range(repeat)
        for name in order
    ]


def merge_traces(names) -> None:
    target = RESULTS_DIR / "trace.jsonl"
    with open(target, "w") as out:
        for name in names:
            part = RESULTS_DIR / f"trace-{name}.jsonl"
            if part.exists():
                for line in part.read_text().splitlines():
                    out.write(json.dumps({"workload": name, **json.loads(line)}) + "\n")
                part.unlink()
    print(f"spans written to {target}")


# ----------------------------------------------------------------------
# Judging
# ----------------------------------------------------------------------

def _series(records, trace: bool) -> dict:
    """``(workload, metric) -> values`` over the runs of one set."""
    out: dict = {}
    for record in records:
        if record["trace"] != trace:
            continue
        values = record["layer"] if trace else record["metrics"]
        for name, value in values.items():
            if value is not None:
                out.setdefault((record["workload"], name), []).append(value)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def worsening(metric: spec.Metric, a: float, b: float) -> float:
    """By what share of ``a`` is ``b`` worse (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf") * (1 if b > a else -1)
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def judge(metric: spec.Metric, a: list, b: list) -> str:
    if metric.exact:
        return "identical" if sorted(a) == sorted(b) else "DIFFERS"
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = worsening(metric, median_a, median_b)
    bound = metric.bound
    spread = max(
        (q3 - q1) / abs(m) if m else 0.0
        for (q1, q3), m in ((_quartiles(a), median_a), (_quartiles(b), median_b))
    )
    better_is_less = metric.better == "lower"
    all_better = max(b) < min(a) if better_is_less else min(b) > max(a)
    all_worse = min(b) > max(a) if better_is_less else max(b) < min(a)
    if spread > bound:
        # Too noisy to call unchanged: only a clean separation counts.
        if all_better:
            return "improved"
        if all_worse and worse > bound:
            return "REGRESSED"
        return "unresolved"
    if worse > bound:
        return "REGRESSED"
    return "improved" if all_better and -worse > spread else "unchanged"


def compare_sets(a_records, b_records) -> tuple[list[str], bool]:
    """Rows of the comparison and whether B is acceptable against A."""
    rows, ok = [], True
    header = (f"{'workload':<14} {'metric':<44} {'median A':>12} {'[q1, q3]':>24} "
              f"{'median B':>12} {'[q1, q3]':>24} {'worse by':>9} {'bound':>6}  verdict")
    rows.append(header)
    for trace, metrics in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        series_a, series_b = _series(a_records, trace), _series(b_records, trace)
        for workload in spec.WORKLOADS:
            for metric in metrics:
                a = series_a.get((workload, metric.name))
                b = series_b.get((workload, metric.name))
                if not a or not b:
                    continue
                # Per-layer timings carry no bound: they show where a
                # change landed, they do not judge it.
                verdict = judge(metric, a, b) if metric.bound is not None or metric.exact else ""
                ok = ok and verdict not in ("REGRESSED", "DIFFERS")
                ma, mb = statistics.median(a), statistics.median(b)
                (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
                bound = "" if metric.bound is None else f"{metric.bound:.0%}"
                rows.append(
                    f"{workload:<14} {metric.name:<44} {_fmt(ma):>12} "
                    f"{'[' + _fmt(a1) + ', ' + _fmt(a3) + ']':>24} {_fmt(mb):>12} "
                    f"{'[' + _fmt(b1) + ', ' + _fmt(b3) + ']':>24} "
                    f"{worsening(metric, ma, mb):>+9.1%} {bound:>6}  {verdict}"
                )
    return rows, ok


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    rows, ok = compare_sets(a, b)
    print("\n".join(rows))
    print("B is acceptable against A" if ok else "B is NOT acceptable against A")
    return 0 if ok else 1


def aa(args) -> int:
    """Two sets of runs of the same checkout: every end-to-end median
    must agree within its bound — in either direction, since neither
    set is the better one — and every exact count must be identical."""
    names = args.workload or list(spec.WORKLOADS)
    sets = []
    for label, reverse in (("A", False), ("B", True)):
        records = run_set(names, args.seed, args.repeat, args.seconds, False,
                          args.quick, reverse)
        records += run_set(names, args.seed, 1, args.seconds, True, args.quick, reverse)
        Path(f"{args.out}-{label}.json").write_text(json.dumps({"runs": records}, indent=1))
        sets.append(records)
    forward, ok_forward = compare_sets(sets[0], sets[1])
    _, ok_backward = compare_sets(sets[1], sets[0])
    correct = all(r["correct"] for records in sets for r in records)
    print("\n".join(forward))
    ok = ok_forward and ok_backward and correct
    print("A/A: the two sets agree" if ok else "A/A: the two sets DISAGREE")
    return 0 if ok else 1
