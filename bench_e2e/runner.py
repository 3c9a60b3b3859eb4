"""Run one workload: repeated set-up, the window in blocks, the checks.

The untraced run yields the end-to-end metrics.  The traced run is a
separate run: one set-up, untraced and traced blocks alternating on it
(their difference is ``trace.overhead_share``), then the per-layer
ledger; it writes a trace file and reports only per-layer numbers.

Every timing is taken per block of the window **at reference speed**
(see ``calibrate``), and the run reports the **quiet quartile** over the
blocks: the value a quarter of the way in from the better end.  The
machine's other tenants only ever slow a block down, so the better
blocks are the truer ones; the minimum alone would be one lucky sample.
"""

from __future__ import annotations

import os
import statistics
import time

from bench_e2e import calibrate, driver
from bench_e2e.calibrate import quiet_quartile
from bench_e2e.driver import percentile
from bench_e2e.trace import Tracer
from bench_e2e.workloads import RESULTS_DIR, WORKLOADS, Fixture, Result, Sizes

#: Timings that grow when the machine slows, and the rate that shrinks.
SLOWER_IS_MORE = (
    "query_p50_ms", "query_p95_ms", "cpu_ms_per_query",
    "build_s", "append_s", "reload_s",
)
SLOWER_IS_LESS = ("queries_per_s",)


def at_reference_speed(name: str, value: float, factor: float) -> float:
    if name in SLOWER_IS_MORE:
        return value / factor
    if name in SLOWER_IS_LESS:
        return value * factor
    return value


def _setup(workload, seed: int, sizes: Sizes, repeats: int, meter, tracer=None):
    """Set up ``repeats`` times in fresh directories, keep the last.
    Returns ``(fixture, state, samples)``: per repeat the set-up and the
    build seconds, as measured and at reference speed."""
    samples = []
    for attempt in range(repeats):
        fx = Fixture(seed, sizes, tracer, meter)
        try:
            meter.tick(sizes.pieces)
            began = time.perf_counter()
            state = workload.setup(fx)
            ended = time.perf_counter()
            meter.tick(sizes.pieces)
        except BaseException:
            fx.close()
            raise
        factor = meter.factor(began, ended)
        build = sum(fx.timings.get("build", ()))
        samples.append({
            "factor": factor,
            "setup_raw": ended - began, "setup": (ended - began) / factor,
            "build_raw": build, "build": build / factor,
        })
        if attempt < repeats - 1:
            fx.close()
    return fx, state, samples


def run_blocks(workload, fx, state, seconds: float, result: Result, *,
               blocks: int, tracer=None, traced=lambda turn: False) -> list:
    """Run the window as ``blocks`` consecutive blocks with calibration
    pieces between them, then check every block's recorded answers.
    Each returned window carries its metrics and its speed factor."""
    meter, sizes, windows, skip = fx.meter, fx.sizes, [], 0
    meter.tick(sizes.pieces)
    for turn in range(blocks):
        began = time.perf_counter()
        window = workload.window(
            fx, state, seconds / blocks,
            tracer=tracer if traced(turn) else None, skip=skip,
        )
        window.extra["span"] = (began, time.perf_counter())
        skip += window.extra.get("consumed", 0)
        windows.append(window)
        meter.tick(sizes.pieces)
    for window in windows:
        workload.check(fx, state, window, result)
        began, ended = window.extra["span"]
        # Neighbouring blocks' pieces count too: one block has too few.
        window.extra["factor"] = meter.factor(began, ended, margin=ended - began)
    return windows


def timing_metrics(windows, result: Result) -> None:
    """The quiet quartile over the blocks of each metric at reference
    speed; the same quartile as measured is kept beside it."""
    names = {name for w in windows for name in w.extra["metrics"]}
    for name in sorted(names):
        pairs = [
            (w.extra["metrics"][name], w.extra["factor"])
            for w in windows if name in w.extra["metrics"]
        ]
        higher = name in SLOWER_IS_LESS
        result.metrics[name] = quiet_quartile(
            [at_reference_speed(name, value, factor) for value, factor in pairs], higher
        )
        result.raw[name] = quiet_quartile([value for value, _ in pairs], higher)
    result.blocks = [
        {"factor": w.extra["factor"], "span": w.extra["span"], **w.extra["metrics"]}
        for w in windows if w.extra["metrics"]
    ]
    latencies = sorted(ms for w in windows for ms in w.latencies_ms())
    result.samples.update(query=len(latencies), blocks=len(windows))
    result.layer["driver.p99_ms"] = percentile(latencies, 0.99)
    result.layer["driver.max_ms"] = latencies[-1]
    result.layer["driver.speed_factor"] = statistics.median(
        w.extra["factor"] for w in windows
    )


def run_untraced(name: str, seed: int, seconds: float, sizes: Sizes,
                 import_s: float = 0.0) -> Result:
    workload, result = WORKLOADS[name](), Result(name)
    meter = calibrate.Meter(enabled=sizes.pieces > 0)
    fx, state, setups = _setup(workload, seed, sizes, sizes.setup_repeats, meter)
    try:
        windows = run_blocks(
            workload, fx, state, seconds, result,
            blocks=min(workload.blocks, sizes.max_blocks),
        )
        timing_metrics(windows, result)
        workload.score(fx, state, windows, result)
        # Process start -> first measured operation: imports once, plus
        # the quiet quartile of the repeated set-ups (the imports ran
        # right before the first set-up, so they share its speed factor).
        imports = import_s / setups[0]["factor"]
        result.metrics["setup_s"] = imports + quiet_quartile([s["setup"] for s in setups])
        result.raw["setup_s"] = import_s + quiet_quartile([s["setup_raw"] for s in setups])
        result.samples["setup"] = len(setups)
        if "build_s" not in result.metrics:
            result.metrics["build_s"] = quiet_quartile([s["build"] for s in setups])
            result.raw["build_s"] = quiet_quartile([s["build_raw"] for s in setups])
        pids = [os.getpid()] + [p for s in fx.servers.values() for p in s.pids()]
        result.metrics["peak_rss_mb"] = driver.peak_rss_mib(pids)
        result.metrics["failed_share"] = result.failed / max(result.attempted, 1)
    finally:
        fx.close()
    return result


def run_traced(name: str, seed: int, seconds: float, sizes: Sizes) -> Result:
    from bench_e2e import ledger

    workload, result = WORKLOADS[name](), Result(name)
    tracer, meter = Tracer(), calibrate.Meter(enabled=sizes.pieces > 0)
    fx, state, _ = _setup(workload, seed, sizes, 1, meter, tracer)
    try:
        # Untraced and traced blocks alternate on one set-up, so drift
        # of the machine lands on both sides of the difference.
        blocks = min(workload.blocks, sizes.max_blocks)
        blocks = max(2, blocks - blocks % 2)
        observer = ledger.ServerObserver.around(fx)
        windows = run_blocks(
            workload, fx, state, seconds, result,
            blocks=blocks, tracer=tracer, traced=lambda turn: turn % 2 == 1,
        )
        timing_metrics(windows, result)
        latencies = [ms for w in windows for ms in w.latencies_ms()]
        served = observer.finish(statistics.fmean(latencies)) if observer else {}
        rate = [0.0, 0.0]
        for turn, window in enumerate(windows):
            rate[turn % 2] += (
                window.extra["metrics"].get("queries_per_s", 0.0) * window.extra["factor"]
            )
        result.layer["trace.overhead_share"] = 1.0 - rate[1] / rate[0]
        if "append_s" in result.raw:
            result.layer["ingest.append_s"] = result.raw["append_s"]
        # The workload's own window outranks the ledger's stand-in
        # traffic for the numbers both can give.
        fx.meter = None   # the ledger's own builds need no calibration
        values, result.reasons = ledger.run(
            fx, tracer, workload, state, windows[-1], served
        )
        result.layer = {**values, **served, **result.layer}
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(RESULTS_DIR / f"trace-{name}.jsonl")
    finally:
        fx.close()
    return result
