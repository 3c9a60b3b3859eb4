"""Render live server tables from ``metrics`` op snapshots.

Pure functions over the JSON-safe snapshot dict the ``metrics`` op
returns — ``repro top`` calls :func:`render_top` in a loop with the
previous snapshot to derive rates; tests call it with two canned
snapshots and assert on the text.
"""

from __future__ import annotations

from repro.obs.metrics import histogram_quantile, histogram_stats, sample_value

__all__ = ["render_top"]

#: The serving stages, in pipeline order (also the span names).
STAGES = (
    "queue",
    "parse",
    "canonicalize",
    "route",
    "cache_lookup",
    "coalesce_wait",
    "evaluate",
    "encode",
)


def _ops(snapshot: dict) -> list[str]:
    family = snapshot.get("repro_requests_total", {"samples": []})
    return sorted({s["labels"].get("op", "") for s in family["samples"]})


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}"


def render_top(
    snapshot: dict,
    previous: dict | None = None,
    interval_s: float | None = None,
) -> str:
    """One ``repro top`` screen: per-op table plus component gauges."""
    lines = []
    total = sample_value(snapshot, "repro_requests_total")
    errors = sample_value(snapshot, "repro_errors_total")
    header = f"requests {int(total)}  errors {int(errors)}"
    if previous is not None and interval_s and interval_s > 0:
        delta = total - sample_value(previous, "repro_requests_total")
        header += f"  qps {delta / interval_s:8.1f}"
    lines.append(header)
    lines.append("")
    lines.append(
        f"{'op':<12} {'count':>8} {'errors':>7} {'p50 ms':>9} {'p95 ms':>9}"
    )
    for op in _ops(snapshot):
        labels = {"op": op}
        count = sample_value(snapshot, "repro_requests_total", labels)
        op_errors = sample_value(snapshot, "repro_errors_total", labels)
        p50 = histogram_quantile(snapshot, "repro_request_seconds", 0.5, labels)
        p95 = histogram_quantile(snapshot, "repro_request_seconds", 0.95, labels)
        lines.append(
            f"{op:<12} {int(count):>8} {int(op_errors):>7} "
            f"{_fmt_ms(p50):>9} {_fmt_ms(p95):>9}"
        )
    lines.append("")
    lines.append(f"{'stage':<14} {'count':>8} {'p50 ms':>9} {'mean ms':>9}")
    for stage in STAGES:
        labels = {"stage": stage}
        total_s, count, _ = histogram_stats(
            snapshot, "repro_stage_seconds", labels
        )
        if not count:
            continue
        p50 = histogram_quantile(
            snapshot, "repro_stage_seconds", 0.5, labels
        )
        lines.append(
            f"{stage:<14} {int(count):>8} {_fmt_ms(p50):>9} "
            f"{_fmt_ms(total_s / count):>9}"
        )
    hits = sample_value(snapshot, "repro_cache_hits_total")
    misses = sample_value(snapshot, "repro_cache_misses_total")
    lookups = hits + misses
    hit_rate = hits / lookups if lookups else 0.0
    lines.append("")
    lines.append(
        f"cache hit rate {hit_rate:6.1%}  "
        f"size {int(sample_value(snapshot, 'repro_cache_size'))}  "
        f"admission depth {int(sample_value(snapshot, 'repro_admission_depth'))}"
        f"  coalesced {int(sample_value(snapshot, 'repro_coalescer_coalesced_total'))}"
        f"  slow {int(sample_value(snapshot, 'repro_slow_queries_total'))}"
    )
    fanout_s, evaluations, _ = histogram_stats(snapshot, "repro_cluster_fanout_seconds")
    if evaluations:
        # A --workers frontend: what an evaluation's fan-out costs, what the
        # workers spent computing, and the rest — routing and wire.
        busy_s, calls, _ = histogram_stats(
            snapshot, "repro_cluster_worker_busy_seconds"
        )
        fanout, busy = fanout_s / evaluations, busy_s / calls if calls else 0.0
        lines.append(
            f"cluster workers {int(sample_value(snapshot, 'repro_cluster_workers'))}"
            f"  fan-out mean ms {fanout * 1e3:.3f}"
            f"  worker busy {busy * 1e3:.3f}"
            f"  routing+wire {max(fanout - busy, 0.0) * 1e3:.3f}"
        )
    return "\n".join(lines)
