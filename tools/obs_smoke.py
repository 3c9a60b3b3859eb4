"""CI obs-smoke: the observability layer, end to end, in one process.

Boots a tiny server, drives 50 concurrent requests through the real
client, then checks the claims docs/observability.md makes:

1. the ``metrics`` op's Prometheus text round-trips through
   :func:`repro.obs.parse_prometheus` (a strict, hand-rolled parser —
   malformed exposition fails loudly);
2. every metric family the server declared at construction shows up in
   the scrape (a registered-but-never-rendered family is how a
   dashboard goes silently blank);
3. request traces reached the ring and carry the serving-pipeline
   spans;
4. the slow-query log (armed at threshold 0 so every request is
   "slow") recorded entries to its JSONL file with trace + explain
   evidence.

The slow-query log lands in ``obs_smoke_slowlog.jsonl`` either way;
the CI job uploads it as an artifact when this script fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SLOWLOG_PATH = Path("obs_smoke_slowlog.jsonl")
REQUESTS = 50


def main() -> int:
    from repro.api import SummaryBuilder
    from repro.data.domain import Domain, integer_domain
    from repro.data.relation import Relation
    from repro.data.schema import Schema
    from repro.obs import parse_prometheus
    from repro.serve import (
        ServeClient,
        ServeConfig,
        ServerThread,
        SummaryServer,
        run_load,
    )

    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(11)
    relation = Relation(
        schema,
        [rng.choice(3, size=400, p=[0.5, 0.3, 0.2]), rng.integers(0, 4, 400)],
    )
    summary = (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(40)
        .name("obs-smoke")
        .fit()
    )
    workload = [
        "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2",
        "SELECT COUNT(*) FROM R GROUP BY state",
        "SELECT SUM(hour) FROM R WHERE state = 'NY'",
        "SELECT AVG(hour) FROM R WHERE state = 'WA'",
    ]

    SLOWLOG_PATH.unlink(missing_ok=True)
    server = SummaryServer(
        summary,
        config=ServeConfig(
            slow_query_ms=0.0,  # every request records: exercises the log
            slow_query_log=str(SLOWLOG_PATH),
        ),
    )
    declared = set(server.metrics.names())
    with ServerThread(server) as running:
        report = run_load(
            running.host,
            running.port,
            workload,
            clients=5,
            requests_per_client=REQUESTS // 5,
        )
        with ServeClient(port=running.port) as client:
            view = client.server_metrics(include_traces=True)

    failures: list[str] = []
    if report.errors:
        failures.append(f"{report.errors} request errors during load")
    if report.requests != REQUESTS:
        failures.append(f"expected {REQUESTS} requests, got {report.requests}")

    # 1. the scrape parses (strict round-trip)
    parsed = parse_prometheus(view["prometheus"])
    families = set(parsed["types"])

    # 2. every declared family made it into the exposition
    missing = sorted(declared - families)
    if missing:
        failures.append(f"declared metrics absent from scrape: {missing}")
    served = [
        sample
        for (name, _), sample in parsed["samples"].items()
        if name == "repro_requests_total"
    ]
    if sum(served) < REQUESTS:
        failures.append(
            f"repro_requests_total {sum(served)} < {REQUESTS} driven"
        )

    # 3. traces reached the ring with pipeline spans
    traces = view.get("traces", [])
    if not traces:
        failures.append("trace ring is empty after 50 requests")
    else:
        span_names = {s["name"] for t in traces for s in t["spans"]}
        for wanted in ("parse", "canonicalize", "route", "cache_lookup"):
            if wanted not in span_names:
                failures.append(f"no {wanted!r} span in any recorded trace")

    # 4. the slow-query log wrote JSONL entries with evidence attached
    if not SLOWLOG_PATH.exists():
        failures.append(f"slow-query log {SLOWLOG_PATH} was not written")
    else:
        entries = [
            json.loads(line)
            for line in SLOWLOG_PATH.read_text().splitlines()
            if line.strip()
        ]
        if not entries:
            failures.append("slow-query log is empty at threshold 0")
        elif not any(e.get("trace") for e in entries):
            failures.append("no slow-query entry embeds its trace")

    print(
        f"obs-smoke: {report.requests} requests, {len(families)} metric "
        f"families scraped, {len(traces)} traces ringed, "
        f"slow-log entries: "
        f"{sum(1 for _ in SLOWLOG_PATH.open()) if SLOWLOG_PATH.exists() else 0}"
    )
    if failures:
        for failure in failures:
            print(f"obs-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("obs-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
