"""Chaos soak acceptance: sustained fault-injected multi-tenant traffic.

The serving stack's resilience claim, as a gate: a seeded all-fault
soak — N reader tenants, one streaming ingester publishing
``IngestPipeline`` micro-batches, scheduled operator reloads and
rollbacks, and a :class:`~repro.chaos.FaultInjector` attacking every
layer (killed workers, slow/erroring backends, dropped connections on
both sides, failing watcher polls, transient ingest failures) —
completes with

* **zero dropped requests** (every request answered, or cleanly
  retried via Retry-After / reconnect to success),
* **bounded staleness** (each publish served within the derived bound),
* **monotone lineage** (served versions only go back at an injected
  rollback; the publish chain is unbroken),
* **error drift ratio <= 1.2x** the no-chaos replay of the identical
  seeded batch sequence — chaos may slow the system, not corrupt it.

The run is replayable from its seed: the fault plan, batch contents,
and reader query choices are pure functions of ``SEED``.  Results land
in ``BENCH_soak.json`` via the shared emitter; the checked-in baseline
(``benchmarks/baselines/BENCH_soak.json``) lets the perf-regression
gate catch drift-ratio growth across PRs.  Scale via ``REPRO_SCALE``:
the 60 s acceptance run at ``small`` (CI), 120 s otherwise.
"""

from benchmarks._emit import BenchReport
from repro.chaos import FaultPlan, SoakConfig, check_invariants, run_soak
from repro.experiments.configs import active_scale

REPORT = BenchReport("soak")

#: The acceptance seed: CI failures replay locally with
#: ``repro soak --duration 60 --seed 7 --faults all``.
SEED = 7


def _duration_s() -> float:
    return 60.0 if active_scale().name == "small" else 120.0


def test_soak_acceptance():
    """The 60 s all-fault soak: invariants hold, metrics are gated."""
    duration = _duration_s()
    config = SoakConfig(
        duration_s=duration, seed=SEED, readers=4, faults=("all",)
    )
    result = run_soak(config)
    report = check_invariants(result)
    print("\n" + report.describe())

    metrics = dict(result.to_metrics())
    metrics["staleness_bound_s"] = round(result.staleness_bound_s, 3)
    REPORT.record(
        metrics,
        thresholds=[
            # The acceptance criteria, enforced per run (the baseline
            # comparison additionally caps error_drift_ratio growth).
            ("dropped_requests", "<=", 0),
            ("error_drift_ratio", "<=", 1.2),
            ("publishes", ">=", 3),
            ("faults_injected", ">=", 1),
        ],
    )
    # Replayability: the executed fault schedule is derivable from the
    # seed alone — a failing run reproduces without the artifacts.
    assert result.plan == FaultPlan.build(SEED, duration, ("all",))
    assert result.max_staleness_s() <= result.staleness_bound_s
    report.raise_if_failed()
