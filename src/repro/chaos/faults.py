"""Deterministic, seeded fault injection for the serve/ingest stack.

A :class:`FaultPlan` is a pure description of *what goes wrong when*:
a set of :class:`FaultSpec` windows (each naming a hook point, an
activation window inside the scenario, a per-call firing probability,
an injected delay, and whether the fault raises) plus a schedule of
:class:`OperatorEvent` actions (mid-traffic hot reloads and rollbacks)
the scenario runner executes through the normal ``reload`` op.

A :class:`FaultInjector` turns the plan into decisions at the **opt-in
hooks** wired through the stack::

    server.worker_kill      SummaryServer._evaluate — the execution
                            dies; every waiter on it gets a 503, like
                            a killed worker
    server.backend          SummaryServer._evaluate — slow or
                            erroring backend calls
    server.drop_connection  SummaryServer._serve_request — the server
                            closes the client connection unanswered
    client.drop_connection  ServeClient.call — the client's own
                            connection drops mid-request (flaky network)
    watcher.poll            StoreWatcher._latest_version — manifest
                            polls fail transiently
    ingest.append           IngestPipeline.append — the append fails
                            before any state mutates (safely retryable)

Every component takes an optional ``chaos=`` injector and consults it
only when present: without one, the hooks cost a single ``is None``
check and nothing else.

Determinism: each hook point draws from its own
``random.Random(f"chaos:{seed}:{hook}")`` stream, so the k-th decision
at a hook is a pure function of the seed — replaying a scenario with
the same seed replays the same fault schedule (window placement is
seeded too, see :meth:`FaultPlan.build`).  Wall-clock interleaving
across threads still varies run to run; the *decision streams* do not.

Raised faults are :class:`~repro.errors.InjectedFault` — a dedicated
error class so callers (and the serve layer's 503 mapping) can never
confuse an injected fault with a real bug.
"""

from __future__ import annotations

import asyncio
import math
import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ChaosError, InjectedFault

#: Every hook point the serve/ingest layers consult (module docstring
#: has the wiring map).
HOOKS = (
    "server.worker_kill",
    "server.backend",
    "server.drop_connection",
    "client.drop_connection",
    "cluster.worker_kill",
    "watcher.poll",
    "ingest.append",
)

#: User-facing fault names (CLI ``--faults``) → what they inject.
FAULT_NAMES = (
    "worker-kill",
    "slow-backend",
    "error-backend",
    "drop-connection",
    "client-drop",
    "cluster-kill",
    "watcher",
    "reload",
    "rollback",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a hook point, an activation window, and an effect."""

    hook: str
    #: Per-hook-call firing probability while the window is active.
    probability: float = 1.0
    #: Injected sleep in seconds (slow faults); applied before ``error``.
    delay_s: float = 0.0
    #: Raise :class:`InjectedFault` when firing.
    error: bool = False
    #: Activation window, in seconds since :meth:`FaultInjector.start`.
    start_s: float = 0.0
    stop_s: float = math.inf

    def __post_init__(self):
        if self.hook not in HOOKS:
            raise ChaosError(
                f"unknown chaos hook {self.hook!r}; choose from {HOOKS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ChaosError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise ChaosError(f"fault delay_s must be >= 0, got {self.delay_s}")
        if self.stop_s <= self.start_s:
            raise ChaosError(
                f"fault window [{self.start_s}, {self.stop_s}) is empty"
            )

    def active_at(self, elapsed_s: float) -> bool:
        return self.start_s <= elapsed_s < self.stop_s


@dataclass(frozen=True)
class OperatorEvent:
    """One scheduled operator action the scenario runner executes."""

    at_s: float
    action: str  # "reload" (to latest) or "rollback" (to version - 1)

    def __post_init__(self):
        if self.action not in ("reload", "rollback"):
            raise ChaosError(
                f"operator action must be 'reload' or 'rollback', "
                f"got {self.action!r}"
            )
        if self.at_s < 0:
            raise ChaosError(f"operator at_s must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong when: fault windows + operator events, seeded."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    operations: tuple[OperatorEvent, ...] = ()

    def for_hook(self, hook: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.hook == hook)

    def max_window_s(self, hook: str) -> float:
        """Longest contiguous activation window on ``hook`` (0 if none).

        The scenario's staleness bound budgets for the longest
        ``watcher.poll`` outage this way.
        """
        return max(
            (spec.stop_s - spec.start_s for spec in self.for_hook(hook)),
            default=0.0,
        )

    @property
    def fault_kinds(self) -> tuple[str, ...]:
        return tuple(sorted({spec.hook for spec in self.specs}))

    @classmethod
    def quiet(cls, seed: int = 0) -> "FaultPlan":
        """No faults, no operator events — the no-chaos control plan."""
        return cls(seed=seed)

    @classmethod
    def build(
        cls,
        seed: int,
        duration_s: float,
        faults: tuple[str, ...] = ("all",),
    ) -> "FaultPlan":
        """Derive a plan for a ``duration_s`` scenario from the seed.

        ``faults`` selects by user-facing name (:data:`FAULT_NAMES`);
        ``("all",)`` enables everything, ``("none",)`` / ``()`` builds
        the quiet plan.  Window placement, window lengths, and operator
        times all come from ``random.Random(f"fault-plan:{seed}")``, so
        the same ``(seed, duration_s, faults)`` always yields the same
        plan — the replayability half of the soak acceptance criterion.
        """
        if duration_s <= 0:
            raise ChaosError(f"duration_s must be > 0, got {duration_s}")
        names = tuple(faults)
        if names in ((), ("none",)):
            return cls.quiet(seed)
        if "all" in names:
            names = FAULT_NAMES
        unknown = sorted(set(names) - set(FAULT_NAMES))
        if unknown:
            raise ChaosError(
                f"unknown fault name(s) {unknown}; choose from "
                f"{', '.join(FAULT_NAMES)} (or 'all' / 'none')"
            )
        rng = random.Random(f"fault-plan:{seed}")
        # Faults only fire in the middle of the scenario: the first 10%
        # warms up cleanly, the last 15% drains cleanly so every
        # injected failure has time to be retried to success.
        lo, hi = 0.10 * duration_s, 0.85 * duration_s
        windows_per_fault = max(1, round(duration_s / 20.0))

        def windows(max_len_s: float):
            for _ in range(windows_per_fault):
                length = rng.uniform(0.4, 1.0) * max_len_s
                start = rng.uniform(lo, max(hi - length, lo))
                yield start, start + length

        specs: list[FaultSpec] = []

        def add(hook, *, probability, delay_s=0.0, error=False, max_len_s=1.5):
            for start, stop in windows(max_len_s):
                specs.append(
                    FaultSpec(
                        hook,
                        probability=probability,
                        delay_s=delay_s,
                        error=error,
                        start_s=start,
                        stop_s=stop,
                    )
                )

        if "worker-kill" in names:
            add("server.worker_kill", probability=0.25, error=True)
        if "slow-backend" in names:
            add(
                "server.backend",
                probability=1.0,
                delay_s=rng.uniform(0.02, 0.05),
            )
        if "error-backend" in names:
            add("server.backend", probability=0.35, error=True)
        if "drop-connection" in names:
            add("server.drop_connection", probability=0.15)
        if "client-drop" in names:
            add("client.drop_connection", probability=0.10)
        if "cluster-kill" in names:
            # The coordinator consults this per execution round and
            # kills one pool worker when it fires; low probability so a
            # window costs a handful of kills, not a massacre — the
            # respawn path needs time to prove the pool heals.
            add("cluster.worker_kill", probability=0.02, max_len_s=1.0)
        if "watcher" in names:
            # Every poll in the window fails; window length bounds the
            # watcher outage the staleness invariant must budget for.
            add("watcher.poll", probability=1.0, error=True, max_len_s=1.0)
        if "error-backend" in names or "worker-kill" in names:
            # Transient ingest failures ride with the backend-failure
            # faults: the hook fires before any pipeline state mutates,
            # so the ingester retries the same batch cleanly.
            add("ingest.append", probability=0.3, error=True, max_len_s=1.0)

        operations: list[OperatorEvent] = []
        events_per_kind = max(1, round(duration_s / 25.0))
        if "reload" in names:
            for _ in range(events_per_kind):
                operations.append(OperatorEvent(rng.uniform(lo, hi), "reload"))
        if "rollback" in names:
            for _ in range(events_per_kind):
                operations.append(
                    OperatorEvent(rng.uniform(lo, hi), "rollback")
                )
        operations.sort(key=lambda event: event.at_s)
        return cls(seed=seed, specs=tuple(specs), operations=tuple(operations))

    def describe(self) -> str:
        kinds = ", ".join(self.fault_kinds) or "none"
        return (
            f"FaultPlan(seed={self.seed}, {len(self.specs)} fault window(s) "
            f"on [{kinds}], {len(self.operations)} operator event(s))"
        )


class FaultInjector:
    """Turns a :class:`FaultPlan` into thread-safe, seeded decisions.

    Components call :meth:`decide` (pure decision, safe anywhere),
    :meth:`act` (decision + injected sleep / raise: threads and
    synchronous code — the watcher, ingest) or :meth:`act_async` (the
    same with an awaited delay: the event loop, where the server
    evaluates).  Before :meth:`start` — and after :meth:`disable` —
    every decision is "no fault", so a scenario can warm up and drain
    cleanly around its chaos phase.
    """

    def __init__(self, plan: FaultPlan, *, clock=time.monotonic):
        self.plan = plan
        self._clock = clock
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._rngs = {
            hook: random.Random(f"chaos:{plan.seed}:{hook}") for hook in HOOKS
        }
        # guarded-by: _lock
        self._calls = {hook: 0 for hook in HOOKS}
        # guarded-by: _lock
        self._injected = {hook: 0 for hook in HOOKS}
        # guarded-by: _lock
        self._events: list[dict] = []
        self._t0: float | None = None
        self._enabled = True
        # Optional mirror into a server's MetricsRegistry (see
        # :meth:`bind_metrics`); the dict counters above stay the
        # source of truth for scenario reports.
        self._metric_calls = None
        self._metric_injected = None

    def bind_metrics(self, registry) -> None:
        """Mirror decisions into a :class:`~repro.obs.MetricsRegistry`,
        so injected chaos shows up on the same Prometheus scrape as the
        latency and errors it causes."""
        self._metric_calls = registry.counter(
            "repro_chaos_calls_total", "Chaos-hook decisions taken, by hook.",
            ("hook",),
        )
        self._metric_injected = registry.counter(
            "repro_chaos_injections_total",
            "Faults actually injected, by hook and fault shape.",
            ("hook", "fault"),
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Arm the injector; fault windows are relative to this instant."""
        self._t0 = self._clock()
        return self

    def disable(self) -> None:
        """Stop injecting (drain phase); decisions become "no fault"."""
        self._enabled = False

    @property
    def elapsed_s(self) -> float:
        return 0.0 if self._t0 is None else self._clock() - self._t0

    # -- decisions ---------------------------------------------------------
    def decide(self, hook: str) -> FaultSpec | None:
        """The k-th seeded decision at ``hook``; None = no fault.

        Never blocks and never raises: safe to call from async code.
        """
        if hook not in HOOKS:
            raise ChaosError(
                f"unknown chaos hook {hook!r}; choose from {HOOKS}"
            )
        if self._t0 is None or not self._enabled:
            return None
        now = self.elapsed_s
        with self._lock:
            self._calls[hook] += 1
            if self._metric_calls is not None:
                self._metric_calls.labels(hook=hook).inc()
            rng = self._rngs[hook]
            for spec in self.plan.for_hook(hook):
                if not spec.active_at(now):
                    continue
                if rng.random() >= spec.probability:
                    continue
                self._injected[hook] += 1
                if self._metric_injected is not None:
                    self._metric_injected.labels(
                        hook=hook,
                        fault="error" if spec.error else "delay",
                    ).inc()
                self._events.append(
                    {
                        "t_s": round(now, 4),
                        "kind": "inject",
                        "hook": hook,
                        "delay_s": spec.delay_s,
                        "error": spec.error,
                    }
                )
                return spec
        return None

    def act(self, hook: str) -> None:
        """Decide, then *apply* the fault: sleep ``delay_s`` and/or
        raise :class:`InjectedFault`.  Blocking — executor threads and
        synchronous code only; the event loop uses :meth:`act_async`."""
        spec = self.decide(hook)
        if spec is None:
            return
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        if spec.error:
            raise InjectedFault(hook)

    async def act_async(self, hook: str) -> None:
        """:meth:`act` for the event loop: the same decision and raise,
        the delay awaited with ``asyncio.sleep`` so a slow fault stalls
        only the request it fires on, never every connection."""
        spec = self.decide(hook)
        if spec is None:
            return
        if spec.delay_s > 0:
            await asyncio.sleep(spec.delay_s)
        if spec.error:
            raise InjectedFault(hook)

    # -- introspection -----------------------------------------------------
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.plan.seed,
                "enabled": self._enabled,
                "calls": dict(self._calls),
                "injected": dict(self._injected),
                "total_injected": sum(self._injected.values()),
            }

    def __repr__(self):
        injected = sum(self._injected.values())
        return (
            f"FaultInjector({self.plan.describe()}, "
            f"injected={injected})"
        )


__all__ = [
    "FAULT_NAMES",
    "HOOKS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "OperatorEvent",
]
