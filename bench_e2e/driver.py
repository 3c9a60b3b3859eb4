"""The benchmark's own closed-loop driver and process bookkeeping.

Closed loop: every caller waits for its reply before sending the next
request — what an exploring analyst and a dashboard do.  Streams are
disjoint per connection, the clock starts at a barrier after every
connection has connected and pinged, and every attempted operation is
counted: one that raises, is refused after the client's retries, or
answers later than the paper's 1 s interactive ceiling is a failure
*and* misses the latency limit.

Servers are booted as a subprocess through the CLI at default flags, so
server CPU is separable from generator CPU (both read from ``/proc``)
and the benchmark survives refactors of ``serve/``.
"""

from __future__ import annotations

import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import ServeClient

#: The paper's interactive ceiling (Sec 1/5): an answer later than this
#: is not an answer the analyst waited for.
LATENCY_LIMIT_S = 1.0
BOOT_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"serving .* on ([\d.]+):(\d+) ")

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list: the value at rank
    ``ceil(q * N)`` (1-based)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces and parentheses; fields resume after the last ')'.
    return text[text.rindex(")") + 2:].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if pid in parents or pid == root:
            tree.append(pid)
            frontier += [child for child, parent in parents.items() if parent == pid]
    return tree


def cpu_seconds(pids) -> float:
    """User + system CPU consumed so far by the given live processes."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def peak_rss_mib(pids) -> float:
    """Sum of ``VmHWM`` over the given live processes."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            total_kib += int(match.group(1))
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Server subprocess
# ----------------------------------------------------------------------

class Server:
    """``python -m repro serve`` as a child process, default flags."""

    def __init__(self, store_dir, name: str, workers: int = 1, log_dir=None):
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store_dir), "--name", name, "--port", "0",
        ]
        if workers > 1:
            self.command += ["--workers", str(workers)]
        self.workers = workers
        self.log_path = Path(log_dir or store_dir) / f"serve-{time.monotonic_ns()}.log"
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.boot_s = 0.0

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        began = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                self.command, stdout=log, stderr=subprocess.STDOUT,
                env=env, start_new_session=True,
            )
        deadline = began + BOOT_TIMEOUT_S
        while True:
            match = _SERVING.search(self.log_path.read_text())
            if match:
                break
            if self.process.poll() is not None or time.perf_counter() > deadline:
                log_text = self.log_path.read_text()
                self.stop()
                raise RuntimeError(f"server did not come up:\n{log_text}")
            time.sleep(0.01)
        self.host, self.port = match.group(1), int(match.group(2))
        with self.client() as client:
            client.ping()
        self.boot_s = time.perf_counter() - began
        return self

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.host, self.port, **kwargs)

    def pids(self) -> list[int]:
        return tree_pids(self.process.pid) if self.process else []

    def stop(self) -> None:
        """Kill the server's process group (it leads its own session,
        cluster workers included) and wait until every member has
        ended.  Nothing it holds needs a graceful exit: the store is a
        temporary directory."""
        process, self.process = self.process, None
        if process is None:
            return
        members = tree_pids(process.pid)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in members) and time.monotonic() < deadline:
            time.sleep(0.005)


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One attempted operation."""

    index: int          # position in its stream's source list
    latency_s: float
    answer: object = None
    error: str | None = None
    started_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.latency_s <= LATENCY_LIMIT_S


@dataclass
class Window:
    """What one measured window observed."""

    ops: list = field(default_factory=list)
    seconds: float = 0.0
    cpu_s: float = 0.0
    #: Workload-specific observations made around the window (cache
    #: counters before/after, stream positions consumed, ...).
    extra: dict = field(default_factory=dict)

    def latencies_ms(self) -> list[float]:
        """Sorted caller-observed latencies; a failed operation counts
        at no less than the latency limit, so it cannot improve a
        percentile."""
        return sorted(
            (op.latency_s if op.ok else max(op.latency_s, LATENCY_LIMIT_S)) * 1e3
            for op in self.ops
        )


def timed_loop(call, items, seconds: float, *, cycle: bool, start_index=0,
               clock=time.perf_counter, barrier=None, span=None, stop=None) -> list[Op]:
    """Call ``call(item)`` over ``items`` one at a time until ``seconds``
    have passed, the ``stop`` event is set, or a non-cycling stream is
    exhausted."""
    ops: list[Op] = []
    count = len(items)
    position = 0
    if barrier is not None:
        barrier.wait()
    began = clock()
    deadline = began + seconds
    while cycle or position < count:
        index = position % count
        start = clock()
        if start >= deadline or (stop is not None and stop.is_set()):
            break
        try:
            answer, error = call(items[index]), None
        except Exception as exc:  # counted, never fatal to the run
            answer, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        ops.append(Op(start_index + index, end - start, answer, error, start - began))
        if span is not None:
            span(index, start, end)
        position += 1
    return ops


def serve_loop(server: Server, streams, seconds: float, *, cycle: bool,
               span=None) -> Window:
    """One connection and one thread per stream, closed loop each.

    ``streams`` is a list of ``(start_index, [sql, ...])``.  Refusals
    are retried on the server's hint (3 retries inside the latency
    limit); what is still refused is a failed operation.
    """
    barrier = threading.Barrier(len(streams) + 1)
    results: list[list[Op]] = [[] for _ in streams]
    failures: list[BaseException] = []

    def worker(slot: int, start_index: int, texts) -> None:
        try:
            with server.client(session=f"bench-{slot}", backoff_seed=slot) as client:
                client.ping()
                results[slot] = timed_loop(
                    lambda sql: client.query(
                        sql, retries=3, deadline_s=LATENCY_LIMIT_S
                    ),
                    texts, seconds, cycle=cycle, start_index=start_index,
                    barrier=barrier, span=span,
                )
        except BaseException as exc:  # surfaces after join
            failures.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(slot, start, texts), daemon=True)
        for slot, (start, texts) in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    pids = [os.getpid(), *server.pids()]
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    cpu_before, began = cpu_seconds(pids), time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    cpu = cpu_seconds(pids) - cpu_before
    if failures:
        raise failures[0]
    return Window(
        [op for ops in results for op in ops], elapsed, cpu,
        {"consumed": max(len(ops) for ops in results)},
    )
