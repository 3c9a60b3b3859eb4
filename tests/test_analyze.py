"""Tests for the repro-analyze framework, rules, and lock-order watchdog.

Each rule gets a must-flag / must-pass fixture pair run through
``analyze_source`` (the framework's single-rule hook), plus tests for
the suppression comments, the JSON reporter schema, the CLI exit
codes, and — the gate this suite exists to keep honest — a check that
``src/`` itself analyzes clean.
"""

from __future__ import annotations

import json
import sys
import textwrap
import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import analyze_paths, default_rules
from tools.analyze.cli import main as analyze_main
from tools.analyze.core import Module, analyze_source
from tools.analyze.lockorder import (
    LockOrderViolation,
    LockOrderWatchdog,
    TrackedLock,
)

SERVE = "src/repro/serve/handlers.py"
INGEST = "src/repro/ingest/pipeline.py"
CORE = "src/repro/core/solver.py"


def flags(source: str, rule: str, relpath: str = CORE):
    return analyze_source(textwrap.dedent(source), relpath, rule)


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------

class TestFramework:
    def test_six_rules_registered(self):
        rules = default_rules()
        assert set(rules) >= {
            "async-blocking",
            "lock-discipline",
            "deprecated-api",
            "executor-pickle-safety",
            "error-hierarchy",
            "bare-thread-start",
            "metrics-discipline",
        }
        assert len(rules) >= 7
        for rule in rules.values():
            assert rule.summary, f"{rule.name} has no summary"

    def test_scope_matching(self):
        rules = default_rules()
        assert rules["async-blocking"].applies_to("src/repro/serve/server.py")
        assert not rules["async-blocking"].applies_to("src/repro/core/solver.py")
        assert rules["deprecated-api"].applies_to("src/repro/ingest/pipeline.py")
        # The facade and planner are the blessed construction sites.
        assert not rules["deprecated-api"].applies_to("src/repro/api/explorer.py")
        assert not rules["deprecated-api"].applies_to("src/repro/plan/router.py")

    def test_unknown_rule_name_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_paths([tmp_path], root=tmp_path, select=["no-such-rule"])

    def test_qualname_resolution(self):
        import ast

        node = ast.parse("self._store.load(1)").body[0].value
        assert Module.qualname(node.func) == "self._store.load"
        node = ast.parse("open(p).read()").body[0].value
        assert Module.qualname(node.func) == "().read"


class TestSuppression:
    SOURCE = """\
        import time

        async def handler():
            time.sleep(1)  # repro: ignore[async-blocking]
    """

    def test_targeted_ignore_suppresses(self):
        assert flags(self.SOURCE, "async-blocking", SERVE) == []

    def test_bare_ignore_suppresses_everything(self):
        source = self.SOURCE.replace("ignore[async-blocking]", "ignore")
        assert flags(source, "async-blocking", SERVE) == []

    def test_ignore_for_other_rule_does_not_suppress(self):
        source = self.SOURCE.replace("[async-blocking]", "[error-hierarchy]")
        found = flags(source, "async-blocking", SERVE)
        assert len(found) == 1

    def test_suppressed_counted_in_report(self, tmp_path):
        path = tmp_path / "src" / "repro" / "serve" / "h.py"
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(self.SOURCE))
        report = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert report.ok
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# Rules: must-flag / must-pass pairs
# ----------------------------------------------------------------------

class TestAsyncBlocking:
    def test_flags_sleep_in_coroutine(self):
        found = flags(
            """\
            import time

            async def handler(self):
                time.sleep(0.1)
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_flags_store_load_in_coroutine(self):
        found = flags(
            """\
            async def handler(self):
                return self._store.load(version)
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1
        assert "store" in found[0].message

    def test_flags_pathlib_io_in_coroutine(self):
        found = flags(
            """\
            async def handler(path):
                return path.read_text()
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1

    def test_passes_run_in_executor_wrapping(self):
        found = flags(
            """\
            async def handler(self, loop, path):
                await asyncio.sleep(0.1)
                return await loop.run_in_executor(
                    None, lambda: path.read_text()
                )
            """,
            "async-blocking",
            SERVE,
        )
        assert found == []

    def test_flags_socket_sendall_in_coroutine(self):
        found = flags(
            """\
            async def push(self, frame):
                self._sock.sendall(frame)
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1
        assert "blocking socket call" in found[0].message

    def test_flags_socket_recv_in_coroutine(self):
        # `recv` is unambiguous socket API: flagged on any receiver.
        found = flags(
            """\
            async def pull(peer):
                return peer.recv(4096)
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1

    def test_flags_generic_socket_method_on_named_receiver(self):
        found = flags(
            """\
            async def dial(self, address):
                self._conn.connect(address)
            """,
            "async-blocking",
            SERVE,
        )
        assert len(found) == 1

    def test_passes_generic_send_on_non_socket_receiver(self):
        # Generators and channels have `send` too; only receivers that
        # name a socket/connection flag.
        found = flags(
            """\
            async def resume(self, generator, value):
                generator.send(value)
            """,
            "async-blocking",
            SERVE,
        )
        assert found == []

    def test_passes_asyncio_stream_api(self):
        found = flags(
            """\
            async def relay(self, reader, writer):
                header = await reader.readexactly(16)
                writer.write(header)
                await writer.drain()
            """,
            "async-blocking",
            SERVE,
        )
        assert found == []

    def test_passes_blocking_in_sync_function(self):
        found = flags(
            """\
            import time

            def warm(self):
                time.sleep(0.1)
            """,
            "async-blocking",
            SERVE,
        )
        assert found == []

    def test_passes_nested_def_inside_coroutine(self):
        # Nested defs run later, typically on executor threads.
        found = flags(
            """\
            async def handler(self, loop, path):
                def work():
                    return path.read_text()

                return await loop.run_in_executor(None, work)
            """,
            "async-blocking",
            SERVE,
        )
        assert found == []


class TestLockDiscipline:
    def test_flags_registry_field_outside_lock(self):
        found = flags(
            """\
            class TTLCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def peek(self, key):
                    return self._data.get(key)
            """,
            "lock-discipline",
            "src/repro/serve/cache.py",
        )
        assert len(found) == 1
        assert "self._data" in found[0].message

    def test_passes_registry_field_under_lock(self):
        found = flags(
            """\
            class TTLCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def peek(self, key):
                    with self._lock:
                        return self._data.get(key)
            """,
            "lock-discipline",
            "src/repro/serve/cache.py",
        )
        assert found == []

    def test_construction_exempt(self):
        found = flags(
            """\
            class TTLCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
                    self.hits = 0
            """,
            "lock-discipline",
            "src/repro/serve/cache.py",
        )
        assert found == []

    def test_guarded_by_annotation_creates_guard(self):
        source = """\
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    self._count += 1
            """
        found = flags(source, "lock-discipline", CORE)
        assert len(found) == 1
        assert "self._count" in found[0].message

    def test_holds_annotation_exempts_method(self):
        source = """\
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):  # repro: holds[_lock]
                    self._count += 1
            """
        assert flags(source, "lock-discipline", CORE) == []

    def test_holds_for_wrong_lock_does_not_exempt(self):
        source = """\
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):  # repro: holds[_other]
                    self._count += 1
            """
        assert len(flags(source, "lock-discipline", CORE)) == 1


class TestDeprecatedApi:
    def test_flags_direct_engine_construction(self):
        found = flags(
            """\
            def attach(summary):
                return SummaryBackend(summary)
            """,
            "deprecated-api",
            INGEST,
        )
        assert len(found) == 1

    def test_passes_in_defining_module(self):
        found = flags(
            """\
            class SummaryBackend:
                pass

            def default():
                return SummaryBackend()
            """,
            "deprecated-api",
            CORE,
        )
        assert found == []

    def test_passes_in_api_layer(self):
        found = flags(
            """\
            def attach(summary):
                return SummaryBackend(summary)
            """,
            "deprecated-api",
            "src/repro/api/explorer.py",
        )
        assert found == []


class TestExecutorPickleSafety:
    def test_flags_lambda_submission(self):
        found = flags(
            """\
            from concurrent.futures import ProcessPoolExecutor

            def fit(shards):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda s: s.fit()) for s in shards]
            """,
            "executor-pickle-safety",
        )
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_flags_nested_function_submission(self):
        found = flags(
            """\
            from concurrent.futures import ProcessPoolExecutor

            def fit(shards, options):
                def work(shard):
                    return shard.fit(options)

                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, shards))
            """,
            "executor-pickle-safety",
        )
        assert len(found) == 1
        assert "work" in found[0].message

    def test_flags_bound_method_submission(self):
        found = flags(
            """\
            from concurrent.futures import ProcessPoolExecutor

            def fit(self, shards):
                pool = ProcessPoolExecutor()
                return list(pool.map(self.fit_one, shards))
            """,
            "executor-pickle-safety",
        )
        assert len(found) == 1
        assert "bound method" in found[0].message

    def test_passes_module_level_worker_and_payloads(self):
        found = flags(
            """\
            from concurrent.futures import ProcessPoolExecutor

            def _fit_shard(payload):
                return payload

            def fit(payloads):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(_fit_shard, payloads))
            """,
            "executor-pickle-safety",
        )
        assert found == []

    def test_flags_nested_function_process_target(self):
        found = flags(
            """\
            import multiprocessing

            def start_worker(spec):
                def run():
                    return spec.serve()

                ctx = multiprocessing.get_context("spawn")
                process = ctx.Process(target=run, args=(spec,))
                process.start()
                return process
            """,
            "executor-pickle-safety",
            SERVE,
        )
        assert len(found) == 1
        assert "run" in found[0].message and "Process" in found[0].message

    def test_flags_bound_method_process_target(self):
        found = flags(
            """\
            import multiprocessing

            class Pool:
                def spawn(self):
                    process = multiprocessing.Process(target=self.serve)
                    process.start()
                    return process
            """,
            "executor-pickle-safety",
            SERVE,
        )
        assert len(found) == 1
        assert "bound method" in found[0].message

    def test_flags_lambda_in_process_args(self):
        found = flags(
            """\
            import multiprocessing

            def _worker_main(callback):
                callback()

            def start_worker():
                process = multiprocessing.Process(
                    target=_worker_main, args=(lambda: None,)
                )
                process.start()
            """,
            "executor-pickle-safety",
            SERVE,
        )
        assert len(found) == 1
        assert "args" in found[0].message

    def test_passes_module_level_process_target(self):
        found = flags(
            """\
            import multiprocessing

            def _worker_main(spec, queue):
                queue.put(spec)

            def start_worker(spec, queue):
                ctx = multiprocessing.get_context("spawn")
                process = ctx.Process(
                    target=_worker_main, args=(spec, queue), daemon=True
                )
                process.start()
                return process
            """,
            "executor-pickle-safety",
            SERVE,
        )
        assert found == []

    def test_targetless_process_call_unaffected(self):
        # psutil.Process(pid)-style constructors take no target=.
        found = flags(
            """\
            import psutil

            def memory(pid):
                return psutil.Process(pid).memory_info().rss
            """,
            "executor-pickle-safety",
            SERVE,
        )
        assert found == []

    def test_thread_pools_unaffected(self):
        # ThreadPoolExecutor shares memory; closures are fine there.
        found = flags(
            """\
            from concurrent.futures import ThreadPoolExecutor

            def fit(shards):
                with ThreadPoolExecutor() as pool:
                    return [pool.submit(lambda s=s: s.fit()) for s in shards]
            """,
            "executor-pickle-safety",
        )
        assert found == []


class TestErrorHierarchy:
    def test_flags_disallowed_builtin_raise(self):
        found = flags(
            """\
            def set_window(window):
                if window <= 0:
                    raise ValueError("window must be positive")
            """,
            "error-hierarchy",
        )
        assert len(found) == 1
        assert "ReproError" in found[0].message

    def test_passes_repro_errors(self):
        found = flags(
            """\
            from repro.errors import QueryError

            def canonicalize(query):
                raise QueryError("contradictory predicate")
            """,
            "error-hierarchy",
        )
        assert found == []

    def test_passes_protocol_builtins(self):
        found = flags(
            """\
            def domain(self, name):
                if name not in self._domains:
                    raise KeyError(name)
                raise NotImplementedError
            """,
            "error-hierarchy",
        )
        assert found == []

    def test_passes_bare_reraise(self):
        found = flags(
            """\
            def forward(error):
                raise
            """,
            "error-hierarchy",
        )
        assert found == []


class TestBareThreadStart:
    def test_flags_unbound_daemonless_thread(self):
        found = flags(
            """\
            import threading

            def start(target):
                threading.Thread(target=target).start()
            """,
            "bare-thread-start",
            SERVE,
        )
        assert len(found) == 1
        assert "daemonless" in found[0].message

    def test_passes_daemon_thread(self):
        found = flags(
            """\
            import threading

            def start(target):
                threading.Thread(target=target, daemon=True).start()
            """,
            "bare-thread-start",
            SERVE,
        )
        assert found == []

    def test_passes_joined_thread(self):
        found = flags(
            """\
            import threading

            class Worker:
                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def stop(self):
                    self._thread.join(timeout=10)
            """,
            "bare-thread-start",
            SERVE,
        )
        assert found == []

    def test_flags_anonymous_lock(self):
        found = flags(
            """\
            import threading

            def locked():
                with threading.Lock():
                    pass
            """,
            "bare-thread-start",
            INGEST,
        )
        assert len(found) == 1
        assert "anonymous" in found[0].message

    def test_passes_bound_lock(self):
        found = flags(
            """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
            "bare-thread-start",
            INGEST,
        )
        assert found == []

    def test_out_of_scope_module_unchecked(self):
        found = flags(
            """\
            import threading

            def start(target):
                threading.Thread(target=target).start()
            """,
            "bare-thread-start",
            CORE,
        )
        assert found == []


class TestMetricsDiscipline:
    COUNTER = """\
        class Handler:
            def __init__(self):
                self.hits = 0

            def handle(self):
                self.hits += 1
    """

    def test_flags_public_bare_int_counter(self):
        found = flags(self.COUNTER, "metrics-discipline", SERVE)
        assert len(found) == 1
        assert "self.hits" in found[0].message
        assert "MetricsRegistry" in found[0].message

    def test_flags_decrement_too(self):
        source = self.COUNTER.replace("self.hits += 1", "self.hits -= 1")
        found = flags(source, "metrics-discipline", SERVE)
        assert len(found) == 1

    def test_passes_private_bookkeeping(self):
        source = self.COUNTER.replace("hits", "_next_id")
        assert flags(source, "metrics-discipline", SERVE) == []

    def test_passes_non_literal_seed(self):
        # fields seeded from an expression are state, not counters
        source = self.COUNTER.replace(
            "self.hits = 0", "self.hits = initial()"
        )
        assert flags(source, "metrics-discipline", SERVE) == []

    def test_passes_registry_backed_counter(self):
        found = flags(
            """\
            class Handler:
                def __init__(self, registry):
                    self._hits = registry.counter("repro_hits_total")

                def handle(self):
                    self._hits.inc()
            """,
            "metrics-discipline",
            SERVE,
        )
        assert found == []

    def test_construction_bumps_exempt(self):
        found = flags(
            """\
            class Handler:
                def __init__(self):
                    self.hits = 0
                    self.hits += 1
            """,
            "metrics-discipline",
            SERVE,
        )
        assert found == []

    def test_out_of_scope_module_unchecked(self):
        assert flags(self.COUNTER, "metrics-discipline", CORE) == []


# ----------------------------------------------------------------------
# Reporter + CLI
# ----------------------------------------------------------------------

def _violating_tree(tmp_path: Path) -> Path:
    path = tmp_path / "src" / "repro" / "serve" / "h.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "import time\n\n\nasync def handler():\n    time.sleep(1)\n"
    )
    return tmp_path


class TestReporting:
    def test_json_schema(self, tmp_path):
        root = _violating_tree(tmp_path)
        report = analyze_paths([root / "src"], root=root)
        document = report.to_json()
        assert document["schema_version"] == 1
        assert document["tool"] == "repro-analyze"
        assert document["ok"] is False
        assert document["files_scanned"] == 1
        assert document["suppressed"] == 0
        assert document["parse_errors"] == []
        [violation] = document["violations"]
        assert violation["rule"] == "async-blocking"
        assert violation["path"] == "src/repro/serve/h.py"
        assert violation["line"] == 5
        assert isinstance(violation["col"], int)
        assert "time.sleep" in violation["message"]
        by_rule = {row["name"]: row["violations"] for row in document["rules"]}
        assert by_rule["async-blocking"] == 1

    def test_parse_error_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert not report.ok
        assert len(report.parse_errors) == 1

    def test_cli_exit_codes(self, tmp_path, capsys):
        root = _violating_tree(tmp_path)
        src = str(root / "src")
        assert analyze_main([src, "--root", str(root)]) == 1
        # Narrowed to a rule that does not fire -> clean.
        assert (
            analyze_main(
                [src, "--root", str(root), "--select", "error-hierarchy"]
            )
            == 0
        )
        # Unknown rule names are usage errors, not silent no-ops.
        assert (
            analyze_main([src, "--root", str(root), "--select", "no-such"])
            == 2
        )
        capsys.readouterr()

    def test_cli_writes_json_artifact(self, tmp_path, capsys):
        root = _violating_tree(tmp_path)
        out = tmp_path / "analyze_report.json"
        code = analyze_main(
            [str(root / "src"), "--root", str(root), "--out", str(out)]
        )
        assert code == 1
        document = json.loads(out.read_text())
        assert document["tool"] == "repro-analyze"
        assert len(document["violations"]) == 1
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        output = capsys.readouterr().out
        for name in default_rules():
            assert name in output


# ----------------------------------------------------------------------
# The gate itself: the shipped source tree must analyze clean.
# ----------------------------------------------------------------------

def test_src_tree_is_clean():
    report = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.parse_errors == []
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.violations == [], f"src/ has violations:\n{rendered}"


# ----------------------------------------------------------------------
# Lock-order watchdog
# ----------------------------------------------------------------------

class TestLockOrderWatchdog:
    def _two_locks(self, watchdog):
        lock_a = watchdog.make_lock()
        lock_b = watchdog.make_lock()
        assert lock_a.site != lock_b.site
        return lock_a, lock_b

    def test_seeded_cycle_detected(self):
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        lock_a, lock_b = self._two_locks(watchdog)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        cycle = watchdog.cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {lock_a.site, lock_b.site} <= set(cycle)
        with pytest.raises(LockOrderViolation, match="conflicting orders"):
            watchdog.assert_no_cycles()

    def test_cycle_detected_across_threads(self):
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        lock_a, lock_b = self._two_locks(watchdog)

        def in_order(first, second):
            with first:
                with second:
                    pass

        thread = threading.Thread(target=in_order, args=(lock_a, lock_b))
        thread.start()
        thread.join()
        in_order(lock_b, lock_a)
        assert watchdog.cycle() is not None

    def test_consistent_order_passes(self):
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        lock_a, lock_b = self._two_locks(watchdog)
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert watchdog.cycle() is None
        watchdog.assert_no_cycles()
        stats = watchdog.stats()
        assert stats["locks"] == 2
        assert stats["edges"] == 1
        assert stats["acquisitions"] == 6

    def test_same_site_nesting_ignored(self):
        # Two sibling instances created at one site may nest either way.
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        locks = [watchdog.make_lock() for _ in range(2)]
        with locks[0]:
            with locks[1]:
                pass
        with locks[1]:
            with locks[0]:
                pass
        assert watchdog.cycle() is None

    def test_tracked_lock_passthrough(self):
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        lock = watchdog.make_lock()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        assert lock.locked()
        assert not lock.acquire(blocking=False)
        lock.release()
        assert not lock.locked()

    def test_install_patches_and_restores_threading(self):
        original_lock = threading.Lock
        original_rlock = threading.RLock
        watchdog = LockOrderWatchdog()
        with watchdog:
            tracked = threading.Lock()
            assert isinstance(tracked, TrackedLock)
            rtracked = threading.RLock()
            assert isinstance(rtracked, TrackedLock)
            with rtracked:
                with rtracked:  # reentrancy preserved
                    pass
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    def test_release_out_of_order_tolerated(self):
        watchdog = LockOrderWatchdog()
        watchdog._real_lock = threading.Lock
        lock_a, lock_b = self._two_locks(watchdog)
        lock_a.acquire()
        lock_b.acquire()
        lock_a.release()
        lock_b.release()
        assert watchdog.cycle() is None
        assert watchdog.stats()["acquisitions"] == 2
