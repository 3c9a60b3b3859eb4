"""The repro-specific rule set.

Each rule encodes one invariant the codebase actually relies on — see
``docs/analysis.md`` for the catalogue and the hazard each one guards
against.  Rules are pure AST walks over one :class:`~tools.analyze.core.Module`;
cross-module reasoning (e.g. "is this receiver *really* a SummaryStore")
is intentionally out of scope, so receivers are matched by name shape
and false positives are silenced with ``# repro: ignore[rule]`` plus a
reason.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from tools.analyze.core import Module, Rule, Violation, register

# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------

#: Call targets that block the calling thread outright.
_BLOCKING_CALLS = {
    "time.sleep",
    "open",
    "input",
    "socket.create_connection",
    "socket.socket",
    "fcntl.flock",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.waitpid",
    "shutil.copy",
    "shutil.copytree",
    "shutil.rmtree",
    "requests.get",
    "requests.post",
    "urllib.request.urlopen",
}

#: Method names that are file I/O on any receiver (pathlib idiom).
_BLOCKING_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "unlink",
    "mkdir",
    "rglob",
}

#: Socket method names that block on network I/O regardless of
#: receiver — ``sendall``/``recv``/``accept``/``makefile`` are socket
#: API and nothing else.  The binary wire protocol made raw-socket
#: code adjacent to the event loop (``serve/wire.py`` frames bytes the
#: sync ``ServeClient`` sends with exactly these calls); coroutines
#: must stay on the asyncio stream API (``reader.readexactly``,
#: ``writer.write``/``drain``) instead.
_SOCKET_METHODS = {
    "sendall",
    "recv",
    "recv_into",
    "recvfrom",
    "accept",
    "makefile",
}

#: Socket methods whose names are too generic to flag on any receiver
#: (``queue.Queue.get`` exists, generators have ``send``); these only
#: flag when the receiver names a socket or connection.
_SOCKET_METHODS_NAMED_RECEIVER = {
    "send",
    "sendto",
    "connect",
    "settimeout",
}

#: Methods that hit the store's manifest / model files; blocking when
#: the receiver names a store.  ``SummaryStore.load`` on a 100-shard
#: version reads 200 files — milliseconds to seconds of stalled loop.
_STORE_METHODS = {
    "load",
    "load_with_record",
    "load_model",
    "latest_version",
    "save",
    "record",
    "list",
    "versions",
    "delete",
}


@register
class AsyncBlockingRule(Rule):
    """Blocking calls inside ``async def`` bodies in the serve layer.

    The serve event loop multiplexes every connected client; one
    blocking call inside a coroutine stalls *all* of them.  Blocking
    work belongs behind ``loop.run_in_executor`` (callables handed to
    it — lambdas, nested defs — run on executor threads and are
    exempt).
    """

    name = "async-blocking"
    summary = (
        "no blocking calls (sleep, file I/O, raw socket sends/recvs, "
        "subprocess, SummaryStore loads) inside async def bodies in "
        "serve/"
    )
    scope = ("src/repro/serve/*.py", "src/repro/serve/**/*.py")

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(module, node)

    def _check_coroutine(
        self, module: Module, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for node in self._walk_same_execution(coroutine):
            if not isinstance(node, ast.Call):
                continue
            name = Module.qualname(node.func)
            if name is None:
                continue
            reason = self._blocking_reason(name)
            if reason is not None:
                yield self.violation(
                    module,
                    node,
                    f"{reason} inside `async def {coroutine.name}` blocks "
                    "the serve event loop; run it via "
                    "loop.run_in_executor (callables handed to the "
                    "executor are exempt)",
                )

    @staticmethod
    def _blocking_reason(name: str) -> str | None:
        if name in _BLOCKING_CALLS:
            return f"blocking call {name}()"
        head, _, tail = name.rpartition(".")
        if tail in _BLOCKING_METHODS:
            return f"blocking file I/O {name}()"
        if tail in _SOCKET_METHODS:
            return f"blocking socket call {name}()"
        if tail in _SOCKET_METHODS_NAMED_RECEIVER and any(
            hint in head.lower() for hint in ("sock", "conn")
        ):
            return f"blocking socket call {name}()"
        if tail in _STORE_METHODS and "store" in head.lower():
            return f"blocking store I/O {name}()"
        return None

    @staticmethod
    def _walk_same_execution(coroutine: ast.AsyncFunctionDef):
        """Walk the coroutine body without descending into nested
        defs/lambdas — those execute later, typically on executor
        threads, where blocking is the point."""
        stack = list(ast.iter_child_nodes(coroutine))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

#: Seed registry: class name -> {guarded attribute -> lock attribute}.
#: These are the fields the serve/api layers mutate from multiple
#: threads today.  New guarded fields should use the in-source
#: ``# guarded-by: _lock`` annotation instead of growing this table.
GUARDED_FIELDS: dict[str, dict[str, str]] = {
    # serve/cache.py — executor threads and the event loop both touch
    # it (hit/miss/eviction counters moved into the obs registry, which
    # guards itself; only the table itself still needs the cache lock)
    "TTLCache": {
        "_data": "_lock",
    },
    # serve/admission.py — counted on every request from many tasks
    # (admitted/rejected counters live in the obs registry now)
    "AdmissionController": {
        "_depth": "_lock",
        "_per_client": "_lock",
        "_service_ewma": "_lock",
    },
    # api/explorer.py — the session caches the serving layer shares
    "_LRUCache": {"data": "_lock", "hits": "_lock", "misses": "_lock"},
    "Explorer": {"_inflight": "_inflight_lock"},
    "SummaryServer": {},  # seeded so annotations in server.py attach here
}

#: Methods where unguarded access is fine: construction happens-before
#: any sharing.
_CONSTRUCTION = {"__init__", "__new__", "__post_init__"}


@register
class LockDisciplineRule(Rule):
    """Guarded attributes may only be touched under their lock.

    An attribute is *guarded* when the seed registry above or an
    in-source ``# guarded-by: _lock`` comment (on its ``__init__``
    assignment or class-body declaration) names its lock.  Every
    ``self.<attr>`` read/write in the owning class must then sit
    lexically inside ``with self.<lock>:`` — or inside a method marked
    ``# repro: holds[<lock>]``, which documents (and exempts) the
    callers-hold-the-lock convention.
    """

    name = "lock-discipline"
    summary = (
        "registry/annotation-guarded attributes only touched inside "
        "`with self.<lock>` blocks"
    )
    scope = ("src/repro/*.py", "src/repro/**/*.py")

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: Module, class_def: ast.ClassDef
    ) -> Iterator[Violation]:
        guards = dict(GUARDED_FIELDS.get(class_def.name, {}))
        guards.update(self._annotated_guards(module, class_def))
        if not guards:
            return
        for item in class_def.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTION:
                continue
            held = module.holds.get(item.lineno)
            for node in ast.walk(item):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guards
                ):
                    continue
                lock = guards[node.attr]
                if held == lock or self._under_lock(node, lock, item):
                    continue
                yield self.violation(
                    module,
                    node,
                    f"self.{node.attr} is guarded by self.{lock} but "
                    f"accessed outside a `with self.{lock}` block in "
                    f"{class_def.name}.{item.name}; hold the lock, or "
                    f"mark the method `# repro: holds[{lock}]` if every "
                    "caller already does",
                )

    @staticmethod
    def _annotated_guards(
        module: Module, class_def: ast.ClassDef
    ) -> dict[str, str]:
        """``# guarded-by:`` comments on class-body declarations or on
        ``self.x = ...`` assignments anywhere inside the class."""
        guards: dict[str, str] = {}
        for node in ast.walk(class_def):
            lock = module.guarded_by.get(getattr(node, "lineno", -1))
            if lock is None:
                continue
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    guards[target.id] = lock
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards[target.attr] = lock
        return guards

    @staticmethod
    def _under_lock(node: ast.AST, lock: str, method: ast.AST) -> bool:
        """Is ``node`` lexically inside ``with self.<lock>:`` (within
        the method), or part of the with-header itself?"""
        wanted = f"self.{lock}"
        for parent in Module.parents(node):
            if isinstance(parent, (ast.With, ast.AsyncWith)):
                for item in parent.items:
                    if Module.qualname(item.context_expr) == wanted:
                        return True
                    # `with self._lock.acquire_timeout(...)` style
                    call = item.context_expr
                    if (
                        isinstance(call, ast.Call)
                        and Module.qualname(call.func) is not None
                        and Module.qualname(call.func).startswith(wanted + ".")
                    ):
                        return True
            if parent is method:
                break
        return False


# ----------------------------------------------------------------------
# deprecated-api
# ----------------------------------------------------------------------

#: Class constructions that bypass the public facade.  ``repro.api``
#: and ``plan/`` are the blessed call sites (scoped out below); tests
#: are out of scope entirely (rule scope is src/).
_DEPRECATED_CONSTRUCTORS = {
    "SummaryBackend": "use Explorer.attach(summary) (repro.api)",
}


@register
class DeprecatedApiRule(Rule):
    """No new calls to retired construction paths.

    Backend objects are wired up by the ``repro.api`` facade; code
    that constructs them directly dodges the planner and the session
    caches.  The defining module is exempt (a class may build its own
    kind), as are ``repro.api`` and ``plan/``.
    """

    name = "deprecated-api"
    summary = "no direct SummaryBackend construction outside repro.api"
    scope = ("src/repro/*.py", "src/repro/**/*.py")
    exclude = (
        "src/repro/api/*.py",
        "src/repro/plan/*.py",
    )

    def check(self, module: Module) -> Iterator[Violation]:
        defined_here = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = Module.qualname(node.func)
            if name in _DEPRECATED_CONSTRUCTORS and name not in defined_here:
                yield self.violation(
                    module,
                    node,
                    f"direct {name}() construction bypasses the session "
                    f"facade; {_DEPRECATED_CONSTRUCTORS[name]}",
                )


# ----------------------------------------------------------------------
# executor-pickle-safety
# ----------------------------------------------------------------------


@register
class ExecutorPickleSafetyRule(Rule):
    """Only payload-shipping into ``ProcessPoolExecutor`` / ``Process``.

    Worker processes receive work by pickling; lambdas, nested
    functions, and bound methods do not pickle (or drag a whole object
    graph across the fork).  The sharding design ships plain payload
    tuples to module-level workers — this rule keeps it that way, for
    both executor submissions and the cluster tier's direct
    ``Process(target=...)`` spawn path (where the spawn start method
    pickles the target and every arg into the child).
    """

    name = "executor-pickle-safety"
    summary = (
        "no lambdas / nested functions / bound methods submitted to a "
        "ProcessPoolExecutor or spawned via Process(target=...) — "
        "module-level callables and payloads only"
    )
    scope = ("src/repro/*.py", "src/repro/**/*.py")

    def check(self, module: Module) -> Iterator[Violation]:
        module_level = {
            node.name
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        yield from self._check_process_spawns(module, module_level)
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pools = self._process_pools(scope)
            if not pools:
                continue
            nested = {
                node.name
                for node in ast.walk(scope)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not scope
            }
            for node in ast.walk(scope):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"submit", "map"}
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                ):
                    continue
                yield from self._check_submission(
                    module, node, module_level, nested
                )

    def _check_submission(
        self,
        module: Module,
        call: ast.Call,
        module_level: set[str],
        nested: set[str],
    ) -> Iterator[Violation]:
        if not call.args:
            return
        target, *payload = call.args
        verb = call.func.attr  # type: ignore[attr-defined]
        if isinstance(target, ast.Lambda):
            yield self.violation(
                module,
                call,
                f"lambda submitted to ProcessPoolExecutor.{verb}() cannot "
                "be pickled; use a module-level function",
            )
        elif isinstance(target, ast.Name) and target.id in nested:
            yield self.violation(
                module,
                call,
                f"nested function {target.id!r} submitted to "
                f"ProcessPoolExecutor.{verb}() closes over local state "
                "and cannot be pickled; hoist it to module level and "
                "ship its inputs as a payload",
            )
        elif (
            isinstance(target, ast.Attribute)
            and Module.qualname(target) is not None
            and Module.qualname(target).startswith("self.")
        ):
            yield self.violation(
                module,
                call,
                f"bound method {Module.qualname(target)} submitted to "
                f"ProcessPoolExecutor.{verb}() pickles the whole "
                "instance; use a module-level function plus a payload",
            )
        elif isinstance(target, ast.Name) and target.id not in (
            module_level | _ALLOWED_BUILTIN_TARGETS
        ) and target.id not in module_imported_names(module):
            # A name that is neither module-level, imported, nor a
            # builtin is a local binding — almost always a closure.
            yield self.violation(
                module,
                call,
                f"locally-bound callable {target.id!r} submitted to "
                f"ProcessPoolExecutor.{verb}(); submit a module-level "
                "function so workers can unpickle it",
            )
        for extra in payload:
            if isinstance(extra, ast.Lambda):
                yield self.violation(
                    module,
                    extra,
                    f"lambda in ProcessPoolExecutor.{verb}() arguments "
                    "cannot be pickled; ship plain payload data",
                )

    def _check_process_spawns(
        self, module: Module, module_level: set[str]
    ) -> Iterator[Violation]:
        """The ``Process(target=...)`` spawn path, anywhere in the module.

        Matched by the ``target=`` keyword on any ``*.Process(...)``
        call, so ``multiprocessing.Process``, a spawn context's
        ``ctx.Process``, and bare ``Process`` are all covered while
        target-less constructors (``psutil.Process(pid)``) are not.
        """
        nested = {
            inner.name
            for scope in ast.walk(module.tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(scope)
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            and inner is not scope
        }
        imported = module_imported_names(module)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and (Module.qualname(node.func) or "").split(".")[-1]
                == "Process"
            ):
                continue
            target = next(
                (kw.value for kw in node.keywords if kw.arg == "target"),
                None,
            )
            if target is None:
                continue
            if isinstance(target, ast.Lambda):
                yield self.violation(
                    module,
                    node,
                    "lambda as Process target cannot be pickled under "
                    "the spawn start method; use a module-level function",
                )
            elif isinstance(target, ast.Name) and target.id in nested:
                yield self.violation(
                    module,
                    node,
                    f"nested function {target.id!r} as Process target "
                    "closes over local state and cannot be pickled under "
                    "the spawn start method; hoist it to module level "
                    "and ship its inputs through args=",
                )
            elif (
                isinstance(target, ast.Attribute)
                and Module.qualname(target) is not None
                and Module.qualname(target).startswith("self.")
            ):
                yield self.violation(
                    module,
                    node,
                    f"bound method {Module.qualname(target)} as Process "
                    "target pickles the whole instance into the child; "
                    "use a module-level function plus a payload spec",
                )
            elif isinstance(target, ast.Name) and target.id not in (
                module_level | _ALLOWED_BUILTIN_TARGETS | imported
            ):
                yield self.violation(
                    module,
                    node,
                    f"locally-bound callable {target.id!r} as Process "
                    "target; spawn a module-level function so the child "
                    "can unpickle it",
                )
            args_kw = next(
                (kw.value for kw in node.keywords if kw.arg == "args"),
                None,
            )
            if isinstance(args_kw, (ast.Tuple, ast.List)):
                for element in args_kw.elts:
                    if isinstance(element, ast.Lambda):
                        yield self.violation(
                            module,
                            element,
                            "lambda in Process args cannot be pickled "
                            "under the spawn start method; ship plain "
                            "payload data",
                        )

    @staticmethod
    def _process_pools(scope: ast.AST) -> set[str]:
        """Names bound to a ProcessPoolExecutor in this function."""
        pools: set[str] = set()
        for node in ast.walk(scope):
            value = None
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        pools.update(
                            _pool_name(item.optional_vars, item.context_expr)
                        )
                continue
            if target is not None and value is not None:
                pools.update(_pool_name(target, value))
        return pools


_ALLOWED_BUILTIN_TARGETS = {"print", "len", "sum", "max", "min"}


def _pool_name(target: ast.expr, value: ast.expr) -> set[str]:
    if not isinstance(target, ast.Name):
        return set()
    if isinstance(value, ast.Call):
        name = Module.qualname(value.func) or ""
        if name.split(".")[-1] == "ProcessPoolExecutor":
            return {target.id}
    return set()


def module_imported_names(module: Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


# ----------------------------------------------------------------------
# error-hierarchy
# ----------------------------------------------------------------------

#: Builtin exceptions callers of a library cannot reasonably catch as
#: "a repro failure".  Protocol-level builtins stay allowed: raising
#: KeyError from a mapping, TypeError from a duck-typing check, or
#: NotImplementedError from an abstract method is the Python contract.
_ALLOWED_BUILTINS = {
    "NotImplementedError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "TypeError",
    "StopIteration",
    "StopAsyncIteration",
    "SystemExit",
    "KeyboardInterrupt",
    "AssertionError",
}

_BUILTIN_EXCEPTIONS = {
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
}


@register
class ErrorHierarchyRule(Rule):
    """Intentional raises use the ``repro.errors`` hierarchy.

    The library's contract is "catch :class:`ReproError` and you have
    caught every failure we raise on purpose" — a stray ``ValueError``
    for a bad tuning knob breaks that promise.  Builtin exceptions are
    allowed only where Python's own protocols demand them (see the
    allowlist above).
    """

    name = "error-hierarchy"
    summary = (
        "raises in src/repro use the errors.py hierarchy; builtin "
        "exceptions only from the protocol allowlist"
    )
    scope = ("src/repro/*.py", "src/repro/**/*.py")

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = Module.qualname(exc)
            if name is None or "." in name:
                continue  # re-raised variable or qualified name
            if name in _BUILTIN_EXCEPTIONS and name not in _ALLOWED_BUILTINS:
                yield self.violation(
                    module,
                    node,
                    f"raise {name} breaks the `except ReproError` "
                    "contract; raise the matching repro.errors class "
                    "(or add the builtin to the protocol allowlist "
                    "with a comment saying why)",
                )


# ----------------------------------------------------------------------
# bare-thread-start
# ----------------------------------------------------------------------


@register
class BareThreadRule(Rule):
    """Threads and locks in serve/ + ingest/ must be accounted for.

    A non-daemon thread with no ``join`` anywhere in the module keeps
    the interpreter alive past shutdown; an anonymous lock (created
    inline, never bound to a name) cannot be named by a guarded-by
    annotation or a shutdown path.  Threads must either be daemons or
    have their binding ``.join(...)``-ed in the same module; locks must
    be bound to a variable or attribute.
    """

    name = "bare-thread-start"
    summary = (
        "threading.Thread needs daemon=True or a module-visible join; "
        "threading.Lock/RLock must be bound to a name"
    )
    scope = (
        "src/repro/serve/*.py",
        "src/repro/serve/**/*.py",
        "src/repro/ingest/*.py",
        "src/repro/ingest/**/*.py",
    )

    def check(self, module: Module) -> Iterator[Violation]:
        joined = self._joined_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = Module.qualname(node.func) or ""
            tail = name.split(".")[-1]
            if tail == "Thread" and name in {"Thread", "threading.Thread"}:
                yield from self._check_thread(module, node, joined)
            elif tail in {"Lock", "RLock"} and name in {
                "Lock",
                "RLock",
                "threading.Lock",
                "threading.RLock",
            }:
                yield from self._check_lock(module, node)

    def _check_thread(
        self, module: Module, call: ast.Call, joined: set[str]
    ) -> Iterator[Violation]:
        for keyword in call.keywords:
            if keyword.arg == "daemon":
                if (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return  # daemon: cannot outlive the interpreter
                break
        bound = self._binding(call)
        if bound is not None and bound in joined:
            return
        hint = (
            f"binding {bound!r} is never .join()-ed in this module"
            if bound is not None
            else "it is never bound, so nothing can join it"
        )
        yield self.violation(
            module,
            call,
            f"daemonless threading.Thread with no shutdown path ({hint}); "
            "pass daemon=True or join it on the shutdown path",
        )

    def _check_lock(
        self, module: Module, call: ast.Call
    ) -> Iterator[Violation]:
        if self._binding(call) is None:
            yield self.violation(
                module,
                call,
                "anonymous threading.Lock/RLock (not bound to a name) "
                "cannot be referenced by lock-discipline annotations or "
                "a shutdown path; assign it to an attribute",
            )

    @staticmethod
    def _binding(call: ast.Call) -> str | None:
        """The name/attribute this call's result is assigned to, if any."""
        parent = getattr(call, "parent", None)
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            name = Module.qualname(target)
            return name
        if isinstance(parent, (ast.AnnAssign,)):
            return Module.qualname(parent.target)
        return None

    @staticmethod
    def _joined_names(module: Module) -> set[str]:
        """Every receiver of an explicit ``.join(...)`` in the module.

        ``self._thread.join(timeout=10)`` marks both ``self._thread``
        and ``_thread`` (attribute bindings are recorded either way).
        """
        joined: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
            ):
                name = Module.qualname(node.func.value)
                if name is not None:
                    joined.add(name)
                    joined.add(name.split(".")[-1])
        return joined


# ----------------------------------------------------------------------
# metrics-discipline
# ----------------------------------------------------------------------


@register
class MetricsDisciplineRule(Rule):
    """Serving-layer counters belong in the obs registry.

    PR 9 moved every operational counter in serve/ into the shared
    :class:`repro.obs.MetricsRegistry` — one lock, one snapshot, one
    Prometheus scrape.  A class that grows a *public* bare-int counter
    (``self.hits = 0`` in ``__init__``, ``self.hits += 1`` elsewhere)
    re-introduces the torn-read/stats-drift problem the registry
    solved: the field is invisible to ``metrics``/``repro top`` and is
    read without the registry's snapshot consistency.  Private
    bookkeeping (``self._next_id += 1``) and non-integer state are out
    of scope — this rule is about *observable* counters only.
    """

    name = "metrics-discipline"
    summary = (
        "public int counters in serve/ classes (self.x = 0 then "
        "self.x += N) must live in the obs MetricsRegistry, not as "
        "bare attributes"
    )
    scope = ("src/repro/serve/*.py", "src/repro/serve/**/*.py")

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: Module, class_def: ast.ClassDef
    ) -> Iterator[Violation]:
        seeded = self._int_seeded_fields(class_def)
        if not seeded:
            return
        for item in class_def.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTION:
                continue
            for node in ast.walk(item):
                if not (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                    and node.target.attr in seeded
                ):
                    continue
                counter = node.target.attr
                yield self.violation(
                    module,
                    node,
                    f"self.{counter} is a bare int counter "
                    f"(initialized to a literal in {class_def.name}."
                    "__init__, bumped here); register it on the shared "
                    "obs MetricsRegistry (registry.counter(...).inc()) "
                    "so scrapes and stats() see one consistent snapshot",
                )

    @staticmethod
    def _int_seeded_fields(class_def: ast.ClassDef) -> set[str]:
        """Public ``self.<name> = <int literal>`` assignments in
        construction methods."""
        seeded: set[str] = set()
        for item in class_def.body:
            if not (
                isinstance(item, ast.FunctionDef)
                and item.name in _CONSTRUCTION
            ):
                continue
            for node in ast.walk(item):
                targets: list[ast.expr] = []
                value = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if not (
                    isinstance(value, ast.Constant)
                    and type(value.value) is int
                ):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and not target.attr.startswith("_")
                    ):
                        seeded.add(target.attr)
        return seeded
