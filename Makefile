# Development entry points.  The tier-1 verify command is `make test`.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench-smoke bench-e2e bench-e2e-compare bench-e2e-test bench-all check-bench serve-smoke cluster-smoke obs-smoke soak-smoke soak-full lint install docs-check analyze

test:
	$(PYTHON) -m pytest -x -q

# Quick benchmark pass at the small scale: the interactive-latency
# suite, including the run_many()-vs-sequential acceptance check.
# Median-of-3 via the check_bench runner, so one noisy wall-clock
# comparison on a shared runner cannot fail the job on its own.
bench-smoke:
	REPRO_SCALE=small $(PYTHON) tools/check_bench.py run --repeat 3 \
		--out-dir benchmarks/results/smoke -- -q benchmarks/bench_query_latency.py

# The repo's one end-to-end benchmark (bench_e2e/README.md): N runs of
# all six workloads into one result file.  A performance claim is a
# same-box A/B — `make bench-e2e OUT=/tmp/parent.json` in a checkout of
# the parent commit, `make bench-e2e OUT=/tmp/change.json` in the change,
# then `make bench-e2e-compare PARENT=/tmp/parent.json CHANGE=/tmp/change.json`.
# WORKLOAD= / SEED= narrow a run to one workload / one seed (≈ 15 s), which
# is what the >= 10 alternating parent / change pairs behind a claim cost.
N ?= 3
OUT ?= bench_e2e/results/runs.json
bench-e2e:
	$(PYTHON) -m bench_e2e run --repeat $(N) --out $(OUT) \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED))

bench-e2e-compare:
	@test -n "$(PARENT)" -a -n "$(CHANGE)" || \
		{ echo "usage: make bench-e2e-compare PARENT=parent.json CHANGE=change.json"; exit 2; }
	$(PYTHON) -m bench_e2e compare $(PARENT) $(CHANGE)

# The benchmark's own self-tests (tier-1 collects tests/ only).
bench-e2e-test:
	$(PYTHON) -m pytest bench_e2e/tests -q

#: The acceptance suites that emit BENCH_<name>.json reports.
BENCH_SUITES = benchmarks/bench_planner.py benchmarks/bench_sharding.py \
	benchmarks/bench_serve.py benchmarks/bench_wire.py \
	benchmarks/bench_ingest.py benchmarks/bench_soak.py \
	benchmarks/bench_cluster.py

# Run every report-emitting acceptance suite 3x (reports land in
# benchmarks/results/perf/runN/); passes on a majority of runs.
bench-all:
	REPRO_SCALE=small $(PYTHON) tools/check_bench.py run --repeat 3 \
		--out-dir benchmarks/results/perf -- -q $(BENCH_SUITES)

# The CI perf-regression gate: bench-all, then compare the per-metric
# medians against the checked-in baselines (speedups may regress <=20%,
# error metrics may not grow).  `python tools/check_bench.py update`
# rewrites the baselines from fresh runs when a change legitimately
# moves the numbers.
check-bench: bench-all
	$(PYTHON) tools/check_bench.py compare --runs-root benchmarks/results/perf

# Serving-layer smoke: boot the server on a tiny summary, fire 50
# concurrent requests through the real client, assert zero errors and
# a warm cache (the CI serve-smoke job runs exactly this).
serve-smoke:
	REPRO_SCALE=small $(PYTHON) -m pytest -q -s benchmarks/bench_serve.py::test_serve_smoke

# Cluster smoke: the multi-worker tier end to end — frontend + worker
# pool, 100 concurrent requests with a worker killed mid-run (zero
# dropped requests, worker respawned), gated against the checked-in
# BENCH_cluster.json baseline.  Worker stdout/stderr lands in
# cluster_logs/ so a failing CI run uploads diagnosable output.
cluster-smoke:
	REPRO_SCALE=small REPRO_CLUSTER_LOG_DIR=cluster_logs \
		$(PYTHON) tools/check_bench.py run --repeat 3 \
		--out-dir benchmarks/results/cluster -- -q benchmarks/bench_cluster.py
	$(PYTHON) tools/check_bench.py compare \
		--runs-root benchmarks/results/cluster cluster

# Observability smoke: boot a server with the slow-query log armed,
# drive 50 requests, assert the Prometheus scrape parses, every
# declared metric family is present, traces reach the ring, and the
# slow-query JSONL has evidence-bearing entries (the CI obs-smoke job
# runs exactly this and uploads obs_smoke_slowlog.jsonl on failure).
obs-smoke:
	$(PYTHON) tools/obs_smoke.py

# Chaos soak smoke: the short seeded scenarios as tests (--soak tier),
# then a 30 s all-fault CLI soak whose invariants must hold.  The event
# log lands in soak_events.jsonl BEFORE the exit code is computed, so a
# failing CI soak always uploads a diagnosable artifact.
soak-smoke:
	$(PYTHON) -m pytest -q --soak tests/test_chaos.py
	$(PYTHON) -m repro soak --duration 30 --seed 7 --faults all \
		--events soak_events.jsonl --out soak_report.json

# The nightly-length soak: 120 s, every fault enabled, same seed so a
# failure replays locally with the identical fault schedule.
soak-full:
	$(PYTHON) -m repro soak --duration 120 --seed 7 --faults all \
		--events soak_events.jsonl --out soak_report.json

# Lint: ruff when available (the CI lint job installs it; this offline
# image may not have it — see [tool.ruff] in pyproject.toml for the
# rule gate), then the always-available compile + import smoke checks.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; skipping (compileall/import smoke still run)"; \
	fi
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -W error::SyntaxWarning -c "import repro, repro.api, repro.plan, repro.serve, repro.chaos, repro.cli, repro.experiments"
	@# serve/ evaluates shards through ShardArena only: no second path,
	@# no service-floor knob, no reaching into core.inference.
	@! grep -rnE --include='*.py' "use_arena|shard_service_ms|(from|import) +repro\.core\.inference|from +repro\.core +import.*inference" src/repro/serve/
	@# The fan-out is a scatter/gather on the flush thread over kept
	@# channels, and a worker answers partial_batch on its event loop:
	@# no thread pool, no executor hop around _compute_partials.
	@! grep -nE "ThreadPoolExecutor|_fanout_pool" src/repro/serve/cluster.py
	@! grep -Pzo "run_in_executor\([^)]*_compute_partials" src/repro/serve/cluster.py
	@# A miss is evaluated by the request that found it (the coalescer
	@# is a single-flight table): no timer, no deferred flush, no batch
	@# size or off switch to tune.  -w: call_soon_threadsafe (ServerThread's
	@# cross-thread stop) is not a deferred flush.
	@! grep -rnwE "call_later|call_soon|max_batch|no_coalesce" src/repro/serve/ src/repro/cli.py
	@! grep -rnI "window_ms" src/
	@# One-pass executions run on the event loop, so the server decides
	@# its chaos there and awaits a delay (FaultInjector.act_async); the
	@# blocking act stays with the watcher and ingest threads.
	@! grep -n "\.act(" src/repro/serve/server.py src/repro/serve/cluster.py
	@# One query evaluator: ShardArena answers every model, sharded or
	@# not.  The polynomial's masked kernels serve the solver, the world
	@# sampler and the test oracle, never the query path.
	@! grep -rnwE "masked_value|masked_gradient|evaluation_parts" src/repro/core/inference.py src/repro/core/summary.py src/repro/core/sharding.py src/repro/query/ src/repro/plan/ src/repro/api/ src/repro/serve/
	@# One layout rule in the arena: a block's terms are grouped by the
	@# query's constrained attributes (all of them is the per-term case),
	@# so there is no per-term fallback.
	@! grep -n "_block_terms" src/repro/core/arena.py
	@# Build from counts: selection, build, refit, append and migrate
	@# read the relation through one Counts reduction (data/counts.py),
	@# never by a per-statistic row scan.
	@! grep -rnE "count_where|StatisticSet\.from_relation" src/repro/core/ src/repro/ingest/ src/repro/api/ src/repro/stats/selection.py src/repro/experiments/
	@# Compile the polynomial in numpy: terms are enumerated level by
	@# level with chunked broadcasts, never by a per-term Python recursion.
	@! grep -nE "_ValueIndex|MultiDimStat|def extend" src/repro/core/terms.py
	@# Fit the δ variables one attribute-set run at a time: no
	@# per-statistic plan, no unbuffered multiply.at, and no reduceat
	@# (it does not reproduce a slice's pairwise .sum() bit for bit).
	@! grep -nE "multiply\.at|reduceat|delta_plan" src/repro/core/terms.py src/repro/core/solver.py
	@# One evaluation state per fit: the solver evaluates P from scratch
	@# only in solve, max_constraint_error and constraint_errors, and the
	@# sweeps refresh what moved; the 1D gradient scatters in one bincount.
	@! grep -nE "subtract\.at" src/repro/core/polynomial.py
	@n=$$(grep -c "evaluation_parts(" src/repro/core/solver.py); [ "$$n" -le 3 ] || \
		{ echo "core/solver.py calls evaluation_parts( $$n times (at most 3)"; exit 1; }
	@# One plan cache per loaded model: SQL text -> QueryPlan is one
	@# cached step in the Explorer.  No engine facade over the planner,
	@# no strict label-resolution fork, no AST / predicate LRUs and no
	@# Explorer per client-chosen session name.
	@! grep -rnwE --include='*.py' "SQLEngine|conjunction_from_conditions|strict" src/repro/query/ src/repro/plan/ src/repro/api/
	@! grep -nwE "_asts|_predicates|_sessions" src/repro/api/explorer.py src/repro/serve/server.py
	@# Labels resolve by bisection on a per-domain table (LabelTable):
	@# no per-label loop on the query path.
	@! grep -n "_comparison_mask" src/repro/query/linear.py
	@# Appends read only the batch: the ingest pipeline holds just the
	@# summary, never a copy of the rows it was fitted on, and
	@# `repro ingest` needs no base relation (its --data flag and the
	@# --write-data round trip are gone; `repro build --data` stays).
	@! grep -rnE "Relation\.concat|sample_rows|_shard_relations|delta_refresh" src/repro/ingest/ src/repro/api/builder.py
	@! grep -nE "write.data" src/repro/cli.py
	@! grep -Pzo 'ingest\.add_argument\(\s*"--data"' src/repro/cli.py

# Documentation rot check: every ```python block in README.md and
# docs/*.md must compile, every relative link must resolve.
docs-check:
	$(PYTHON) tools/check_docs.py

# Repo-specific static analysis (docs/analysis.md has the rule
# catalogue).  Three passes, in cost order:
#   1. repro-analyze over src/ (always available — stdlib only), with
#      the JSON report written for the CI artifact;
#   2. the serve/ingest suites re-run under the lock-order watchdog;
#   3. mypy over plan/ + api/ when installed (the CI analyze job
#      installs it; this offline image may not have it).
analyze:
	$(PYTHON) -m tools.analyze src --out analyze_report.json
	REPRO_LOCKORDER=1 $(PYTHON) -m pytest -q tests/test_serve.py tests/test_ingest.py
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/plan src/repro/api; \
	else \
		echo "mypy not installed; skipping (the CI analyze job runs it)"; \
	fi

# Editable install.  This offline image lacks `wheel`, so PEP 660
# editable builds fail; setup.py develop reads the same pyproject
# metadata (see setup.py).  Use `pip install -e .` where wheel exists.
install:
	$(PYTHON) setup.py -q develop
