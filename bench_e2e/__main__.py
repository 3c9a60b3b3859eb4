"""``python -m bench_e2e run | aa | compare`` — see README.md.

``run --workload NAME --seed N --seconds S --trace 0|1`` is the form
the PR driver calls: one workload, one process, and as the last line of
standard output one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# Everything a run leaves behind lands under results/, temporary files
# of the program's own subprocesses included.
(ROOT / "bench_e2e" / "results").mkdir(exist_ok=True)
os.environ["TMPDIR"] = str(ROOT / "bench_e2e" / "results")

from bench_e2e import report, runner, spec, workloads  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench_e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", choices=list(spec.WORKLOADS))
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=report.run_seconds())
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     help="the separate traced run: per-layer numbers + trace.jsonl")
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes for the self-test; numbers mean nothing")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, on seeds seed, seed+1, ...")
    run.add_argument("--out", help="write every run's full result to this JSON file")
    run.add_argument("--detail", help=argparse.SUPPRESS)

    aa = commands.add_parser("aa", help="two sets of runs of this checkout must agree")
    aa.add_argument("--repeat", type=int, default=3)
    aa.add_argument("--seed", type=int, default=7)
    aa.add_argument("--seconds", type=float, default=report.run_seconds())
    aa.add_argument("--workload", choices=list(spec.WORKLOADS), action="append")
    aa.add_argument("--quick", action="store_true")
    aa.add_argument("--out", default=str(workloads.RESULTS_DIR / "aa"))

    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def _run_one(args) -> int:
    """One workload in this process: the form the PR driver calls."""
    sizes = workloads.QUICK if args.quick else workloads.FULL
    import_s = time.perf_counter() - _STARTED
    if args.trace:
        result = runner.run_traced(args.workload, args.seed, args.seconds, sizes)
    else:
        result = runner.run_untraced(
            args.workload, args.seed, args.seconds, sizes, import_s
        )
    record = report.record_of(result, args.seed, args.seconds, bool(args.trace))
    report.print_record(record)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record))
    print(json.dumps(report.driver_line(record)))
    return 0


def _run_quick(args) -> int:
    """The self-test: every workload untraced and one traced run, in
    this process, at toy sizes.  Numbers are printed, never recorded."""
    seconds, records = min(args.seconds, 0.4), []
    for name in spec.WORKLOADS:
        result = runner.run_untraced(name, args.seed, seconds, workloads.QUICK)
        records.append(report.record_of(result, args.seed, seconds, False))
    result = runner.run_traced("cluster_cold", args.seed, seconds, workloads.QUICK)
    records.append(report.record_of(result, args.seed, seconds, True))
    for record in records:
        report.print_record(record)
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        return report.compare(args.a, args.b)
    if args.command == "aa":
        return report.aa(args)
    if args.workload and args.repeat == 1 and not args.out:
        return _run_one(args)
    if args.quick and not args.out:
        return _run_quick(args)
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    records = report.run_set(
        names, args.seed, args.repeat, args.seconds, bool(args.trace), args.quick
    )
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1))
    if args.trace:
        report.merge_traces(names)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
