"""Microbenchmark: what one ``ClusterCoordinator._fan_out`` costs.

Not a pytest suite and not a gate — the end-to-end claim lives in
``bench_e2e`` (``cluster_cold``).  This script times the one layer a
fan-out change touches, from outside, on the benchmark's own model
(``M8``: 8 shards of the 100 000-row flights relation) with 2 workers,
so a parent and a change can be compared on the same box::

    PYTHONPATH=src python benchmarks/micro_fanout.py            # here
    (cd /path/to/parent-clone && PYTHONPATH=src python \\
        /path/to/benchmarks/micro_fanout.py)                    # parent

It prints the median and quartiles of a one-plan and a two-plan
``_fan_out`` over three passes of 300 distinct cold plans.  Only names
both sides have are used (``_fan_out``, ``explorer.plan``).
"""

from __future__ import annotations

import statistics
import sys
import time

from bench_e2e import inputs
from repro.serve import ClusterCoordinator, ServeConfig, ServerThread

PLANS = 300
PASSES = 3


def _quartiles(samples):
    low, mid, high = statistics.quantiles(samples, n=4)
    return f"{mid:7.0f} us  [{low:.0f}-{high:.0f}]"


def main(seed: int = 1) -> None:
    data = inputs.make_data()
    summary = inputs.fit_model(data.relation, "M8")
    server = ClusterCoordinator(
        summary, workers=2, config=ServeConfig(port=0, cache_size=0)
    )
    with ServerThread(server):
        generation = server._generation
        plans = [
            generation.explorer.plan(query.text)
            for query in inputs.gen_queries(seed, PLANS, data)
        ]
        plans = [plan for plan in plans if plan.route.target == "sharded"]
        server._fan_out(generation, plans[:8])  # connections, lazy set-up
        for batch in (1, 2):
            for number in range(PASSES):
                samples = []
                for start in range(0, len(plans) - batch + 1, batch):
                    began = time.perf_counter()
                    outputs = server._fan_out(
                        generation, plans[start : start + batch]
                    )
                    samples.append((time.perf_counter() - began) * 1e6)
                    for output in outputs:
                        if isinstance(output, BaseException):
                            raise output
                print(
                    f"fan_out of {batch} plan(s), pass {number + 1}: "
                    f"{_quartiles(samples)}  n={len(samples)}"
                )


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:2]))
