import pytest

from bench_e2e.driver import LATENCY_LIMIT_S, Op, Window, percentile, timed_loop


def test_nearest_rank_percentile():
    values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert percentile(values, 0.50) == 50      # rank ceil(5.0) = 5
    assert percentile(values, 0.95) == 100     # rank ceil(9.5) = 10
    assert percentile(values, 0.90) == 90
    assert percentile(values, 0.01) == 10
    assert percentile([7], 0.99) == 7
    assert percentile(list(range(1, 102)), 0.50) == 51
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_failed_operation_misses_the_latency_limit():
    window = Window([
        Op(0, 0.001), Op(1, 0.002),
        Op(2, 0.003, error="ServerBusy: refused"),     # refused: failed
        Op(3, LATENCY_LIMIT_S + 0.5),                  # late: failed
    ])
    assert [op.ok for op in window.ops] == [True, True, False, False]
    latencies = window.latencies_ms()
    # A refusal cannot improve a percentile: it counts at the limit.
    assert latencies == [1.0, 2.0, 1000.0, 1500.0]


def test_timed_loop_counts_every_attempt():
    def call(item):
        if item == "bad":
            raise RuntimeError("boom")
        return item.upper()

    ops = timed_loop(call, ["a", "bad", "c"], seconds=5.0, cycle=False, start_index=10)
    assert [op.index for op in ops] == [10, 11, 12]
    assert [op.answer for op in ops] == ["A", None, "C"]
    assert ops[1].error.startswith("RuntimeError") and not ops[1].ok
    # A cycling stream stops at the deadline, not at its end.
    ticks = iter(range(1000))
    ops = timed_loop(str, [1, 2], seconds=8, cycle=True, clock=lambda: next(ticks))
    assert [op.index for op in ops] == [0, 1, 0, 1]
