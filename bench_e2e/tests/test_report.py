from bench_e2e import report, spec

P50 = spec.E2E["query_p50_ms"]        # lower is better
QPS = spec.E2E["queries_per_s"]
ERR = spec.E2E["mean_rel_error"]


def test_worsening_is_signed_by_direction():
    assert abs(report.worsening(P50, 10.0, 11.0) - 0.1) < 1e-12
    assert abs(report.worsening(QPS, 100.0, 90.0) - 0.1) < 1e-12
    assert report.worsening(QPS, 100.0, 120.0) < 0


def test_judge_steady_metric():
    a = [10.0, 10.1, 9.9, 10.0]
    bound = P50.bound
    assert report.judge(P50, a, [v * (1 + bound / 4) for v in a]) == "unchanged"
    assert report.judge(P50, a, [v * (1 + 2 * bound) for v in a]) == "REGRESSED"
    assert report.judge(P50, a, [v * 0.5 for v in a]) == "improved"


def test_judge_says_unresolved_when_spread_exceeds_the_bound():
    noisy = [10.0, 20.0, 5.0, 14.0]
    assert report.judge(P50, noisy, [11.0, 19.0, 6.0, 13.0]) == "unresolved"
    # ...unless every run of B reads better than every run of A.
    assert report.judge(P50, noisy, [1.0, 2.0, 3.0, 4.0]) == "improved"


def test_exact_metrics_must_repeat_exactly():
    assert report.judge(ERR, [0.25, 0.5], [0.5, 0.25]) == "identical"
    assert report.judge(ERR, [0.25, 0.5], [0.25, 0.5000001]) == "DIFFERS"
