import json

from bench_e2e.trace import Tracer, coverage, self_times


def _span(span, parent, name, start, end, trace=1):
    return {"trace": trace, "span": span, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span(1, None, "whole", 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 1, "b", 30, 60),     # overlaps a: the union counts once
        _span(4, 1, "c", 90, 120),    # sticks out: only the inside part counts
        _span(5, 2, "leaf", 15, 20),
    ]
    own = self_times(spans)
    assert own[1] == 100 - (50 + 10)
    assert own[2] == 30 - 5
    assert own[3] == 30 and own[5] == 5


def test_coverage_is_the_median_per_trace_ratio():
    spans = []
    # trace 1: stages explain 90 of 100; trace 2: 50 of 100; trace 3: a
    # pause inflates the stages to 5x — the median ignores it.
    for trace, staged in ((1, 90), (2, 50), (3, 500)):
        spans.append(_span(len(spans) + 1, None, "whole", 0, 100, trace))
        spans.append(_span(len(spans) + 1, None, "s1", 0, staged // 2, trace))
        spans.append(_span(len(spans) + 1, None, "s2", 0, staged - staged // 2, trace))
    assert coverage(spans, "whole", ("s1", "s2")) == 0.9


def test_tracer_nests_and_writes_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    tracer.add("loose", 5, 9)
    names = {s["name"]: s for s in tracer.spans}
    assert names["inner"]["parent"] == outer and names["outer"]["parent"] is None
    assert names["outer"]["start_ns"] <= names["inner"]["start_ns"]
    assert names["inner"]["end_ns"] <= names["outer"]["end_ns"]
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["outer", "inner", "loose"]
    assert set(records[0]) == {"trace", "span", "parent", "name", "start_ns", "end_ns"}
