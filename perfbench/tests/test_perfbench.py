"""The benchmark's own tests: seeded inputs, span arithmetic, metric names.

    python3 -m pytest perfbench/tests -q

They need neither the program nor a network.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import http_mix  # noqa: E402
import inproc  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def toy_adjacency(n=400, seed=3):
    import random

    rng = random.Random(seed)
    adj = [dict() for _ in range(n)]
    for u in range(n):
        for _ in range(3):
            v = rng.randrange(n)
            if v != u:
                adj[u][v] = round(rng.uniform(0.1, 0.9), 3)
    return adj


@pytest.mark.parametrize("workload", sorted(inproc.SPECS))
def test_query_list_is_a_function_of_the_seed(workload):
    spec = inproc.SPECS[workload]
    first = common.dumps(inproc.query_list(spec, 7, 2000, 15))
    again = common.dumps(inproc.query_list(spec, 7, 2000, 15))
    other = common.dumps(inproc.query_list(spec, 8, 2000, 15))
    assert first == again
    assert first != other


def test_query_list_warmup_is_disjoint_from_timed_sources():
    for spec in inproc.SPECS.values():
        plan = inproc.query_list(spec, 1, 2000, 15)
        timed = {source for source, _ in plan["timed"]}
        assert not timed & set(plan["warmup"])
        assert len(plan["warmup"]) == spec.warmup


def test_http_schedule_is_a_function_of_the_seed():
    adj = toy_adjacency()
    first = common.dumps(http_mix.make_schedule(11, 5, adj))
    again = common.dumps(http_mix.make_schedule(11, 5, adj))
    other = common.dumps(http_mix.make_schedule(12, 5, adj))
    assert first == again
    assert first != other
    schedule = json.loads(first)
    dues = [item["due"] for item in schedule["open"]]
    assert dues == sorted(dues)


def test_http_request_mix_does_not_follow_the_seed():
    adj = toy_adjacency()

    def mix(seed):
        schedule = http_mix.make_schedule(seed, 5, adj)
        return [
            item["body"]["method"] if item["kind"] == "query" else "update"
            for item in schedule["open"] + schedule["capacity"]
        ]

    kinds = mix(11)
    assert kinds == mix(12)
    every = http_mix.UPDATE_EVERY
    assert [i for i, kind in enumerate(kinds) if kind == "update"] == list(
        range(every - 1, len(kinds), every)
    )
    every = http_mix.MC_EVERY
    assert [i for i, kind in enumerate(kinds) if kind == "mc"] == list(
        range(every // 2, len(kinds), every)
    )


def test_timings_are_each_querys_best_pass():
    passes = [
        [(0.010, 0.009, "a"), (0.030, 0.020, "b")],
        [(0.020, 0.008, "a"), (0.025, 0.024, "b")],
    ]
    assert inproc.best_of(passes, 0) == pytest.approx([10.0, 25.0])
    assert inproc.best_of(passes, 1) == pytest.approx([8.0, 20.0])


def test_closed_loop_rate_takes_each_segments_best_pass():
    # Loop clocks of two passes over three requests: segments are
    # requests [0, 2) and [2, 3), whole intervals between the marks.
    marks = [[0.0, 1.0, 2.0, 2.5], [10.0, 10.5, 12.0, 14.0]]
    assert common.closed_loop_qps(marks, 3, 2) == pytest.approx(3 / (2.0 + 0.5))


def test_segment_total_takes_each_segments_least_growth():
    # A CPU clock read at the same three boundaries in two passes.
    readings = [[0.0, 1.0, 3.0], [5.0, 7.0, 8.0]]
    assert common.segment_best_total(readings) == pytest.approx(1.0 + 1.0)


def test_http_timings_are_each_requests_best_pass():
    def record(kind, due, sent, done):
        return {"kind": kind, "due": due, "sent": sent, "done": done}

    passes = [
        {"open": [record("query", 0, 0, 0.004), record("update", 0, 0.001, 0.009)],
         "capacity": [record("update", 1, 1, 1.002)]},
        {"open": [record("query", 0, 0.002, 0.003), record("update", 0, 0, 0.010)],
         "capacity": [record("update", 1, 1, 1.005)]},
    ]
    assert http_mix.best_of(passes, "query", http_mix._latency_ms) == pytest.approx([3.0])
    assert http_mix.best_of(passes, "update", http_mix._update_ms) == pytest.approx(
        [8.0, 2.0]
    )


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping);
    # a has child c [2, 3]; d [20, 21] is an unrelated root.
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["d", 20.0, 21.0, None, 2],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]


def test_self_time_clips_children_to_the_parent():
    spans = [["p", 0.0, 4.0, None, 1], ["late", 3.0, 9.0, 0, 1]]
    assert tracing.self_times(spans) == [3.0, 6.0]


def test_per_request_layers_and_stitching():
    client = [["bench.client.request", 0.0, 10.0, None, 5]]
    server = [
        ["service.aio.dispatch", 1.0, 9.0, None, 5],
        ["core.engine.query", 2.0, 6.0, 0, 5],
        ["flow.maxflow", 3.0, 5.0, 1, 5],
    ]
    merged = tracing.stitch(client, server, "bench.client.request")
    agg = tracing.per_request(merged, [5])
    assert agg["self"][5] == {
        "bench.client": 2.0, "service.aio": 4.0, "core.engine": 2.0, "flow": 2.0,
    }
    assert agg["inclusive"][5]["core.engine.query"] == 4.0


def test_recorder_nests_spans_and_restores_wrapped_names():
    class Target:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    rec = tracing.Recorder()
    rec.wrap(Target, "inner", "core.outreach.bound")
    rec.wrap(Target, "outer", "core.candidates.generate")
    with rec.span("bench.client.query", rid=3):
        assert Target().outer() == 2
    rec.uninstall()
    exported = rec.export()
    assert [s[0] for s in exported] == [
        "bench.client.query", "core.candidates.generate", "core.outreach.bound",
    ]
    assert [s[3] for s in exported] == [None, 0, 1]
    assert all(s[4] == 3 for s in exported)
    assert Target.outer.__qualname__.endswith("Target.outer")


def test_tail_has_ten_samples_beyond():
    values = list(range(1000))
    value, q, beyond = common.tail(values)
    assert (q, beyond) == (99.0, 10)
    assert common.tail(list(range(500)))[1:] == (95.0, 25)
    assert common.tail(list(range(100)))[1:] == (90.0, 10)


def test_every_metric_name_is_valid_and_declared():
    names = list(run.END_TO_END_UNITS) + [name for name, _, _ in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in declared["end_to_end"]] == list(
        run.END_TO_END_UNITS.values()
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [tuple(entry) for entry in layers.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
