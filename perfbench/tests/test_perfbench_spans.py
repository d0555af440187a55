"""Self-time arithmetic and per-layer metrics on synthetic spans."""

import itertools

import pytest

import layers
import spans
from spans import Tracer, self_times, span_self_times


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    synthetic = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    ]
    assert span_self_times(synthetic) == [3.0, 2.0, 1.0, 4.0]
    assert self_times(synthetic) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(self_times(synthetic).values()) == 10.0


def test_self_times_sum_per_name():
    synthetic = [
        ["root", 0.0, 8.0, -1, None],
        ["leaf", 1.0, 2.0, 0, None],
        ["mid", 3.0, 7.0, 0, None],
        ["leaf", 4.0, 6.0, 2, None],
    ]
    assert self_times(synthetic) == {"root": 3.0, "leaf": 3.0, "mid": 2.0}


def test_tracer_links_nested_wrappers(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer("t")
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"arg": a[0]})
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    root = tracer.begin("root")
    assert outer(2) == 9
    tracer.end(root)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.spans[2][spans.ATTRS] == {"arg": 2}
    # ticks: root 0..7, outer 1..6, inner 2..3 and 4..5
    assert self_times(tracer.spans) == {"root": 2.0, "outer": 3.0, "inner": 2.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer("t")

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][spans.END] >= tracer.spans[0][spans.START]
    assert tracer.begin("next") == 1
    assert tracer.spans[1][spans.PARENT] == -1


def test_pass_metrics_counts_and_rates():
    synthetic = [
        [layers.ROOT_SPAN, 0.0, 10.0, -1, None],
        ["engine.run", 0.0, 6.0, 0, {"n": 100, "iterations": 2}],
        ["engine.step", 1.0, 2.0, 1, {"n": 100}],
        ["objectives.score_many", 1.5, 1.75, 2, {"points": 100, "objective": "shekel"}],
        ["engine.step", 3.0, 4.0, 1, {"n": 100}],
        ["objectives.score_many", 3.5, 3.75, 4, {"points": 100, "objective": "shekel"}],
        ["topology.build", 6.0, 7.0, 0, {"graph": "ring-n100"}],
        ["topology.build", 7.0, 8.0, 0, {"graph": "ring-n100"}],
        ["topology.build", 8.0, 9.0, 0, {"graph": "star-n100"}],
        ["graph_metrics.shortest_path", 9.0, 9.5, 0, {"ops": 3_000_000}],
    ]
    m = layers.pass_metrics(synthetic)
    assert m["trace.wall_s"] == 10.0
    assert m["engine.step.self_s"] == 1.5
    assert m["engine.step.self_us_per_iter.n100"] == 0.75e6
    assert m["engine.step.self_us_per_iter.n400"] == 0.0
    assert m["engine.run.self_s"] == 4.0
    assert m["engine.iterations"] == 2
    assert m["engine.agent_iters"] == 200
    assert m["objectives.score_many.points"] == 200
    assert m["objectives.score_many.ns_per_point.shekel"] == pytest.approx(0.5 / 200 * 1e9)
    assert m["topology.build.calls"] == 3
    assert m["topology.build.useful_ratio"] == pytest.approx(2 / 3)
    assert m["graph_metrics.shortest_path.ops_computed"] == 3_000_000
    reported = sum(m[metric] for metric in layers.SELF_TIME_METRICS.values())
    assert reported == pytest.approx(m["trace.wall_s"])


def test_instrumented_restores_the_program():
    from swarmtopo import engine, harness, objectives

    before = (engine.step, harness.run, objectives.ObjectiveSpec.score_many)
    tracer = Tracer("t")
    with layers.instrumented(tracer):
        assert engine.step is not before[0]
    assert (engine.step, harness.run, objectives.ObjectiveSpec.score_many) == before
