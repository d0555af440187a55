"""Tiny-size runs of the benchmark command, checking its output format."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

# counters each workload's traced run must move
REACHED = {
    "paper-sweep": (
        "engine.rng.calls", "engine.iterations", "objectives.score_many.points",
        "harness.success.calls", "topology.build.calls",
        "graph_metrics.shortest_path.calls", "engine.step.self_s",
    ),
    "large-swarm": (
        "engine.rng.calls", "engine.run.calls", "engine.agent_iters",
        "harness.success.calls", "objectives.score_many.ns_per_point.rastrigin",
    ),
    "spectrum-metrics": (
        "graph_metrics.shortest_path.ops_computed", "graph_metrics.clustering.self_s",
        "graph_metrics.small_world_ness.self_s", "topology.build_spectrum.s",
    ),
}


def bench(*args, cwd=REPO):
    command = [*SPEC["command"], *args]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_sum = sum(
            metrics[name] for name in run.layers.SELF_TIME_METRICS.values()
        )
        assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
        assert all(metrics[name] > 0 for name in REACHED[workload]), {
            name: metrics[name] for name in REACHED[workload]
        }


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = bench("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_golden_mismatch_fails_the_pass():
    passes = [
        {"digest": "a", "error": None},
        {"digest": "b", "error": None},
        {"digest": "a", "error": "ValueError: x"},
    ]
    run.mark_correct(passes, "a")
    assert [p["ok"] for p in passes] == [True, False, False]
    run.mark_correct(passes, None)  # no golden digest: must repeat the first pass
    assert [p["ok"] for p in passes] == [True, False, False]
