"""The traced run: which swarmtopo names are wrapped, and the
per-layer metrics computed from their spans.

Every wrapper replaces the attribute of the module that looks the name
up at call time: ``harness`` imported ``run``, ``build_topology``,
``average_geodesic`` and ``natural_connectivity`` by name, ``engine.run``
finds ``step``, ``randomized_death`` and ``make_rand_source`` among its
module globals, and ``graph_metrics`` functions call each other the
same way.  ``ObjectiveSpec.score_many`` is patched on the class.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

from spans import ATTRS, NAME, span_self_times

ROOT_SPAN = "bench.pass"

# span name -> per-layer metric of its self time; results_to_csv has no
# children, so its self time is its whole time
SELF_TIME_METRICS = {
    "engine.rng": "engine.rng.self_s",
    "engine.step": "engine.step.self_s",
    "engine.randomized_death": "engine.randomized_death.self_s",
    "engine.run": "engine.run.self_s",
    "objectives.score_many": "objectives.score_many.self_s",
    "harness.success": "harness.success.self_s",
    "harness.run_plan": "harness.run_plan.self_s",
    "harness.results_to_csv": "harness.results_to_csv.s",
    "topology.build": "topology.build.self_s",
    "graph_metrics.compute_metrics": "graph_metrics.compute_metrics.self_s",
    "graph_metrics.is_connected": "graph_metrics.is_connected.self_s",
    "graph_metrics.average_geodesic": "graph_metrics.average_geodesic.self_s",
    "graph_metrics.shortest_path": "graph_metrics.shortest_path.self_s",
    "graph_metrics.natural_connectivity": "graph_metrics.natural_connectivity.self_s",
    "graph_metrics.spectrum": "graph_metrics.spectrum.self_s",
    "graph_metrics.clustering": "graph_metrics.clustering.self_s",
    "graph_metrics.small_world_ness": "graph_metrics.small_world_ness.self_s",
    ROOT_SPAN: "bench.pass.self_s",
}

# spans of the traced set-up, reported as their whole time
SETUP_METRICS = {
    "plans.parse_plan": "plans.parse_plan.s",
    "topology.build_spectrum": "topology.build_spectrum.s",
}

SWARM_SIZES = (100, 400, 1600)
OBJECTIVES = ("shekel", "rastrigin")

# counts that must repeat exactly between two traced passes
COUNTERS = (
    "engine.rng.calls",
    "engine.run.calls",
    "engine.iterations",
    "engine.agent_iters",
    "objectives.score_many.calls",
    "objectives.score_many.points",
    "harness.success.calls",
    "topology.build.calls",
    "topology.build.useful_ratio",
    "graph_metrics.shortest_path.calls",
    "graph_metrics.shortest_path.ops_computed",
    "trace.spans",
)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "us_per" in name:
        return "us"
    if "ns_per" in name:
        return "ns"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"


# every metric the traced run prints, with its unit; a metric of a layer
# that a workload does not reach reads 0
PER_LAYER_METRICS = [
    *SELF_TIME_METRICS.values(),
    *(f"engine.step.self_us_per_iter.n{n}" for n in SWARM_SIZES),
    "engine.rng.us_per_call",
    *(f"objectives.score_many.ns_per_point.{o}" for o in OBJECTIVES),
    *COUNTERS,
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.overhead_frac",
    *SETUP_METRICS.values(),
    "host.steal_frac",
]
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_METRICS}


@contextmanager
def instrumented(tracer):
    """Wrap the program's layer entry points while the block runs."""
    from swarmtopo import engine, graph_metrics, harness, objectives, plans, topology

    wrap = tracer.wrap
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def traced(owner, attr, name, attrs=None):
        patch(owner, attr, wrap(name, getattr(owner, attr), attrs))

    make_rand_source = engine.make_rand_source
    success_predicate = harness.success_predicate

    def shortest_path_ops(args, kwargs, dist):
        # one boolean n x n product per BFS level, the last one empty
        n = dist.shape[0]
        return {"ops": (int(dist.max()) + 1) * n**3}

    def run_attrs(args, kwargs, result):
        return {"n": args[0].n_agents, "iterations": result.iterations_executed}

    try:
        patch(engine, "make_rand_source",
              lambda seed: wrap("engine.rng", make_rand_source(seed)))
        traced(engine, "step", "engine.step", lambda a, k, r: {"n": a[0].n_agents})
        traced(engine, "randomized_death", "engine.randomized_death")
        traced(engine, "run", "engine.run", run_attrs)
        traced(harness, "run", "engine.run", run_attrs)
        traced(objectives.ObjectiveSpec, "score_many", "objectives.score_many",
               lambda a, k, r: {"points": len(r), "objective": a[0].name})
        patch(harness, "success_predicate",
              lambda *a, **k: wrap("harness.success", success_predicate(*a, **k)))
        traced(harness, "run_plan", "harness.run_plan")
        traced(harness, "results_to_csv", "harness.results_to_csv")
        traced(harness, "build_topology", "topology.build",
               lambda a, k, r: {"graph": a[0].topology_id()})
        traced(harness, "average_geodesic", "graph_metrics.average_geodesic")
        traced(harness, "natural_connectivity", "graph_metrics.natural_connectivity")
        for attr, name in (
            ("compute_metrics", "graph_metrics.compute_metrics"),
            ("is_connected", "graph_metrics.is_connected"),
            ("average_geodesic", "graph_metrics.average_geodesic"),
            ("natural_connectivity", "graph_metrics.natural_connectivity"),
            ("graph_spectrum", "graph_metrics.spectrum"),
            ("clustering_coefficient", "graph_metrics.clustering"),
            ("small_world_ness", "graph_metrics.small_world_ness"),
        ):
            traced(graph_metrics, attr, name)
        traced(graph_metrics, "shortest_path_matrix", "graph_metrics.shortest_path",
               shortest_path_ops)
        traced(plans, "parse_plan", "plans.parse_plan")
        traced(topology, "build_spectrum", "topology.build_spectrum")
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span is ROOT_SPAN."""
    own = span_self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    graphs = set()
    for span, seconds in zip(spans, own):
        name, attrs = span[NAME], span[ATTRS] or {}
        calls[name] += 1
        by_name[name] += seconds
        if name == "engine.step":
            sums[f"step.s.{attrs['n']}"] += seconds
            sums[f"step.calls.{attrs['n']}"] += 1
            sums["agent_iters"] += attrs["n"]
        elif name == "engine.run":
            sums["iterations"] += attrs["iterations"]
        elif name == "objectives.score_many":
            sums[f"score.s.{attrs['objective']}"] += seconds
            sums[f"score.points.{attrs['objective']}"] += attrs["points"]
            sums["points"] += attrs["points"]
        elif name == "topology.build":
            graphs.add(attrs["graph"])
        elif name == "graph_metrics.shortest_path":
            sums["ops"] += attrs["ops"]

    def per(numerator: float, denominator: float, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    out = {metric: by_name.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    out.update({
        "engine.rng.calls": calls["engine.rng"],
        "engine.rng.us_per_call": per(by_name.get("engine.rng", 0.0), calls["engine.rng"], 1e6),
        "engine.run.calls": calls["engine.run"],
        "engine.iterations": int(sums["iterations"]),
        "engine.agent_iters": int(sums["agent_iters"]),
        "objectives.score_many.calls": calls["objectives.score_many"],
        "objectives.score_many.points": int(sums["points"]),
        "harness.success.calls": calls["harness.success"],
        "topology.build.calls": calls["topology.build"],
        "topology.build.useful_ratio": per(len(graphs), calls["topology.build"], 1.0),
        "graph_metrics.shortest_path.calls": calls["graph_metrics.shortest_path"],
        "graph_metrics.shortest_path.ops_computed": int(sums["ops"]),
        "trace.spans": len(spans),
        "trace.wall_s": spans[0][2] - spans[0][1],
    })
    for n in SWARM_SIZES:
        out[f"engine.step.self_us_per_iter.n{n}"] = per(
            sums[f"step.s.{n}"], sums[f"step.calls.{n}"], 1e6
        )
    for objective in OBJECTIVES:
        out[f"objectives.score_many.ns_per_point.{objective}"] = per(
            sums[f"score.s.{objective}"], sums[f"score.points.{objective}"], 1e9
        )
    return out


def setup_metrics(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        totals[name] += end - start
    return {metric: totals.get(name, 0.0) for name, metric in SETUP_METRICS.items()}
