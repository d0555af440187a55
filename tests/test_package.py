"""The package's public surface, and the names the benchmark wraps."""

from dataclasses import fields
import importlib
import inspect
from pathlib import Path
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import swarmtopo

MODULES = ["swarmtopo"] + [
    f"swarmtopo.{info.name}" for info in pkgutil.iter_modules(swarmtopo.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # raises on a name that does not resolve
    public = importlib.import_module(module).__all__
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(public)


# the package's public names, pinned: a change that adds or removes one
# edits this list and says why.  A kind's graph is built from its
# TopologySpec, any other from its edges; the RNG channels and source, the Shekel table, the spectrum point
# type and the lower-level graph metrics stay attributes of their modules
PUBLIC_NAMES = [
    "AggregateMetrics", "BUILTIN_PLAN_NAMES", "BatchResult", "ExperimentPlan", "Graph",
    "GraphMetrics", "OBJECTIVE_NAMES", "ObjectiveSpec", "PlotSpec", "RunResult",
    "SUCCESS_MODES", "SuccessCriterion", "SwarmBatch", "SwarmConfig", "TOPOLOGY_KINDS",
    "TopologySpec", "__version__", "average_geodesic", "build_spectrum",
    "build_topology", "builtin_plan_text", "clustering_coefficient", "compute_metrics",
    "death_fraction_to_prob", "default_spec", "derive_seed", "edge_list_text",
    "natural_connectivity", "parse_edge_list", "parse_plan", "parse_results_csv",
    "parse_topology_line", "plan_to_text", "render_results_svg", "results_to_csv",
    "results_to_json", "run", "run_plan", "small_world_ness", "spectrum_points",
    "success_predicate", "trade_off",
]


def test_public_surface_is_pinned():
    assert sorted(swarmtopo.__all__) == PUBLIC_NAMES


# the engine's public names, pinned: its loop parts (SwarmState,
# Neighborhoods, initialize, step, randomized_death) trust ``run``'s
# checks and stay module attributes only
ENGINE_NAMES = [
    "BatchResult", "CHANNEL_DEATH", "CHANNEL_INIT_POSITION", "CHANNEL_INIT_VELOCITY",
    "CHANNEL_VELOCITY_SOCIAL", "RunResult", "SwarmBatch", "SwarmConfig",
    "make_rand_source", "run",
]


def test_engine_surface_is_pinned():
    from swarmtopo import engine

    assert sorted(engine.__all__) == ENGINE_NAMES


# a graph's public attributes, pinned: it is made one way,
# Graph(node_count, edges), and dense is its one n x n read
GRAPH_ATTRIBUTES = ["candidates", "dense", "edge_count", "edges", "is_complete", "node_count"]


def test_graph_surface_is_pinned():
    from swarmtopo.topology import Graph

    assert sorted(name for name in dir(Graph) if not name.startswith("_")) == GRAPH_ATTRIBUTES
    assert list(inspect.signature(Graph).parameters) == ["node_count", "edges"]


def test_swarm_config_holds_only_what_a_plan_sets():
    # the update's constants are fixed in the engine; a config carries
    # the agent count, the iteration budget, the death probability and the seed
    assert [field.name for field in fields(swarmtopo.SwarmConfig)] == [
        "n_agents", "max_iters", "death_prob", "seed",
    ]


def test_benchmark_wraps_and_restores_its_names(monkeypatch):
    # the traced benchmark run patches swarmtopo names by attribute; a
    # renamed or removed one fails here with an AttributeError
    from swarmtopo import engine, graph_metrics, harness, objectives, plans, topology

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    owners = (engine, graph_metrics, harness, objectives, objectives.ObjectiveSpec,
              plans, topology)
    before = [dict(vars(owner)) for owner in owners]
    tracer = SimpleNamespace(wrap=lambda name, function, attrs=None: function)
    with layers.instrumented(tracer):
        assert engine.make_rand_source is not before[0]["make_rand_source"]
    for owner, saved in zip(owners, before):
        assert vars(owner).keys() == saved.keys()
        for attr, original in saved.items():
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_import_loads_no_process_pool():
    # the pool's modules load only when run_plan runs with workers > 1
    source = Path(swarmtopo.__file__).resolve().parents[1]
    probe = (
        f"import sys; sys.path.insert(0, {str(source)!r}); import swarmtopo, swarmtopo.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_import_and_plan_parsing_compute_no_certificate():
    # a settle score costs milliseconds; it and the floor score are
    # computed when a run asks for its predicate, never at import or
    # while a plan is parsed
    source = Path(swarmtopo.__file__).resolve().parents[1]
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = (
        f"import sys; sys.path[:0] = [{str(source)!r}, {str(bench)!r}]; "
        "import swarmtopo, swarmtopo.cli, workloads; "
        "from swarmtopo import harness, plans; "
        "plan = plans.parse_plan(workloads.PaperSweep().plan_text(1)); "
        "assert plan.objectives[0].name == 'shekel'; "
        "print(harness._settle_score.cache_info().currsize, "
        "harness._floor_score.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 0"
