"""The package's public surface, and the names the benchmark wraps."""

import importlib
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
# edits this list and says why
PUBLIC_NAMES = [
    "AggregateMetrics", "BUILTIN_PLAN_NAMES", "BatchResult", "CHANNEL_DEATH",
    "CHANNEL_INIT_POSITION", "CHANNEL_INIT_VELOCITY", "CHANNEL_VELOCITY_PERSONAL",
    "CHANNEL_VELOCITY_SOCIAL", "ExperimentPlan", "Graph", "GraphMetrics",
    "OBJECTIVE_NAMES", "ObjectiveSpec", "PlotSpec", "RunResult", "SUCCESS_MODES",
    "SpectrumPoint", "SuccessCriterion", "SwarmBatch", "SwarmConfig", "TOPOLOGY_KINDS",
    "TopologySpec", "__version__", "average_geodesic", "build_spectrum",
    "build_topology", "builtin_plan_text", "clustering_coefficient", "compute_metrics",
    "death_fraction_to_prob", "default_spec", "derive_seed", "edge_list_text",
    "graph_spectrum", "is_connected", "make_complete", "make_core_periphery",
    "make_multi_ring", "make_rand_source", "make_random", "make_ring",
    "make_ring_core_star", "make_scale_free", "make_small_world", "make_star",
    "make_von_neumann", "natural_connectivity", "parse_edge_list", "parse_plan",
    "parse_results_csv", "parse_topology_line", "plan_to_text", "render_results_svg",
    "results_to_csv", "results_to_json", "run", "run_plan", "shekel_params",
    "shortest_path_matrix", "small_world_ness", "spectrum_points", "success_predicate",
    "trade_off",
]


def test_public_surface_is_pinned():
    assert sorted(swarmtopo.__all__) == PUBLIC_NAMES


# the engine's public names, pinned: its loop parts (SwarmState,
# Neighborhoods, initialize, step, randomized_death) trust ``run``'s
# checks and stay module attributes only
ENGINE_NAMES = [
    "BatchResult", "CHANNEL_DEATH", "CHANNEL_INIT_POSITION", "CHANNEL_INIT_VELOCITY",
    "CHANNEL_VELOCITY_PERSONAL", "CHANNEL_VELOCITY_SOCIAL", "RunResult", "SwarmBatch",
    "SwarmConfig", "make_rand_source", "run",
]


def test_engine_surface_is_pinned():
    from swarmtopo import engine

    assert sorted(engine.__all__) == ENGINE_NAMES


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
