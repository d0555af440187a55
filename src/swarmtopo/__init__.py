"""Swarm optimization over explicit communication topologies.

Particle swarms exchange information along a graph; this package builds
those graphs (a parametric spectrum from complete through star and ring,
plus lattice and random families), measures them (path length, natural
connectivity, clustering, small-world-ness), and runs seeded swarm
experiments with random agent deactivation, aggregating global success
rate, convergence time, surviving winners, and a trade-off score.
"""

from types import ModuleType as _ModuleType

from .topology import (
    Graph,
    TopologySpec,
    SpectrumPoint,
    TOPOLOGY_KINDS,
    build_topology,
    build_spectrum,
    spectrum_points,
    make_complete,
    make_star,
    make_ring,
    make_core_periphery,
    make_ring_core_star,
    make_multi_ring,
    make_von_neumann,
    make_scale_free,
    make_random,
    make_small_world,
    parse_edge_list,
    edge_list_text,
)
from .graph_metrics import (
    GraphMetrics,
    compute_metrics,
    shortest_path_matrix,
    average_geodesic,
    is_connected,
    graph_spectrum,
    natural_connectivity,
    clustering_coefficient,
    small_world_ness,
)
from .objectives import OBJECTIVE_NAMES, ObjectiveSpec, default_spec, shekel_params
from .engine import (
    CHANNEL_DEATH,
    CHANNEL_INIT_POSITION,
    CHANNEL_INIT_VELOCITY,
    CHANNEL_VELOCITY_PERSONAL,
    CHANNEL_VELOCITY_SOCIAL,
    SwarmConfig,
    SwarmBatch,
    RunResult,
    BatchResult,
    make_rand_source,
    run,
)
from .harness import (
    SuccessCriterion,
    ExperimentPlan,
    AggregateMetrics,
    SUCCESS_MODES,
    success_predicate,
    death_fraction_to_prob,
    trade_off,
    derive_seed,
    run_plan,
    results_to_csv,
    results_to_json,
    parse_results_csv,
)
from .plans import (
    BUILTIN_PLAN_NAMES,
    builtin_plan_text,
    parse_plan,
    plan_to_text,
    parse_topology_line,
)
from .svgplot import PlotSpec, render_results_svg

__version__ = "0.1.0"

# the public surface is every name imported above, listed once there
__all__ = ["__version__"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
