"""Golden-output gate: sha256 of engine results, of results CSVs, of
the per-iteration trace files of ``swarmtopo run --trace-dir`` and of a
metrics CSV.

The engine digests were taken from the dense-mask leader selection that
the neighbour-table path replaced, so they pin that every refactor of
the engine keeps the exact bytes.  The metrics digest was taken from
the boolean-matmul BFS and the edge-set multi-ring that the float32
BFS and the one-row circulant multi-ring replaced.  A digest may change only with a
change that fixes a bug and says so.

The engine grid runs every topology kind at n=36 (star, scale-free and
core-periphery give wide, ragged candidate sets; the complete graph
takes the one-argmax path), plus the one-agent complete graph, with no
loss or 30% loss, each agent a candidate for its own leader.  Its
digest was derived from an engine that could also leave the agent out
of its own candidates: that engine's grid ran each topology with the
agent in and then out, at seed ``len(lines) + 100 * index``, and printed
the flag after the topology id; the digest is the sha256 of its agent-in
lines (22 of 44; seed ``104 * index + k`` for the k-th death fraction)
with the flag token removed.  The plan is the acceptance plan cut to two repetitions of 150
iterations; the two built-in sweeps are cut to one repetition of 50
iterations, the spectrum to 10 graphs per segment (their digests were
taken from the engine that derived its random keys with one-element
numpy arrays).  The plan CSV and trace digests were taken from the
engine that ran each run on its own, before runs were batched across
cells.  The metrics CSV is the ``swarmtopo metrics`` output,
omega sampler seed 0, over the 40-node spectrum with 10 graphs per
segment, a small-world graph, and two disconnected graphs.  The d = 10
digest runs a Rastrigin batch and a Griewank batch at dimension 10 on a
ring, a star and a small-world graph at n=36, with no loss and 30% loss,
for 100 iterations; it was taken from the engine that stored its state
row-major, ``(B, N, d)`` in C order, and summed the separable objectives
with ``sum(axis=1)``, before the state moved to the coordinate-major
layout, so it pins that a summation over ten coordinates keeps its bits
in either layout.  Each takes
a few seconds or less.  The digests were taken with numpy 2.4 on
x86-64.
"""

from __future__ import annotations

import hashlib

import pytest

from swarmtopo.cli import METRICS_COLUMNS, main
from swarmtopo.engine import SwarmBatch, SwarmConfig, run
from swarmtopo.graph_metrics import compute_metrics
from swarmtopo.harness import (
    SuccessCriterion,
    death_fraction_to_prob,
    results_to_csv,
    run_plan,
    success_predicate,
)
from swarmtopo.objectives import default_spec
from swarmtopo.plans import builtin_plan_text, parse_plan
from swarmtopo.topology import (
    TOPOLOGY_KINDS,
    Graph,
    TopologySpec,
    build_spectrum,
    build_topology,
    edge_list_text,
    spectrum_points,
)

GRID_SPECS = (
    TopologySpec("complete", node_count=36),
    TopologySpec("complete", node_count=1),
    TopologySpec("star", node_count=36),
    TopologySpec("ring", node_count=36),
    TopologySpec("core-periphery", node_count=36, core_size=6),
    TopologySpec("ring-core-star", node_count=36, hub_count=6),
    TopologySpec("multi-ring", node_count=36, ring_levels=3),
    TopologySpec("von-neumann", rows=6, cols=6),
    TopologySpec("scale-free", node_count=36, attach_count=2, seed=3),
    TopologySpec("random", node_count=36, edge_prob=0.15, seed=3),
    TopologySpec("small-world", node_count=36, degree=4, rewire_prob=0.2, seed=3),
)
GRID_ITERS = 150

GRID_SHA256 = "e8414d748e66a9152b92366d0d3ad6eba29abe1ea690a969d32dcaebbc715c53"

# d = 10 batches: each objective runs one batch of six rows, three graphs
# at n=36 by two loss levels, and the digest covers every row's outcome
# and its per-iteration best score, so a change in the last bit of any
# objective sum shows
HIGH_D_OBJECTIVES = ("rastrigin", "griewank")
HIGH_D_DIMENSION = 10
HIGH_D_SPECS = (
    TopologySpec("ring", node_count=36),
    TopologySpec("star", node_count=36),
    TopologySpec("small-world", node_count=36, degree=4, rewire_prob=0.2, seed=3),
)
HIGH_D_ITERS = 100

HIGH_D_SHA256 = "4131b8e5ff2c73c9de7b2a5469e4b73b94c0a629098264cafbfc9f8da9cce34a"

REDUCED_ACCEPTANCE_PLAN = """\
version = 1
base_seed = 1
repetitions = 2
max_iters = 150
objectives = shekel
death_fractions = 0, 0.30
topology = complete n=100
topology = star n=100
topology = ring n=100
topology = multi-ring n=100 ring_levels=9
topology = small-world n=100 degree=10 rewire_prob=0.1 seed=7
"""

PLAN_CSV_SHA256 = "9c31a48d1b0e0a78844466e0b41ab9632652a98fb34985e9728c7a597f5cef0a"

# built-in plan -> (text replacements that reduce it, results CSV sha256)
REDUCED_BUILTIN_PLANS = {
    "reference-grid": (
        {"repetitions = 50": "repetitions = 1\nmax_iters = 50"},
        "cc9700145244f59752aff39b7e967a965793959b451dccf6bf08f8d3ee38f82e",
    ),
    "spectrum-full": (
        {
            "repetitions = 50": "repetitions = 1\nmax_iters = 50",
            "per_segment=80": "per_segment=10",
        },
        "12ba98347a9ded3458ed44030a18670a94afa30bcbbc0c44ff2eab74660a6d4a",
    ),
}

# a plan whose 0.9 loss kills some swarms early, so that traces end at
# different iterations; its --trace-dir files (60) are hashed by name and
# content in sorted name order
TRACE_PLAN = """\
version = 1
base_seed = 5
repetitions = 2
max_iters = 60
death_horizon = 10
objectives = shekel, rastrigin
death_fractions = 0, 0.3, 0.9
topology = complete n=20
topology = complete n=2
topology = star n=20
topology = ring n=20
topology = small-world n=20 degree=4 rewire_prob=0.2 seed=3
"""

TRACE_DIR_SHA256 = "3f1b75b9cc07bde6f1777375b90a0c3e0c3c6fb452aa4f2248e24ebaafe66493"

METRICS_EXTRA_SPECS = (
    TopologySpec("small-world", node_count=40, degree=4, rewire_prob=0.2, seed=3),
    TopologySpec("random", node_count=40, edge_prob=0.12, seed=3),  # disconnected
)

METRICS_CSV_SHA256 = "1b0edfbac56dd88a9ec943c1bc4e468febb4f49d119e101cc9116864f43d7b66"


# every kind, with each range's edge cases: the smallest graphs, core and
# hub counts of 1 and n, the multi-ring at n // 2 levels (the complete
# graph), and each randomized kind at three seeds, random at p = 0, 0.1
# and 1, small-world at rewire 0, 0.2 and 1 (one lattice complete, so no
# edge can move); the digest was taken from the public make_* builders
# the kind table's private ones replaced, so it pins their draws in order
EDGE_LIST_SPECS = (
    TopologySpec("complete", node_count=1),
    TopologySpec("complete", node_count=2),
    TopologySpec("complete", node_count=9),
    TopologySpec("star", node_count=2),
    TopologySpec("star", node_count=9),
    TopologySpec("ring", node_count=3),
    TopologySpec("ring", node_count=9),
    *(TopologySpec("core-periphery", node_count=n, core_size=c)
      for n, c in ((1, 1), (9, 1), (9, 4), (9, 9))),
    *(TopologySpec("ring-core-star", node_count=n, hub_count=h)
      for n, h in ((1, 1), (9, 1), (9, 2), (9, 4), (9, 9))),
    *(TopologySpec("multi-ring", node_count=n, ring_levels=r)
      for n, r in ((3, 1), (9, 2), (9, 4), (10, 5))),
    TopologySpec("von-neumann", rows=3, cols=3),
    TopologySpec("von-neumann", rows=3, cols=5),
    *(TopologySpec("scale-free", node_count=n, attach_count=m, seed=seed)
      for n, m in ((2, 1), (20, 2), (12, 11)) for seed in (0, 1, 7)),
    *(TopologySpec("random", node_count=20, edge_prob=p, seed=seed)
      for p in (0.0, 0.1, 1.0) for seed in (0, 1, 7)),
    *(TopologySpec("small-world", node_count=n, degree=k, rewire_prob=p, seed=seed)
      for n, k in ((20, 4), (9, 8)) for p in (0.0, 0.2, 1.0) for seed in (0, 1, 7)),
)

EDGE_LIST_SHA256 = "b7a22eb4f63a2d443f1f01a0674878f283eaadd0740e18ed735d5cdd54bc54c1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def engine_grid_text() -> str:
    """One line per run: the cell, then the ``run`` result tuple."""
    objective = default_spec("shekel")
    predicate = success_predicate(SuccessCriterion(), objective)
    lines = []
    for index, spec in enumerate(GRID_SPECS):
        graph = build_topology(spec)
        for k, death_fraction in enumerate((0.0, 0.3)):
            config = SwarmConfig(
                n_agents=graph.node_count,
                max_iters=GRID_ITERS,
                death_prob=death_fraction_to_prob(death_fraction, GRID_ITERS),
                seed=104 * index + k,
            )
            result = run(config, graph, objective, predicate)
            outcome = (
                result.converged,
                result.convergence_iteration,
                result.winners,
                result.survivors,
                result.iterations_executed,
            )
            lines.append(f"{spec.topology_id()} {death_fraction} {outcome}")
    return "\n".join(lines) + "\n"


def high_dimension_text() -> str:
    """One line per batch row: the objective and cell, the row's outcome,
    then its best score after every iteration."""
    lines = []
    for name in HIGH_D_OBJECTIVES:
        objective = default_spec(name, HIGH_D_DIMENSION)
        predicate = success_predicate(SuccessCriterion(), objective)
        cells = [(spec, loss) for spec in HIGH_D_SPECS for loss in (0.0, 0.3)]
        configs = [
            SwarmConfig(
                n_agents=36,
                max_iters=HIGH_D_ITERS,
                death_prob=death_fraction_to_prob(loss, HIGH_D_ITERS),
                seed=row,
            )
            for row, (_, loss) in enumerate(cells)
        ]
        graphs = [build_topology(spec) for spec, _ in cells]
        batch = run(SwarmBatch(configs), graphs, objective, predicate, record_trace=True)
        for (spec, loss), row in zip(cells, batch.rows):
            outcome = (
                row.converged,
                row.convergence_iteration,
                row.winners,
                row.survivors,
                row.iterations_executed,
            )
            lines.append(f"{name} {spec.topology_id()} {loss} {outcome} {row.trace[1]!r}")
    return "\n".join(lines) + "\n"


def _optional_repr(value) -> str:
    return "" if value is None else repr(float(value))


def metrics_csv_text() -> str:
    """The ``swarmtopo metrics`` CSV, one row per graph."""
    points = spectrum_points(40, 10)
    named = [(p.spec.topology_id(), g) for p, g in zip(points, build_spectrum(40, 10))]
    named += [(spec.topology_id(), build_topology(spec)) for spec in METRICS_EXTRA_SPECS]
    named.append(("two-paths", Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])))
    lines = [",".join(METRICS_COLUMNS)]
    for topology_id, graph in named:
        m = compute_metrics(graph, rng=0, omega_samples=10)
        lines.append(
            ",".join((
                topology_id,
                str(m.node_count),
                str(m.edge_count),
                _optional_repr(m.average_path_length),
                repr(m.natural_connectivity),
                repr(m.clustering_coefficient),
                _optional_repr(m.small_world_ness),
                "true" if m.connected else "false",
            ))
        )
    return "\n".join(lines) + "\n"


def edge_lists_text() -> str:
    """Each spec's id, then its graph's edge list."""
    return "".join(
        f"{spec.topology_id()}\n{edge_list_text(build_topology(spec))}"
        for spec in EDGE_LIST_SPECS
    )


def test_grid_covers_every_kind():
    assert {spec.kind for spec in GRID_SPECS} == set(TOPOLOGY_KINDS)
    assert {spec.kind for spec in EDGE_LIST_SPECS} == set(TOPOLOGY_KINDS)


def test_edge_list_digest():
    assert _sha256(edge_lists_text()) == EDGE_LIST_SHA256


def test_engine_grid_digest():
    assert _sha256(engine_grid_text()) == GRID_SHA256


def test_high_dimension_digest():
    assert _sha256(high_dimension_text()) == HIGH_D_SHA256


def test_reduced_acceptance_csv_digest():
    csv = results_to_csv(run_plan(parse_plan(REDUCED_ACCEPTANCE_PLAN)))
    assert _sha256(csv) == PLAN_CSV_SHA256


def reduced_builtin_plan_text(name: str) -> str:
    text = builtin_plan_text(name)
    for old, new in REDUCED_BUILTIN_PLANS[name][0].items():
        assert text.count(old) == 1, (name, old)
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("name", sorted(REDUCED_BUILTIN_PLANS))
def test_reduced_builtin_plan_csv_digest(name):
    csv = results_to_csv(run_plan(parse_plan(reduced_builtin_plan_text(name))))
    assert _sha256(csv) == REDUCED_BUILTIN_PLANS[name][1]


def test_metrics_csv_digest():
    assert _sha256(metrics_csv_text()) == METRICS_CSV_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_trace_dir_digest(tmp_path, workers):
    plan = tmp_path / "plan.txt"
    plan.write_text(TRACE_PLAN, encoding="ascii")
    traces = tmp_path / "traces"
    code = main([
        "run", str(plan), "--out-prefix", str(tmp_path / "results"),
        "--trace-dir", str(traces), "--workers", workers,
    ])
    assert code == 0
    digest = hashlib.sha256()
    files = sorted(traces.iterdir())
    for path in files:
        digest.update(path.name.encode("ascii") + b"\n" + path.read_bytes())
    assert len(files) == 60
    assert digest.hexdigest() == TRACE_DIR_SHA256
    # neither tracing nor the worker count changes the results bytes
    assert main(["run", str(plan), "--out-prefix", str(tmp_path / "serial")]) == 0
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
