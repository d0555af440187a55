"""The benchmark's workloads: inputs made from the seed, one pass, its digest.

Each workload builds its inputs in ``setup`` (timed as set-up) and
runs one pass over them in ``run_pass``, which returns the sha256 of
the pass's output and the number of work items done.  ``run_pass``
calls into swarmtopo through module attributes (``harness.run_plan``,
``engine.run``, ...) so that the traced run can wrap those names.

Why these three:

* ``paper-sweep`` is the paper's experiment on the user's real path,
  plan text to results CSV.  Its time goes to the RNG, ``step`` and the
  Shekel kernel at n=100; graph building and metrics are under 1%.
* ``large-swarm`` runs the engine at n=400 and n=1600, where the dense
  N x N leader mask in ``step`` dominates and the RNG barely shows.
  Graph metrics stay off this path: all-pairs BFS at n=1600 takes tens
  of seconds per graph.
* ``spectrum-metrics`` is the ``swarmtopo metrics`` path over the
  240-graph spectrum family.  All-pairs BFS dominates and the engine is
  not used; BFS depth runs from 1 level (complete) to 50 (ring), so a
  BFS change shows on the ring end and eigen and clustering costs carry
  the dense end.
"""

from __future__ import annotations

import hashlib

DEFAULT_SEED = 1

# sha256 of each pass's output at DEFAULT_SEED and full size
GOLDEN = {
    "paper-sweep": "a87d2d11dd0c3179d981ea86c2c422302029144e6cb27b69258d2082810fd560",
    "large-swarm": "cfd139af7c26275c9aa66ffc55b32e90988ac43540ab6bf060f10bd29a1eed04",
    "spectrum-metrics": "b23734cf791d87f00823831db371822d3979575c2722e2db1d3e2e47413b145a",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class PaperSweep:
    """``run_plan`` then ``results_to_csv`` on the acceptance-plan shape:
    complete, star, ring, multi-ring r9 and small-world k10 p0.1 at
    n=100, 4-D Shekel, death fractions 0 and 0.30, 1000 iterations, one
    repetition per cell (ten PSO runs per pass)."""

    name = "paper-sweep"

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.n, self.levels, self.degree, self.max_iters = 12, 2, 4, 20
        else:
            self.n, self.levels, self.degree, self.max_iters = 100, 9, 10, 1000

    def plan_text(self, seed: int) -> str:
        n = self.n
        return (
            "version = 1\n"
            f"base_seed = {seed}\n"
            "repetitions = 1\n"
            f"max_iters = {self.max_iters}\n"
            "objectives = shekel\n"
            "death_fractions = 0, 0.30\n"
            f"topology = complete n={n}\n"
            f"topology = star n={n}\n"
            f"topology = ring n={n}\n"
            f"topology = multi-ring n={n} ring_levels={self.levels}\n"
            f"topology = small-world n={n} degree={self.degree} rewire_prob=0.1 seed={seed}\n"
        )

    def setup(self, seed: int):
        from swarmtopo import plans

        return plans.parse_plan(self.plan_text(seed))

    def run_pass(self, plan) -> tuple[str, int]:
        from swarmtopo import harness

        text = harness.results_to_csv(harness.run_plan(plan))
        runs = (
            len(plan.topologies) * len(plan.objectives)
            * len(plan.death_fractions) * plan.repetitions
        )
        return _sha256(text), runs


class LargeSwarm:
    """The README quick-start call ``run(SwarmConfig(...), graph,
    objective, qualifies)`` on ring, von Neumann, small-world k10 and
    complete graphs at n=400 and n=1600, 2-D Rastrigin, death fractions
    0 and 0.30 reached by the last of 40 iterations (16 runs per pass).
    The digest covers each run's (converged, convergence_iteration,
    winners, survivors, iterations_executed)."""

    name = "large-swarm"

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.sides, self.degree, self.max_iters = (4, 6), 4, 5
        else:
            self.sides, self.degree, self.max_iters = (20, 40), 10, 40

    def setup(self, seed: int):
        from swarmtopo import engine, harness, objectives, topology

        objective = objectives.default_spec("rastrigin")
        cases = []
        for side in self.sides:
            n = side * side
            specs = (
                topology.TopologySpec("ring", node_count=n),
                topology.TopologySpec("von-neumann", rows=side, cols=side),
                topology.TopologySpec(
                    "small-world", node_count=n, degree=self.degree,
                    rewire_prob=0.1, seed=seed,
                ),
                topology.TopologySpec("complete", node_count=n),
            )
            for spec in specs:
                graph = topology.build_topology(spec)
                for fraction in (0.0, 0.30):
                    config = engine.SwarmConfig(
                        n_agents=n,
                        max_iters=self.max_iters,
                        death_prob=harness.death_fraction_to_prob(fraction, self.max_iters),
                        seed=harness.derive_seed(
                            seed, spec.topology_id(), objective.name, fraction, 0
                        ),
                    )
                    cases.append((config, graph))
        return objective, cases

    def run_pass(self, inputs) -> tuple[str, int]:
        from swarmtopo import engine, harness

        objective, cases = inputs
        # made here, not in set-up, so that a traced pass wraps its own
        qualifies = harness.success_predicate(harness.SuccessCriterion(), objective)
        lines = []
        for config, graph in cases:
            result = engine.run(config, graph, objective, qualifies)
            lines.append(
                repr((
                    result.converged, result.convergence_iteration, result.winners,
                    result.survivors, result.iterations_executed,
                ))
            )
        return _sha256("\n".join(lines) + "\n"), len(cases)


class SpectrumMetrics:
    """``build_spectrum(100, 80)``, then ``compute_metrics`` on each of
    its 240 graphs, written as the ``swarmtopo metrics`` CSV.

    The omega sampler keeps the CLI's default seed 0 whatever the
    workload seed: the pass time moves by about 13% from one sampler
    seed to another (a few sparse graphs draw up to 200 random
    reference graphs), which would hide the changes this workload is
    meant to show.  The spectrum itself has no randomness, so this
    workload's inputs are the same at every seed.
    """

    name = "spectrum-metrics"

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.per_segment = (12, 3) if tiny else (100, 80)

    def setup(self, seed: int):
        from swarmtopo import cli, topology

        ids = [p.spec.topology_id() for p in topology.spectrum_points(self.n, self.per_segment)]
        graphs = topology.build_spectrum(self.n, self.per_segment)
        return cli.METRICS_COLUMNS, list(zip(ids, graphs))

    def run_pass(self, inputs) -> tuple[str, int]:
        from swarmtopo import graph_metrics

        columns, graphs = inputs
        lines = [",".join(columns)]
        for topology_id, graph in graphs:
            m = graph_metrics.compute_metrics(graph, rng=0, omega_samples=10)
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
        return _sha256("\n".join(lines) + "\n"), len(graphs)


def _optional_repr(value) -> str:
    return "" if value is None else repr(float(value))


WORKLOADS = {w.name: w for w in (PaperSweep, LargeSwarm, SpectrumMetrics)}
