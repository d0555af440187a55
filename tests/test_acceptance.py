"""Acceptance gate: nine release checks, one test (and one pytest
result line) per criterion.

Every expected value here was produced away from the library code:
closed-form eigenvalues, a pure-Python Floyd-Warshall, a hand-executed
update-rule trace, a brute-force sum over the standard Shekel table,
and hand-evaluated trade-off arithmetic.  The desk-scale sweep checks
(criteria 6 and 7) are statistical: they run a pinned 20-repetition
plan and assert trend inequalities, not digits.

The sweep fixture takes ~11 s on a 2-core Xeon VM (the plan's 200 runs
run as 10 batches); everything else is seconds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from swarmtopo.engine import (
    CHANNEL_DEATH,
    Neighborhoods,
    SwarmBatch,
    SwarmConfig,
    initialize,
    make_rand_source,
    step,
)
from swarmtopo.graph_metrics import (
    average_geodesic,
    graph_spectrum,
    natural_connectivity,
    shortest_path_matrix,
)
from swarmtopo.harness import (
    death_fraction_to_prob,
    results_to_csv,
    run_plan,
    trade_off,
)
from swarmtopo.objectives import default_spec
from swarmtopo.plans import parse_plan
from swarmtopo.topology import build_spectrum

from hand_trace import TRACE, V_MAX, Parabola, trace_rand, trace_start
from strategies import graph_of


# ---------------------------------------------------------------- 1


def test_criterion_1_five_node_spectra_and_connectivity():
    golden = 2.0 * math.cos(2.0 * math.pi / 5.0)  # 0.618...
    cases = [
        (graph_of("complete", node_count=5), [4, -1, -1, -1, -1], 2.42),
        (graph_of("star", node_count=5), [2, 0, 0, 0, -2], 0.74),
        (graph_of("ring", node_count=5), [2, golden, golden, -golden - 1, -golden - 1], 0.83),
    ]
    for graph, eigenvalues, connectivity in cases:
        spectrum = graph_spectrum(graph)
        assert np.allclose(spectrum, eigenvalues, rtol=0.0, atol=0.01), (
            f"spectrum {spectrum} != {eigenvalues}"
        )
        measured = natural_connectivity(graph)
        assert abs(measured - connectivity) <= 0.01, (
            f"natural connectivity {measured} != {connectivity}"
        )


# ---------------------------------------------------------------- 2


def _floyd_warshall(graph):
    """Reference all-pairs hop counts; -1 where unreachable."""
    n = graph.node_count
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in graph.edges():
        dist[a][b] = dist[b][a] = 1.0
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == inf:
                continue
            row_i = dist[i]
            for j in range(n):
                alt = d_ik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return np.array(
        [[-1.0 if d == inf else d for d in row] for row in dist]
    )


def test_criterion_2_geodesic_oracle():
    assert average_geodesic(graph_of("complete", node_count=100)) == 1.0
    assert abs(average_geodesic(graph_of("star", node_count=100)) - 1.98) <= 1e-9
    assert abs(average_geodesic(graph_of("ring", node_count=100)) - 2500.0 / 99.0) <= 1e-9

    # every spectrum graph small enough to brute-force, matched exactly
    for node_count in range(3, 13):
        for graph in build_spectrum(node_count, per_segment=node_count):
            assert np.array_equal(
                shortest_path_matrix(graph), _floyd_warshall(graph)
            ), f"hop-count mismatch on {node_count}-node spectrum graph"


# ---------------------------------------------------------------- 3


def test_criterion_3_death_model():
    # Monte Carlo through the engine's death channel; the 1000 lanes
    # are 1000 independent seeded trials of a 100-agent swarm.
    for prob, expected in ((3.3e-4, 84.8), (7.0e-4, 70.5)):
        rand = make_rand_source([1])
        alive = np.ones((100, 1000), dtype=bool)
        for iteration in range(1, 501):
            alive &= rand(CHANNEL_DEATH, iteration, 100, 1000)[0] >= prob
        survivors = alive.sum(axis=0)
        mean = survivors.mean()
        stderr = survivors.std(ddof=1) / math.sqrt(1000)
        assert abs(mean - expected) <= 3.0 * stderr, (
            f"p={prob}: mean survivors {mean:.3f} vs {expected} "
            f"(3 SE = {3 * stderr:.3f})"
        )

    # the quoted per-iteration rates carry two significant figures, so
    # the exact inversion must sit within print precision of them
    for fraction, quoted in ((0.15, 3.3e-4), (0.30, 7.0e-4)):
        prob = death_fraction_to_prob(fraction, 500)
        assert abs(prob - quoted) / quoted <= 0.02, (
            f"inverted rate {prob} too far from quoted {quoted}"
        )
        assert abs(1.0 - (1.0 - prob) ** 500 - fraction) <= 1e-12


# ---------------------------------------------------------------- 4


# the standard m = 10 Shekel foothill table, typed in here: each row is
# four center coordinates, then the height constant c
_SHEKEL_TABLE = (
    (4.0, 4.0, 4.0, 4.0, 0.1),
    (1.0, 1.0, 1.0, 1.0, 0.2),
    (8.0, 8.0, 8.0, 8.0, 0.2),
    (6.0, 6.0, 6.0, 6.0, 0.4),
    (3.0, 7.0, 3.0, 7.0, 0.4),
    (2.0, 9.0, 2.0, 9.0, 0.6),
    (5.0, 5.0, 3.0, 3.0, 0.3),
    (8.0, 1.0, 8.0, 1.0, 0.7),
    (6.0, 2.0, 6.0, 2.0, 0.5),
    (7.0, 3.0, 7.0, 3.0, 0.5),
)


def _shekel_by_hand(x):
    """Brute-force sum over the standard table, pure Python floats."""
    total = 0.0
    for *center, height in _SHEKEL_TABLE:
        total += 1.0 / (height + sum((a - b) ** 2 for a, b in zip(x, center)))
    return total


def test_criterion_4_objective_optima():
    assert default_spec("rastrigin").evaluate([0.0, 0.0]) == 0.0
    assert default_spec("griewank").evaluate([0.0, 0.0]) == 0.0
    # libm residual: exact zero is two ulps away
    assert abs(default_spec("ackley").evaluate([0.0, 0.0])) <= 1e-12
    schwefel_floor = default_spec("schwefel").evaluate([420.9687, 420.9687])
    assert abs(schwefel_floor) <= 1e-3

    shekel = default_spec("shekel")
    peak = shekel.evaluate([4.0, 4.0, 4.0, 4.0])
    by_hand = _shekel_by_hand([4.0, 4.0, 4.0, 4.0])
    assert abs(peak - by_hand) <= 1e-12 * abs(by_hand)

    # no better point among a million uniform samples of the box
    rng = np.random.default_rng(20240816)
    for _ in range(10):
        points = rng.uniform(0.0, 10.0, size=(100_000, 4))
        assert shekel.evaluate_many(points).max() < peak


# ---------------------------------------------------------------- 5


def test_criterion_5_update_rule_trace_and_clamp():
    graph = Neighborhoods((graph_of("complete", node_count=2),))
    objective = Parabola()
    swarm = trace_start()
    for iteration, (pos, vel, best) in enumerate(TRACE, start=1):
        step(swarm, graph, objective, trace_rand, iteration)
        assert np.allclose(swarm.positions[0, :, 0], pos, rtol=0.0, atol=1e-12)
        assert np.allclose(swarm.velocities[0, :, 0], vel, rtol=0.0, atol=1e-12)
        assert np.allclose(swarm.best_positions[0, :, 0], best, rtol=0.0, atol=1e-12)

    # clamp invariant over 10^5 randomized agent-steps
    config = SwarmConfig(n_agents=1000, max_iters=100, seed=9)
    rand = make_rand_source([config.seed])
    objective = default_spec("rastrigin")
    graph = Neighborhoods((graph_of("random", node_count=1000, edge_prob=0.01, seed=3),))
    swarm = initialize(SwarmBatch([config]), objective, rand)
    for iteration in range(1, 101):
        step(swarm, graph, objective, rand, iteration)
        assert (np.abs(swarm.velocities) <= V_MAX).all()


# ------------------------------------------------------------- 6, 7


ACCEPTANCE_PLAN = """\
version = 1
base_seed = 1
repetitions = 20
objectives = shekel
death_fractions = 0, 0.30
topology = complete n=100
topology = star n=100
topology = ring n=100
topology = multi-ring n=100 ring_levels=9
topology = small-world n=100 degree=10 rewire_prob=0.1 seed=7
"""

COMPLETE = "complete-n100"
RING = "ring-n100"
MULTI_RING = "multi-ring-n100-r9"
SMALL_WORLD = "small-world-n100-k10-p0.1-s7"


@pytest.fixture(scope="module")
def reference_sweep():
    rows = run_plan(parse_plan(ACCEPTANCE_PLAN))
    return {(row.topology_id, row.death_fraction): row for row in rows}


def test_criterion_6_desk_scale_topology_trends(reference_sweep):
    complete = reference_sweep[(COMPLETE, 0.0)]
    ring = reference_sweep[(RING, 0.0)]
    small_world = reference_sweep[(SMALL_WORLD, 0.0)]

    # (a) dense communication converges prematurely on the foothills
    assert ring.gsr >= complete.gsr, (
        f"GSR ring {ring.gsr} < complete {complete.gsr}"
    )
    assert complete.gsr <= 0.75, f"GSR complete {complete.gsr} > 0.75"
    # (b) but when it does succeed, it succeeds fastest
    assert complete.gs_time is not None and ring.gs_time is not None
    assert complete.gs_time < ring.gs_time, (
        f"GS time complete {complete.gs_time} >= ring {ring.gs_time}"
    )
    # (c) small-world keeps a near-perfect success rate
    assert small_world.gsr >= 0.85, f"GSR small-world {small_world.gsr}"


def test_criterion_7_hostility_degradation(reference_sweep):
    def drop(topology_id):
        calm = reference_sweep[(topology_id, 0.0)].gsr
        hostile = reference_sweep[(topology_id, 0.3)].gsr
        return calm - hostile

    assert abs(drop(SMALL_WORLD)) <= 0.35, f"small-world drop {drop(SMALL_WORLD)}"
    assert abs(drop(MULTI_RING)) <= 0.35, f"multi-ring drop {drop(MULTI_RING)}"
    assert drop(RING) > drop(SMALL_WORLD), (
        f"ring drop {drop(RING)} not above small-world drop {drop(SMALL_WORLD)}"
    )


# ---------------------------------------------------------------- 8


def test_criterion_8_trade_off_hand_values():
    # at the normalizing point the metric collapses to 2*alpha - 1
    assert abs(trade_off(100.0, 400.0, 100.0, 400.0, 0.7) - 0.4) <= 1e-12
    # 0.7 * 50/100 - 0.3 * 100/400
    assert abs(trade_off(50.0, 100.0, 100.0, 400.0, 0.7) - 0.275) <= 1e-12
    # 0.25 * 30/80 - 0.75 * 123/321
    assert abs(
        trade_off(30.0, 123.0, 80.0, 321.0, 0.25) - (-0.19363317757009346)
    ) <= 1e-12
    # alpha = 1 ignores time entirely
    assert trade_off(100.0, 250.0, 100.0, 400.0, 1.0) == 1.0


# ---------------------------------------------------------------- 9


DETERMINISM_PLAN = """\
version = 1
base_seed = 7
repetitions = 2
max_iters = 80
objectives = shekel
death_fractions = 0, 0.3
topology = complete n=12
topology = ring n=12
"""


def test_criterion_9_plan_determinism():
    first = results_to_csv(run_plan(parse_plan(DETERMINISM_PLAN)))
    second = results_to_csv(run_plan(parse_plan(DETERMINISM_PLAN)))
    assert first.encode() == second.encode()

    # listing the topologies in the other order changes nothing
    lines = DETERMINISM_PLAN.splitlines()
    reordered = "\n".join(lines[:-2] + [lines[-1], lines[-2]]) + "\n"
    assert results_to_csv(run_plan(parse_plan(reordered))) == first

    # neither does splitting the cells across workers
    assert results_to_csv(run_plan(parse_plan(DETERMINISM_PLAN), workers=2)) == first
