"""Engine oracle tests.

The three-step trace in ``hand_trace`` was computed by hand at the fixed
update's constants, with pinned draws: agent 1 hits the velocity clamp
at step 1 and takes the lead from agent 0 at step 2.  The other step
tests' expected values are hand arithmetic at the same constants.

The uniform source is checked against ``reference_draw``, a splitmix64
written on Python ints one draw at a time, and a fixed block of its
draws is pinned by sha256 (taken from the numpy-array implementation
that derived its keys with one-element arrays under ``np.errstate``).
"""

import dataclasses
import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmtopo import engine
from swarmtopo.engine import (
    CHANNEL_DEATH,
    CHANNEL_INIT_POSITION,
    CHANNEL_INIT_VELOCITY,
    CHANNEL_VELOCITY_SOCIAL,
    BatchResult,
    Neighborhoods,
    SwarmBatch,
    SwarmConfig,
    SwarmState,
    _mix64,
    _mix64_inplace,
    initialize,
    make_rand_source,
    randomized_death,
    run,
    step,
)
from swarmtopo.harness import SUCCESS_MODES, SuccessCriterion, run_plan, success_predicate
from swarmtopo.objectives import OBJECTIVE_NAMES, default_spec
from swarmtopo.plans import parse_plan
from swarmtopo.topology import (
    TOPOLOGY_KINDS,
    Graph,
    TopologySpec,
    build_topology,
)

from hand_trace import CHI, PHI, TRACE, V_MAX, Parabola, trace_plane, trace_start
from strategies import graph_of, topology_specs


def neighborhood_best(agent: int, graph: Graph, swarm: SwarmState) -> np.ndarray:
    """Per-agent oracle: best-known position among an agent's alive
    candidates, in a one-row swarm.

    Candidates are the agent itself and its graph neighbors.  Ties
    break toward the lowest agent index.  If every candidate is dead
    the agent falls back to its own best (no outside information is
    available).
    """
    row = graph.dense()[agent]
    row[agent] = True
    candidates = np.flatnonzero(row & swarm.alive[0])
    if candidates.size == 0:
        return swarm.best_positions[0, agent].copy()
    winner = candidates[int(np.argmax(swarm.best_scores[0, candidates]))]
    return swarm.best_positions[0, winner].copy()


def dense_leaders(graph: Graph, scores: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Whole-swarm oracle: leaders from the dense N x N candidate mask,
    the selection ``step`` used before the neighbor table."""
    n = scores.shape[0]
    cand = graph.dense()
    np.fill_diagonal(cand, True)
    eligible = cand & alive[None, :]
    masked = np.where(eligible, scores[None, :], -np.inf)
    leaders = np.argmax(masked, axis=1)  # ties take the lowest index
    return np.where(eligible.any(axis=1), leaders, np.arange(n))


def brute_force_leader(graph: Graph, scores, alive, agent: int) -> int:
    """Per-agent oracle on plain Python values: the alive candidate
    (the agent or a neighbour) with the highest score, the lowest index
    among equals; the agent itself when no candidate is alive."""
    adjacent = graph.dense()[agent]
    best = None
    for other in range(graph.node_count):
        if (other == agent or adjacent[other]) and alive[other]:
            if best is None or scores[other] > scores[best]:
                best = other
    return agent if best is None else best


def _hoods(graph: Graph) -> Neighborhoods:
    return Neighborhoods((graph,))


def _leaders(graph, scores, alive):
    return _hoods(graph).leaders(scores, alive)


def _one_row(positions, velocities, best_positions, best_scores, alive) -> SwarmState:
    """A one-row swarm from per-agent arrays."""
    arrays = (positions, velocities, best_positions, best_scores, alive)
    return SwarmState(*(np.asarray(array)[None] for array in arrays))


MASK64 = (1 << 64) - 1


def reference_mix(z: int) -> int:
    """splitmix64 finalizer, written out on Python ints."""
    z = (z + 0x9E3779B97F4A7C15) % (1 << 64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


def reference_draw(seed: int, channel: int, iteration: int, agent: int, lane: int) -> float:
    """Oracle: one uniform draw of ``make_rand_source(seed)``."""
    key = reference_mix(seed % (1 << 64))
    for counter in (channel, iteration, agent, lane):
        key = reference_mix((key + counter) % (1 << 64))
    return (key >> 11) / float(1 << 53)


# sha256 of the float64 bytes of rand(channel, iteration, iteration + 1, 37, 3) over
# the seeds, channels 1-5 and iterations below, in that nesting order
DRAW_BLOCK_SEEDS = (0, -5, 1 << 63, MASK64, 20201)
DRAW_BLOCK_ITERATIONS = (0, 1, 999, 1 << 40)
DRAW_BLOCK_SHA256 = "0b2d63fa57c4befc05acec90095cc8aa1758c0f7118faff660cf78a7c1ac57d2"


class TestRandSource:
    def test_mix64_pinned(self):
        cases = {
            0: 16294208416658607535,
            1: 10451216379200822465,
            42: 13679457532755275413,
            (1 << 63) + 5: 6099647518701997872,
        }
        for value, expected in cases.items():
            assert _mix64(value) == expected
            assert reference_mix(value) == expected
            out = _mix64_inplace(np.array([value], dtype=np.uint64))
            assert int(out[0]) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(min_value=-(1 << 70), max_value=-1),
            st.just(0),
            st.integers(min_value=1 << 63, max_value=(1 << 70)),
        ),
        channel=st.integers(min_value=1, max_value=5),
        iteration=st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=1 << 40),
        ),
        agent_count=st.integers(min_value=1, max_value=300),
        lanes=st.integers(min_value=1, max_value=6),
    )
    def test_matches_reference(self, seed, channel, iteration, agent_count, lanes):
        draws = make_rand_source([seed])(channel, iteration, iteration + 1, agent_count, lanes)
        expected = [
            [reference_draw(seed, channel, iteration, agent, lane) for lane in range(lanes)]
            for agent in range(agent_count)
        ]
        assert draws.dtype == np.float64
        assert np.array_equal(draws, np.array([[expected]]))

    def test_draw_block_pinned(self):
        parts = []
        for seed in DRAW_BLOCK_SEEDS:
            rand = make_rand_source([seed])
            for channel in range(1, 6):
                for iteration in DRAW_BLOCK_ITERATIONS:
                    parts.append(rand(channel, iteration, iteration + 1, 37, 3))
        block = np.concatenate(parts).tobytes()
        assert hashlib.sha256(block).hexdigest() == DRAW_BLOCK_SHA256

    def test_cached_keys_match_a_fresh_source(self):
        # the per-channel keys are cached: every call in an interleaved
        # sequence must give a fresh source's draws
        rand = make_rand_source([9])
        calls = [(5, 4, 5, 50, 2), (5, 5, 9, 80, 3), (4, 4, 5, 50, 2), (4, 1, 6, 2, 50),
                 (5, 4, 5, 50, 2), (1, 0, 1, 80, 1), (4, 4, 7, 3, 3)]
        for coords in calls:
            assert np.array_equal(rand(*coords), make_rand_source([9])(*coords)), coords

    def test_shape_and_range(self):
        rand = make_rand_source([7])
        draws = rand(CHANNEL_DEATH, 3, 9, 50, 4)
        assert draws.shape == (6, 1, 50, 4)
        assert (draws >= 0.0).all() and (draws < 1.0).all()
        assert rand(CHANNEL_DEATH, 3, 4, 50).shape == (1, 1, 50, 1)

    def test_pure_coordinates(self):
        rand = make_rand_source([7])
        a = rand(CHANNEL_VELOCITY_SOCIAL, 9, 10, 20)
        b = rand(CHANNEL_VELOCITY_SOCIAL, 9, 10, 20)
        assert np.array_equal(a, b)
        # same coordinates from a fresh source with the same seed
        assert np.array_equal(a, make_rand_source([7])(CHANNEL_VELOCITY_SOCIAL, 9, 10, 20))

    def test_agent_and_lane_prefixes(self):
        rand = make_rand_source([11])
        big = rand(CHANNEL_INIT_POSITION, 0, 1, 30, 6)
        assert np.array_equal(big[:, :, :12], rand(CHANNEL_INIT_POSITION, 0, 1, 12, 6))
        assert np.array_equal(big[..., :2], rand(CHANNEL_INIT_POSITION, 0, 1, 30, 2))

    def test_channels_iterations_seeds_decorrelated(self):
        rand = make_rand_source([0])
        a = rand(CHANNEL_VELOCITY_SOCIAL, 1, 2, 100)
        assert not np.array_equal(a, rand(CHANNEL_DEATH, 1, 2, 100))
        assert not np.array_equal(a, rand(CHANNEL_VELOCITY_SOCIAL, 2, 3, 100))
        assert not np.array_equal(a, make_rand_source([1])(CHANNEL_VELOCITY_SOCIAL, 1, 2, 100))

    def test_roughly_uniform(self):
        rand = make_rand_source([3])
        draws = rand(CHANNEL_DEATH, 1, 2, 100_000)[0, 0, :, 0]
        assert abs(draws.mean() - 0.5) < 0.005
        assert abs(np.quantile(draws, 0.25) - 0.25) < 0.01

    def test_rejects_empty(self):
        rand = make_rand_source([0])
        with pytest.raises(ValueError, match="count and lanes must be >= 1"):
            rand(CHANNEL_DEATH, 0, 1, 0)
        with pytest.raises(ValueError, match="count and lanes must be >= 1"):
            rand(CHANNEL_DEATH, 0, 1, 5, 0)

    @pytest.mark.parametrize("bad", [-1, -(1 << 40), 1 << 64])
    def test_rejects_coordinates_outside_64_bits(self, bad):
        rand = make_rand_source([0])
        with pytest.raises(OverflowError):
            rand(bad, 0, 1, 5)
        with pytest.raises(OverflowError):
            rand(CHANNEL_DEATH, bad, bad + 1, 5)

    @pytest.mark.parametrize(
        "first, stop, error",
        [(5, 5, ValueError), (6, 5, ValueError), (0, MASK64 + 2, OverflowError),
         (MASK64, MASK64 + 2, OverflowError), (-1, 3, OverflowError)],
        ids=["empty", "reversed", "stop-past-2**64", "top-past-2**64", "negative-first"],
    )
    def test_rejects_bad_blocks(self, first, stop, error):
        with pytest.raises(error):
            make_rand_source([0])(CHANNEL_DEATH, first, stop, 5)


# (first, stop) of a block of 1 to 6 iterations: near 0, anywhere in 64
# bits, or ending exactly at 2**64
_BLOCKS = st.one_of(
    st.tuples(st.one_of(st.integers(0, 40), st.integers(0, MASK64 - 5)), st.integers(1, 6))
    .map(lambda block: (block[0], block[0] + block[1])),
    st.integers(1, 6).map(lambda span: (MASK64 + 1 - span, MASK64 + 1)),
)


class TestDrawBlocks:
    """A call names a block of iterations; every block must hold the
    reference draw at each coordinate and equal its one-iteration blocks
    end to end, whatever the calls before it."""

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=-(1 << 64), max_value=1 << 65), min_size=1, max_size=4
        ),
        calls=st.lists(
            st.tuples(st.sampled_from([1, 4, 5]), _BLOCKS, st.integers(1, 5), st.integers(1, 3)),
            min_size=1, max_size=8,
        ),
    )
    def test_any_call_sequence_matches_fresh_single_calls(self, seeds, calls):
        rand = make_rand_source(seeds)
        kept = []
        for channel, (first, stop), count, lanes in calls:
            block = rand(channel, first, stop, count, lanes)
            expected = [
                [[[reference_draw(seed, channel, iteration, agent, lane)
                   for lane in range(lanes)] for agent in range(count)] for seed in seeds]
                for iteration in range(first, stop)
            ]
            assert block.dtype == np.float64
            assert np.array_equal(block, np.array(expected))
            fresh = make_rand_source(seeds)
            singles = [fresh(channel, k, k + 1, count, lanes) for k in range(first, stop)]
            assert np.array_equal(block, np.concatenate(singles))
            with pytest.raises(ValueError, match="read-only"):
                block[...] = 0.5
            kept.append((block, block.copy()))
        # later calls never rewrite a block handed out earlier
        for block, copy in kept:
            assert np.array_equal(block, copy)

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            make_rand_source([])


class TestHandTrace:
    def test_three_steps_match_hand_computation(self):
        graph = _hoods(graph_of("complete", node_count=2))
        objective = Parabola()
        swarm = trace_start()
        for iteration, (pos, vel, best) in enumerate(TRACE, start=1):
            step(swarm, graph, objective, trace_plane(iteration))
            assert np.allclose(swarm.positions[0, :, 0], pos, rtol=0.0, atol=1e-12)
            assert np.allclose(swarm.velocities[0, :, 0], vel, rtol=0.0, atol=1e-12)
            assert np.allclose(swarm.best_positions[0, :, 0], best, rtol=0.0, atol=1e-12)
            if iteration == 1:
                # the clamp gives the bound itself, and the leader's own
                # social term is exactly zero
                assert swarm.velocities[0, 1, 0] == V_MAX
                assert swarm.velocities[0, 0, 0] == CHI * 0.5

    def test_scalar_draw_multiplies_whole_vector(self):
        # 2-D: one scalar per term scales both components identically
        class Plane:
            dimension = 2

            def score_many(self, points):
                return -np.abs(np.asarray(points)).sum(axis=1)

        positions = np.array([[0.0, 0.0], [3.0, -6.0]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.zeros((2, 2)),
            best_positions=positions.copy(),
            best_scores=Plane().score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        step(swarm, _hoods(graph_of("complete", node_count=2)), Plane(), np.full((1, 2, 1), 0.5))
        # agent 1 moves toward agent 0's best: v = CHI * 2.05 * 0.5 * (0 - x)
        # = 0.748089895 * (-3, 6)
        assert np.allclose(swarm.velocities[0, 1], [-2.244269685, 4.48853937], rtol=0.0, atol=1e-12)


class TestStepInvariants:
    def test_velocity_clamp_on_randomized_steps(self):
        objective = default_spec("rastrigin")
        rand = make_rand_source([99])
        graph = _hoods(graph_of("ring", node_count=1000))
        rng = np.random.default_rng(1)
        swarm = _one_row(
            positions=rng.uniform(-500, 500, size=(1000, 2)),
            velocities=rng.uniform(-9.99, 9.99, size=(1000, 2)),
            best_positions=rng.uniform(-500, 500, size=(1000, 2)),
            best_scores=np.zeros(1000),
            alive=np.ones(1000, dtype=bool),
        )
        swarm.best_scores = objective.score_many(swarm.best_positions[0])[None]
        for social in rand(CHANNEL_VELOCITY_SOCIAL, 1, 101, 1000):  # 10^5 agent-steps
            step(swarm, graph, objective, social)
            assert (np.abs(swarm.velocities) <= V_MAX).all()

    def test_positions_not_clamped(self):
        objective = Parabola()

        positions = np.array([[4.9], [-4.9]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.array([[9.0], [-9.0]]),
            best_positions=positions.copy(),
            best_scores=objective.score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        push = np.full((1, 2, 1), 0.999)
        step(swarm, _hoods(graph_of("complete", node_count=2)), objective, push)
        # agent 0 leads (a tie goes to the lower index), so it keeps only
        # its own momentum: v = CHI * 9 = 6.5685942; agent 1 is pulled
        # across: v = CHI * (-9 + 2.05 * 0.999 * 9.8) = 8.079305180058.
        # Agent 0 sails past the objective's box; nothing pulls it back
        assert np.allclose(swarm.positions[0, :, 0], [11.4685942, 3.179305180058],
                           rtol=0.0, atol=1e-12)

    def test_dead_agents_do_not_move_but_keep_bests(self):
        objective = default_spec("rastrigin")
        rand = make_rand_source([5])
        swarm = initialize(SwarmBatch([config_with(n_agents=4)]), objective, rand)
        frozen_pos = swarm.positions[0, 2].copy()
        frozen_best = swarm.best_scores[0, 2]
        swarm.alive[0, 2] = False
        social = rand(CHANNEL_VELOCITY_SOCIAL, 1, 2, 4)[0]
        step(swarm, _hoods(graph_of("complete", node_count=4)), objective, social)
        assert np.array_equal(swarm.positions[0, 2], frozen_pos)
        assert swarm.best_scores[0, 2] == frozen_best

    def test_synchronous_update_uses_snapshot(self):
        # if updates leaked within the iteration, agent 1 would chase
        # agent 0's *new* best; the snapshot keeps it on the old one
        positions = np.array([[2.0], [10.0]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.array([[-1.0], [0.0]]),
            best_positions=positions.copy(),
            best_scores=Parabola().score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        step(swarm, _hoods(graph_of("complete", node_count=2)), Parabola(), np.full((1, 2, 1), 0.5))
        # agent 0 moved to 2 + CHI * -1 = 1.2701562 (a better best), but
        # agent 1 must have targeted the snapshot best 2.0:
        # v = CHI * 2.05 * 0.5 * (2 - 10) = -5.98471916, not the
        # -6.5307079317084 that the new best would give
        assert np.allclose(swarm.positions[0, :, 0], [1.2701562, 10.0 - 5.98471916],
                           rtol=0.0, atol=1e-12)
        assert np.allclose(swarm.velocities[0, 1, 0], -5.98471916, rtol=0.0, atol=1e-12)
        assert swarm.best_positions[0, 0, 0] == swarm.positions[0, 0, 0]

    def test_personal_bests_monotone(self):
        objective = default_spec("ackley")
        rand = make_rand_source([17])
        swarm = initialize(SwarmBatch([config_with(n_agents=30)]), objective, rand)
        graph = _hoods(graph_of("ring", node_count=30))
        previous = swarm.best_scores.copy()
        for social in rand(CHANNEL_VELOCITY_SOCIAL, 1, 40, 30):
            step(swarm, graph, objective, social)
            assert (swarm.best_scores >= previous).all()
            previous = swarm.best_scores.copy()


def config_with(**kwargs):
    return SwarmConfig(**kwargs)


def _everyone(best_positions, best_scores):
    """A success predicate every agent meets."""
    return np.ones(len(best_scores), dtype=bool)


class TestNeighborhoodBest:
    def _swarm_with_scores(self, scores):
        n = len(scores)
        positions = np.arange(n, dtype=np.float64).reshape(n, 1)
        return _one_row(
            positions=positions.copy(),
            velocities=np.zeros((n, 1)),
            best_positions=positions.copy(),
            best_scores=np.array(scores, dtype=np.float64),
            alive=np.ones(n, dtype=bool),
        )

    def test_includes_self_by_default(self):
        swarm = self._swarm_with_scores([5.0, 1.0, 0.0, 0.0, 0.0])
        graph = graph_of("star", node_count=5)  # node 0 is the hub
        # leaf 1's candidates are {0, 1}; its own best loses to the hub
        assert neighborhood_best(1, graph, swarm)[0] == 0.0
        # hub's own score wins over every leaf
        assert neighborhood_best(0, graph, swarm)[0] == 0.0

    def test_ties_break_to_lowest_index(self):
        swarm = self._swarm_with_scores([1.0, 1.0, 1.0])
        got = neighborhood_best(2, graph_of("complete", node_count=3), swarm)
        assert got[0] == 0.0

    def test_dead_candidates_excluded(self):
        swarm = self._swarm_with_scores([9.0, 1.0, 0.5])
        swarm.alive[0, 0] = False
        got = neighborhood_best(2, graph_of("complete", node_count=3), swarm)
        assert got[0] == 1.0

    def test_all_candidates_dead_falls_back_to_self(self):
        # leaf 2's candidates are itself and the hub; both are dead, while
        # leaf 1, alive and best, is not among them
        swarm = self._swarm_with_scores([9.0, 1.0, 0.5])
        swarm.alive[0, [0, 2]] = False
        graph = graph_of("star", node_count=3)
        assert neighborhood_best(2, graph, swarm)[0] == 2.0
        assert _leaders(graph, swarm.best_scores, swarm.alive)[2] == 2

    def test_matches_step_leader_choice(self):
        objective = default_spec("griewank")
        rand = make_rand_source([23])
        swarm = initialize(SwarmBatch([config_with(n_agents=12)]), objective, rand)
        # every agent at the origin, at rest, with its best shrunk into
        # [-3, 3]: with r = 1 a step moves an alive agent to
        # CHI * PHI * social_target, at most 4.5 from the origin, under the clamp
        probe = SwarmState(
            positions=np.zeros_like(swarm.positions),
            velocities=np.zeros_like(swarm.velocities),
            best_positions=swarm.best_positions / 200.0,
            best_scores=swarm.best_scores.copy(),
            alive=swarm.alive.copy(),
        )
        probe.alive[0, [3, 7]] = False
        graph = graph_of("ring", node_count=12)
        expected = np.stack([neighborhood_best(i, graph, probe) for i in range(12)])

        step(probe, _hoods(graph), objective, np.ones((1, 12, 1)))
        # the dead agents stay at the origin
        moved = np.where(probe.alive[0, :, None], CHI * PHI * expected, 0.0)
        assert np.allclose(probe.positions[0], moved, rtol=0.0, atol=1e-12)


# a handful of distinct values forces score ties; the domain is finite
# scores, the only ones a finite objective produces
_SCORE = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e6, 1e6))


class TestLeaderTable:
    @settings(max_examples=300, deadline=None)
    @given(spec=topology_specs(), data=st.data())
    def test_matches_dense_and_per_agent_oracles(self, spec, data):
        graph = build_topology(spec)
        n = graph.node_count
        scores = np.array(data.draw(st.lists(_SCORE, min_size=n, max_size=n)))
        alive = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        leaders = _leaders(graph, scores, alive)
        assert np.array_equal(leaders, dense_leaders(graph, scores, alive))
        # positions equal to agent indices make each oracle best a leader index
        positions = np.arange(n, dtype=np.float64).reshape(n, 1)
        swarm = _one_row(positions, np.zeros((n, 1)), positions.copy(), scores, alive)
        for agent in range(n):
            assert neighborhood_best(agent, graph, swarm)[0] == leaders[agent]

    @pytest.mark.parametrize("alive", [True, False])
    def test_single_agent_leads_itself(self, alive):
        leaders = _leaders(graph_of("complete", node_count=1), np.array([3.0]), np.array([alive]))
        assert leaders.tolist() == [0]

    def test_table_layout(self):
        star = graph_of("star", node_count=4)
        indptr, indices = star.candidates
        assert indptr.tolist() == [0, 4, 6, 8, 10]
        assert indices.tolist() == [0, 1, 2, 3, 0, 1, 0, 2, 0, 3]
        # an edgeless graph gives each node itself alone
        indptr, indices = Graph(2, []).candidates
        assert indptr.tolist() == [0, 1, 2] and indices.tolist() == [0, 1]
        assert star.candidates is star.candidates
        assert not any(array.flags.writeable for array in star.candidates)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_matches_per_agent_brute_force(self, data):
        # complete, star, ring and random rows in one batch, with scores
        # from a few values (ties), some rows' top scorers killed (dead
        # leaders) and some rows mostly dead (all-dead neighbourhoods)
        n = data.draw(st.integers(3, 9))
        kinds = data.draw(st.lists(
            st.sampled_from(["complete", "star", "ring", "random"]), min_size=1, max_size=5
        ))
        graphs = [
            graph_of(kind, node_count=n, edge_prob=0.3, seed=data.draw(st.integers(0, 99)))
            if kind == "random" else graph_of(kind, node_count=n)
            for kind in kinds
        ]
        scores = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n),
            min_size=len(graphs), max_size=len(graphs),
        )))
        alive_share = data.draw(st.lists(
            st.sampled_from([0.0, 0.3, 0.8, 1.0]), min_size=len(graphs), max_size=len(graphs)
        ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        alive = rng.random((len(graphs), n)) < np.array(alive_share)[:, None]
        for row in data.draw(st.sets(st.integers(0, len(graphs) - 1))):
            alive[row, np.flatnonzero(scores[row] == scores[row].max())] = False
        leaders = Neighborhoods(graphs).leaders(scores, alive)
        expected = [
            row * n + brute_force_leader(graph, scores[row], alive[row], agent)
            for row, graph in enumerate(graphs)
            for agent in range(n)
        ]
        assert leaders.tolist() == expected

    def test_complete_row_tie_goes_to_the_lower_index(self):
        # agents 2 and 4 share the top score; in a batch beside a ring row
        graphs = [graph_of("ring", node_count=5), graph_of("complete", node_count=5)]
        scores = np.array([[0.0] * 5, [1.0, 0.0, 7.0, 3.0, 7.0]])
        leaders = Neighborhoods(graphs).leaders(scores, np.ones((2, 5), dtype=bool))
        assert leaders[5:].tolist() == [5 + 2] * 5
        # with agent 2 dead, agent 4 leads
        alive = np.ones((2, 5), dtype=bool)
        alive[1, 2] = False
        assert Neighborhoods(graphs).leaders(scores, alive)[5:].tolist() == [5 + 4] * 5

    def test_complete_row_all_dead_leads_itself(self):
        graphs = [graph_of("complete", node_count=4), graph_of("complete", node_count=4)]
        scores = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        alive = np.array([[True] * 4, [False] * 4])
        leaders = Neighborhoods(graphs).leaders(scores, alive)
        assert leaders.tolist() == [3, 3, 3, 3, 4, 5, 6, 7]

    def test_complete_path_keyed_on_graph_not_kind(self):
        # a core-periphery graph whose core is everything is complete
        spec = TopologySpec("core-periphery", node_count=6, core_size=6)
        graph = build_topology(spec)
        assert graph.is_complete and not graph_of("star", node_count=6).is_complete
        scores = np.array([1.0, 5.0, 5.0, 2.0, 0.0, 4.0])
        alive = np.array([True, False, True, True, True, True])
        assert _leaders(graph, scores, alive).tolist() == [2] * 6
        assert "candidates" not in graph.__dict__
        all_dead = np.zeros(6, dtype=bool)
        assert _leaders(graph, scores, all_dead).tolist() == list(range(6))


def _one_source(source):
    """``draws(rows)`` for :func:`randomized_death` over one full source:
    the rows ``rows`` of each of its draws."""
    return lambda rows: lambda *args: source(*args)[:, rows]


class TestDeathAndRun:
    def test_death_draws_deterministic(self):
        # an agent dies at its first draw below p, or survives past max_iters
        rand = make_rand_source([31])
        deaths = randomized_death(np.array([[0.1]]), _one_source(rand), 200, 7)
        draws = rand(CHANNEL_DEATH, 1, 8, 200)[:, 0, :, 0]
        expected = []
        for agent in range(200):
            below = [k for k in range(1, 8) if draws[k - 1, agent] < 0.1]
            expected.append(below[0] if below else 8)
        assert deaths.tolist() == [expected]
        assert 0 < np.count_nonzero(deaths == 8) < 200

    def test_death_zero_probability(self):
        def never(rows):
            raise AssertionError("a row with p = 0 was drawn")

        deaths = randomized_death(np.array([[0.0]]), never, 50, 1000)
        assert deaths.shape == (1, 50) and (deaths == 1001).all()

    def test_dead_stay_dead(self, monkeypatch):
        # every step sees the alive mask the schedule gives its iteration
        masks = []
        original = engine.step

        def recorded(swarm, *args):
            masks.append(swarm.alive.copy())
            return original(swarm, *args)

        monkeypatch.setattr(engine, "step", recorded)
        config = SwarmConfig(n_agents=100, max_iters=10, death_prob=0.5, seed=13)
        result = run(config, graph_of("ring", node_count=100), default_spec("ackley"), _everyone)
        deaths = randomized_death(np.array([[0.5]]), _one_source(make_rand_source([13])), 100, 10)
        assert len(masks) == result.iterations_executed == min(10, deaths.max())
        for iteration, mask in enumerate(masks, start=1):
            assert mask.tolist() == (deaths > iteration - 1).tolist()
        # the dead are not revived; the alive lose agents of their own
        assert masks[0].all() and 0 < np.count_nonzero(masks[1]) < 100
        for before, after in zip(masks, masks[1:]):
            assert not (after & ~before).any()

    def test_initialize_within_bounds(self):
        objective = default_spec("schwefel")
        config = SwarmConfig(n_agents=300, seed=8)
        swarm = initialize(SwarmBatch([config]), objective, make_rand_source([config.seed]))
        assert swarm.positions.shape == (1, 300, objective.dimension)
        assert (swarm.positions >= objective.lower).all()
        assert (swarm.positions <= objective.upper).all()
        assert (np.abs(swarm.velocities) <= V_MAX).all()
        assert np.array_equal(swarm.best_positions, swarm.positions)
        assert swarm.alive.all()

    def test_run_deterministic(self):
        config = SwarmConfig(n_agents=30, max_iters=60, seed=5, death_prob=0.001)
        objective = default_spec("shekel")
        graph = graph_of("ring", node_count=30)
        qualifies = success_predicate(SuccessCriterion(), objective)
        a = run(config, graph, objective, qualifies)
        b = run(config, graph, objective, qualifies)
        assert a == b

    def test_run_continues_after_convergence(self):
        # success as soon as any best score beats a low bar: converges
        # at iteration 1 yet still executes all max_iters
        config = SwarmConfig(n_agents=20, max_iters=30, seed=2)
        objective = default_spec("shekel")
        result = run(config, graph_of("complete", node_count=20), objective, _everyone)
        assert result.converged
        assert result.convergence_iteration == 1
        assert result.iterations_executed == 30
        assert result.winners == 20
        assert result.survivors == 20

    def test_run_counts_dead_winners(self):
        config = SwarmConfig(n_agents=40, max_iters=80, seed=3, death_prob=0.05)
        objective = default_spec("shekel")
        result = run(config, graph_of("complete", node_count=40), objective, _everyone)
        assert result.winners == 40
        assert result.survivors < 40

    @staticmethod
    def _death_draws(draws):
        # death channel pinned per agent, every other draw 0.5
        def rand(channel, first, stop, count, lanes=1):
            if channel == CHANNEL_DEATH:
                return np.broadcast_to(np.array(draws, dtype=float)[:, None],
                                       (stop - first, 1, count, 1))
            return np.full((stop - first, 1, count, lanes), 0.5)

        return rand

    def test_dead_non_qualifier_does_not_block_convergence(self):
        # agent 1 never qualifies; the run converges once it is dead
        def first_only(best_positions, best_scores):
            return np.array([True, False])

        objective = default_spec("shekel")
        graph = graph_of("complete", node_count=2)
        calm = run(SwarmConfig(n_agents=2, max_iters=5), graph, objective,
                   first_only, rand_fn=self._death_draws([0.9, 0.9]))
        assert not calm.converged and calm.convergence_iteration is None
        config = SwarmConfig(n_agents=2, max_iters=5, death_prob=0.5)
        hostile = run(config, graph, objective, first_only,
                      rand_fn=self._death_draws([0.9, 0.0]))
        assert hostile.converged and hostile.convergence_iteration == 1
        assert (hostile.winners, hostile.survivors) == (1, 1)

    def test_extinct_swarm_never_converges(self):
        config = SwarmConfig(n_agents=3, max_iters=5, death_prob=0.5)
        result = run(config, graph_of("complete", node_count=3), default_spec("shekel"), _everyone,
                     rand_fn=self._death_draws([0.0, 0.0, 0.0]))
        assert not result.converged and result.convergence_iteration is None
        assert result.iterations_executed == 1
        # the dead still count as winners
        assert (result.winners, result.survivors) == (3, 0)

    def test_run_stops_when_swarm_dies(self):
        config = SwarmConfig(n_agents=10, max_iters=500, seed=4, death_prob=0.5)
        result = run(config, graph_of("complete", node_count=10), default_spec("ackley"), _everyone)
        assert result.survivors == 0
        assert result.iterations_executed < 500

    def test_run_trace(self):
        config = SwarmConfig(n_agents=15, max_iters=20, seed=6)
        graph = graph_of("ring", node_count=15)
        result = run(config, graph, default_spec("griewank"), _everyone, record_trace=True)
        alive_counts, scores = result.trace
        # iteration k at index k - 1, for iterations 1..20
        assert len(alive_counts) == len(scores) == result.iterations_executed == 20
        assert alive_counts == (15,) * 20 and isinstance(scores, tuple)
        assert all(type(count) is int for count in alive_counts)
        assert all(type(score) is float for score in scores)
        assert list(scores) == sorted(scores)

    def test_run_graph_size_mismatch(self):
        with pytest.raises(ValueError):
            run(SwarmConfig(n_agents=5), graph_of("ring", node_count=6), default_spec("ackley"),
                _everyone)


class TestConfigValidation:
    def test_defaults_match_constriction_setup(self):
        config = SwarmConfig()
        assert (config.n_agents, config.max_iters) == (100, 1000)
        assert (config.death_prob, config.seed) == (0.0, 0)
        # the update's constants are the engine's, not a config's
        assert (engine._CHI, engine._PHI) == (CHI, PHI)
        assert (engine._V_MIN, engine._V_MAX) == (-V_MAX, V_MAX)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="n_agents must be >= 1"):
            SwarmConfig(n_agents=0)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            SwarmConfig(max_iters=0)
        with pytest.raises(ValueError):
            SwarmConfig(death_prob=1.0)
        with pytest.raises(ValueError):
            SwarmConfig(death_prob=1.5)
        with pytest.raises(ValueError):
            SwarmConfig(death_prob=float("nan"))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_iters", 5.0, "max_iters must be an integer, got 5.0"),
            ("max_iters", True, "max_iters must be an integer, got True"),
            ("n_agents", 10.0, "n_agents must be an integer, got 10.0"),
            ("n_agents", "10", "n_agents must be an integer, got '10'"),
            ("seed", 2.5, "seed must be an integer, got 2.5"),
            ("seed", False, "seed must be an integer, got False"),
            ("death_prob", True, "death_prob must be a number, got True"),
            ("death_prob", "0.1", "death_prob must be a number, got '0.1'"),
        ],
        ids=["max_iters-5.0", "max_iters-True", "n_agents-10.0", "n_agents-str", "seed-2.5",
             "seed-False", "death_prob-True", "death_prob-str"],
    )
    def test_rejects_bad_types(self, field, value, message):
        with pytest.raises(ValueError) as caught:
            SwarmConfig(**{field: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-the-64"])
    def test_rejects_seeds_outside_64_bits(self, seed):
        # the draws key on the seed modulo 2**64, so -1 would run as
        # 2**64 - 1 and 2**64 as 0
        with pytest.raises(ValueError) as caught:
            SwarmConfig(seed=seed)
        assert str(caught.value) == f"seed must be in [0, 2**64), got {seed}"

    def test_accepts_the_largest_seed(self):
        assert SwarmConfig(seed=2**64 - 1).seed == 2**64 - 1
        assert SwarmConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_accepts_numpy_scalars(self):
        config = SwarmConfig(n_agents=np.int64(5), max_iters=np.int64(3),
                             death_prob=np.float64(0.25), seed=np.int64(7))
        assert (config.n_agents, config.max_iters, config.seed) == (5, 3, 7)

    @pytest.mark.parametrize("kind", [np.uint8, np.uint16, np.int8, np.int16, np.int64])
    def test_numpy_integers_run_like_ints(self, kind):
        # a uint8 max_iters of 255 once wrapped range(1, max_iters + 1) to
        # nothing; the config keeps Python ints, so the run is the plain one
        config = SwarmConfig(n_agents=kind(5), max_iters=kind(127), death_prob=0.01,
                             seed=kind(9))
        assert all(type(value) is int for value in (config.n_agents, config.max_iters, config.seed))
        graph = graph_of("ring", node_count=5)
        objective = default_spec("shekel")
        plain = SwarmConfig(n_agents=5, max_iters=127, death_prob=0.01, seed=9)
        assert run(config, graph, objective, _everyone) == run(plain, graph, objective, _everyone)
        if np.iinfo(kind).max >= 255:
            wide = SwarmConfig(n_agents=5, max_iters=kind(255))
            assert run(wide, graph, objective, _everyone).iterations_executed == 255


def _recording(source, calls):
    """``source``, recording the ``(channel, first, stop)`` of each call."""

    def rand(channel, first, stop, count, lanes=1):
        calls.append((channel, first, stop))
        return source(channel, first, stop, count, lanes)

    return rand


def _blocks(calls, channel):
    return [(first, stop) for drawn, first, stop in calls if drawn == channel]


class TestDrawChannels:
    def test_run_draws_once_per_channel_and_iteration(self):
        calls = []
        config = SwarmConfig(n_agents=100, max_iters=100, death_prob=0.01)
        run(config, graph_of("ring", node_count=100), default_spec("shekel"), _everyone,
            rand_fn=_recording(make_rand_source([4]), calls))
        # the start once at iteration 0; the social draws and the death
        # schedule in blocks of 40 iterations (2**12 words) that tile
        # iterations 1..100; channel 3 is unused
        assert _blocks(calls, CHANNEL_INIT_POSITION) == [(0, 1)]
        assert _blocks(calls, CHANNEL_INIT_VELOCITY) == [(0, 1)]
        for channel in (CHANNEL_VELOCITY_SOCIAL, CHANNEL_DEATH):
            assert _blocks(calls, channel) == [(1, 41), (41, 81), (81, 101)]
        assert len(calls) == 8
        assert (CHANNEL_INIT_POSITION, CHANNEL_INIT_VELOCITY,
                CHANNEL_VELOCITY_SOCIAL, CHANNEL_DEATH) == (1, 2, 4, 5)

    def test_rows_leaving_inside_a_block_keep_the_others_draws(self):
        # the complete row leaves after iteration 39, inside the first
        # social block, and the small-world row after 52, inside the
        # second; each next block holds as many iterations as 2**12 words
        # give the rows left, and every row is still itself run alone
        objective = default_spec("shekel")
        qualifies = success_predicate(SuccessCriterion(tolerance=1.0), objective)
        graphs = [
            graph_of("complete", node_count=20),
            graph_of("ring", node_count=20),
            graph_of("star", node_count=20),
            graph_of("small-world", node_count=20, degree=4, rewire_prob=0.2, seed=3),
        ]
        configs = [
            SwarmConfig(n_agents=20, max_iters=150, death_prob=p, seed=k)
            for k, p in enumerate((0.0, 0.01, 0.0, 0.01))
        ]
        calls = []
        source = make_rand_source([config.seed for config in configs])
        result = run(SwarmBatch(configs), graphs, objective, qualifies,
                     rand_fn=_recording(source, calls))
        assert _blocks(calls, CHANNEL_VELOCITY_SOCIAL) == [(1, 52), (52, 120), (120, 151)]
        # the schedule draws only the two rows that can lose agents
        assert _blocks(calls, CHANNEL_DEATH) == [(1, 103), (103, 151)]
        assert [row.convergence_iteration for row in result.rows] == [28, None, None, 42]
        for config, graph, row in zip(configs, graphs, result.rows):
            assert run(config, graph, objective, qualifies) == row


def _isolated_first(n: int) -> Graph:
    """Node 0 alone, the other nodes on a ring."""
    return Graph(n, [(i, i % (n - 1) + 1) for i in range(1, n)])


@st.composite
def _mixed_graphs(draw):
    """One graph of every kind at one node count, plus one with an
    isolated node, in a drawn order."""
    rows, cols = draw(st.integers(3, 4)), draw(st.integers(3, 5))
    n = rows * cols
    seed = draw(st.integers(0, 2**16))
    specs = [
        TopologySpec("complete", node_count=n),
        TopologySpec("star", node_count=n),
        TopologySpec("ring", node_count=n),
        TopologySpec("core-periphery", node_count=n, core_size=draw(st.integers(1, n))),
        TopologySpec("ring-core-star", node_count=n, hub_count=draw(st.integers(1, n))),
        TopologySpec("multi-ring", node_count=n, ring_levels=draw(st.integers(1, n // 2))),
        TopologySpec("von-neumann", rows=rows, cols=cols),
        TopologySpec("scale-free", node_count=n, attach_count=draw(st.integers(1, 3)), seed=seed),
        TopologySpec("random", node_count=n, edge_prob=draw(st.floats(0.0, 0.4)), seed=seed),
        TopologySpec(
            "small-world", node_count=n, degree=2 * draw(st.integers(1, 3)),
            rewire_prob=draw(st.floats(0.0, 1.0)), seed=seed,
        ),
    ]
    assert {spec.kind for spec in specs} == set(TOPOLOGY_KINDS)
    graphs = [build_topology(spec) for spec in specs] + [_isolated_first(n)]
    return n, draw(st.permutations(graphs))


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(mixed=_mixed_graphs(), data=st.data())
    def test_rows_equal_serial_runs(self, mixed, data):
        n, graphs = mixed
        objective = default_spec(data.draw(st.sampled_from(OBJECTIVE_NAMES)))
        # a wide success radius, so that some runs converge and some do not
        tolerance = data.draw(st.floats(0.05, 0.5)) * objective.range_diagonal()
        qualifies = success_predicate(SuccessCriterion(tolerance=tolerance), objective)
        configs = [
            SwarmConfig(
                n_agents=n,
                max_iters=25,
                # 0.6 ends most rows inside the batch
                death_prob=data.draw(st.sampled_from((0.0, 0.02, 0.3, 0.6))),
                seed=data.draw(st.integers(0, 2**64 - 1)),
            )
            for _ in graphs
        ]
        traced = data.draw(st.booleans())
        serial = [
            run(config, graph, objective, qualifies, record_trace=traced)
            for config, graph in zip(configs, graphs)
        ]
        cuts = data.draw(st.lists(st.integers(1, len(graphs) - 1), unique=True))
        bounds = [0, *sorted(cuts), len(graphs)]
        batched = []
        for lo, hi in zip(bounds, bounds[1:]):
            result = run(
                SwarmBatch(configs[lo:hi]), graphs[lo:hi], objective, qualifies,
                record_trace=traced,
            )
            assert isinstance(result, BatchResult)
            assert result.iterations_executed == sum(r.iterations_executed for r in serial[lo:hi])
            batched.extend(result.rows)
        assert batched == serial

    def test_rows_may_differ_only_in_seed_and_death(self):
        SwarmBatch([SwarmConfig(seed=1), SwarmConfig(seed=2, death_prob=0.1)])
        for other in (SwarmConfig(n_agents=99), SwarmConfig(max_iters=999)):
            with pytest.raises(ValueError, match="may differ only"):
                SwarmBatch([SwarmConfig(), other])
        with pytest.raises(ValueError, match="at least one row"):
            SwarmBatch([])

    def test_batch_source_rows_match_single_sources(self):
        seeds = [0, 7, 2**64 - 1]
        batch = make_rand_source(seeds)
        draws = batch(CHANNEL_DEATH, 3, 5, 5, 2)
        assert draws.shape == (2, 3, 5, 2)
        for row, seed in enumerate(seeds):
            alone = make_rand_source([seed])(CHANNEL_DEATH, 3, 5, 5, 2)
            assert np.array_equal(draws[:, [row]], alone)

    def test_graph_count_and_size_checked(self):
        batch = SwarmBatch([SwarmConfig(n_agents=6), SwarmConfig(n_agents=6, seed=1)])
        objective = default_spec("ackley")
        with pytest.raises(ValueError, match="1 graphs for 2 rows"):
            run(batch, [graph_of("ring", node_count=6)], objective, _everyone)
        with pytest.raises(ValueError, match="7 nodes for 6 agents"):
            run(batch, [graph_of("ring", node_count=6), graph_of("ring", node_count=7)], objective,
                _everyone)

    def test_death_takes_one_probability_per_row(self):
        drawn = []

        def draws(rows):
            drawn.append(rows.tolist())
            return make_rand_source([[0, 1][row] for row in rows])

        deaths = randomized_death(np.array([[0.0], [0.5]]), draws, 50, 10)
        # row 0 cannot lose anyone, and only row 1 is drawn
        assert (deaths[0] == 11).all() and (deaths[1] <= 10).all()
        assert drawn == [[1]]


def _stripped(predicate, *keep):
    """The same predicate without its certificates, but for the ones
    named in ``keep``: without either, the oracle run steps every row to
    the end and checks success on every iteration."""

    def stripped(best_positions, best_scores):
        return predicate(best_positions, best_scores)

    for name in keep:
        setattr(stripped, name, getattr(predicate, name))
    return stripped


def _recording_step(monkeypatch):
    """Patch ``engine.step`` to record the row count of every call."""
    sizes = []
    original = engine.step

    def recorded(swarm, *args):
        sizes.append(swarm.best_scores.shape[0])
        return original(swarm, *args)

    monkeypatch.setattr(engine, "step", recorded)
    return sizes


# success tolerances per mode: certified ones, and ones too small or too
# large to certify (None is the default, 0.1)
_TOLERANCES = {
    "position-radius": (None, 0.5, 1.5, 3.0, 1e-3, 6.0),
    "value-gap": (None, 0.5, 2.0, 8.0, 1e-5),
}


class TestSettledRows:
    """A row whose every alive agent scores above the predicate's
    ``settle_score`` leaves the stepped batch, and so does a row whose
    agents have all died; the oracle is the same run with the
    certificate stripped, or each row run alone."""

    @settings(max_examples=30, deadline=None)
    @given(mixed=_mixed_graphs(), data=st.data())
    def test_leaving_changes_no_result(self, mixed, data):
        n, graphs = mixed
        objective = default_spec("shekel")
        mode = data.draw(st.sampled_from(SUCCESS_MODES))
        tolerance = data.draw(st.sampled_from(_TOLERANCES[mode]))
        qualifies = success_predicate(SuccessCriterion(mode, tolerance), objective)
        max_iters = 60
        configs = [
            SwarmConfig(
                n_agents=n,
                max_iters=max_iters,
                # loss fractions 0 to 0.3 by the last iteration, and a
                # fast one that can end a row
                death_prob=data.draw(st.sampled_from(
                    (0.0, 1 - 0.9 ** (1 / max_iters), 1 - 0.7 ** (1 / max_iters), 0.1)
                )),
                seed=data.draw(st.integers(0, 2**64 - 1)),
            )
            for _ in graphs
        ]
        batch = SwarmBatch(configs)
        oracle = run(batch, graphs, objective, _stripped(qualifies))
        assert run(batch, graphs, objective, qualifies) == oracle
        # either certificate alone
        alone = _stripped(qualifies, data.draw(st.sampled_from(("settle_score", "floor_score"))))
        assert run(batch, graphs, objective, alone) == oracle
        # each row alone, and the draws injected
        for config, graph, row in zip(configs, graphs, oracle.rows):
            assert run(config, graph, objective, qualifies) == row
        source = make_rand_source([config.seed for config in configs])
        injected = run(batch, graphs, objective, qualifies, rand_fn=lambda *a: source(*a))
        assert injected == oracle

    def test_rows_leave_at_different_iterations(self, monkeypatch):
        # the complete row leaves after iteration 39 and the small-world
        # row after 52, while the ring and star rows step to the end
        objective = default_spec("shekel")
        qualifies = success_predicate(SuccessCriterion(tolerance=1.0), objective)
        graphs = [
            graph_of("complete", node_count=20),
            graph_of("ring", node_count=20),
            graph_of("star", node_count=20),
            graph_of("small-world", node_count=20, degree=4, rewire_prob=0.2, seed=3),
        ]
        batch = SwarmBatch([
            SwarmConfig(n_agents=20, max_iters=150, death_prob=p, seed=k)
            for k, p in enumerate((0.0, 0.01, 0.0, 0.01))
        ])
        sizes = _recording_step(monkeypatch)
        result = run(batch, graphs, objective, qualifies)
        assert sizes == [4] * 39 + [3] * 13 + [2] * 98
        assert result == run(batch, graphs, objective, _stripped(qualifies))
        # the small-world row lost agents after it left
        complete, _, _, small_world = result.rows
        assert (complete.convergence_iteration, complete.iterations_executed) == (28, 150)
        assert small_world.convergence_iteration == 42
        assert small_world.survivors < small_world.winners < 20

    def test_a_batch_whose_rows_all_leave(self, monkeypatch):
        # a value gap of 10 qualifies any score above 0.53: every row
        # leaves within 18 iterations, and the death schedule gives the
        # rows that lose agents their survivors and iterations executed
        objective = default_spec("shekel")
        qualifies = success_predicate(SuccessCriterion("value-gap", 10.0), objective)
        graphs = [graph_of("complete", node_count=10)] * 3
        batch = SwarmBatch([
            SwarmConfig(n_agents=10, max_iters=200, death_prob=p, seed=k)
            for k, p in enumerate((0.0, 0.005, 0.05))
        ])
        sizes = _recording_step(monkeypatch)
        result = run(batch, graphs, objective, qualifies)
        assert len(sizes) == 18
        assert result == run(batch, graphs, objective, _stripped(qualifies))
        assert [row.iterations_executed for row in result.rows] == [200, 200, 87]
        assert [row.survivors for row in result.rows] == [10, 3, 0]

    def test_traced_run_steps_every_row(self, monkeypatch):
        objective = default_spec("shekel")
        qualifies = success_predicate(SuccessCriterion(tolerance=1.0), objective)
        config = SwarmConfig(n_agents=20, max_iters=80, seed=0)
        graph = graph_of("complete", node_count=20)
        sizes = _recording_step(monkeypatch)
        traced = run(config, graph, objective, qualifies, record_trace=True)
        assert len(sizes) == 80
        assert traced == run(config, graph, objective, _stripped(qualifies), record_trace=True)

    def test_floor_gates_the_success_check(self):
        # with the floor alone, the predicate runs on every agent, and
        # only on iterations where a row not yet converged has every
        # alive agent at or above the floor, and at the end unless the
        # last iteration ran it
        objective = default_spec("shekel")
        qualifies = success_predicate(SuccessCriterion(tolerance=1.0), objective)
        graphs = [graph_of(kind, node_count=20) for kind in ("complete", "ring", "star")]
        batch = SwarmBatch([
            SwarmConfig(n_agents=20, max_iters=100, death_prob=0.01, seed=k) for k in range(3)
        ])
        calls = []

        def counted(best_positions, best_scores):
            calls.append(len(best_scores))
            return qualifies(best_positions, best_scores)

        counted.floor_score = qualifies.floor_score
        result = run(batch, graphs, objective, counted)
        assert result == run(batch, graphs, objective, _stripped(qualifies))
        # 25 calls, against one per iteration without the floor; the
        # last iteration's mask also gives the winners
        assert len(calls) == 25
        assert set(calls) == {60}
        assert qualifies.floor_score is not None

    def test_an_extinct_row_leaves(self, monkeypatch):
        # row 0 loses agents 0-2 at iteration 2 and the rest at 3; rows 1
        # and 2 lose no one.  Rastrigin has no settle score, so only the
        # extinction makes a row leave
        n, max_iters = 6, 12
        table = np.full((max_iters + 1, 3, n), 0.9)
        table[2, 0, :3] = table[3, 0, 3:] = 0.0
        source = make_rand_source([0, 1, 2])

        def rand(channel, first, stop, count, lanes=1):
            if channel == CHANNEL_DEATH:
                return table[first:stop, ..., None]
            return source(channel, first, stop, count, lanes)

        objective = default_spec("rastrigin")
        qualifies = success_predicate(SuccessCriterion(), objective)
        configs = [
            SwarmConfig(n_agents=n, max_iters=max_iters, death_prob=0.5, seed=k) for k in range(3)
        ]
        graphs = [graph_of(kind, node_count=n) for kind in ("ring", "star", "complete")]
        sizes = _recording_step(monkeypatch)
        result = run(SwarmBatch(configs), graphs, objective, qualifies, rand_fn=rand)
        assert sizes == [3] * 3 + [2] * 9
        assert [row.iterations_executed for row in result.rows] == [3, 12, 12]
        assert [row.survivors for row in result.rows] == [0, 6, 6]
        # a traced run steps every row, and row 0's trace ends at its extinction
        del sizes[:]
        traced = run(SwarmBatch(configs), graphs, objective, qualifies, rand_fn=rand,
                     record_trace=True)
        assert sizes == [3] * 12
        assert traced.rows[0].trace[0] == (6, 3, 0)
        for row, alone in enumerate(result.rows):
            def own(*args, row=row):
                return rand(*args)[:, [row]]

            assert run(configs[row], graphs[row], objective, qualifies, rand_fn=own) == alone
            assert traced.rows[row] == run(configs[row], graphs[row], objective, qualifies,
                                           rand_fn=own, record_trace=True)
            assert dataclasses.replace(traced.rows[row], trace=None) == alone

    def test_no_certificate_builds_one_source(self, monkeypatch):
        # rastrigin has no settle score: one source, and no row ever leaves
        objective = default_spec("rastrigin")
        qualifies = success_predicate(SuccessCriterion(), objective)
        assert qualifies.settle_score is None and qualifies.floor_score is None
        sources = []
        original = engine.make_rand_source
        monkeypatch.setattr(engine, "make_rand_source",
                            lambda seeds: sources.append(seeds) or original(seeds))
        monkeypatch.setattr(engine, "_take_rows", None)
        batch = SwarmBatch([SwarmConfig(n_agents=16, max_iters=60, seed=k) for k in range(3)])
        run(batch, [graph_of("complete", node_count=16)] * 3, objective, qualifies)
        assert sources == [[0, 1, 2]]


def replay_deaths_per_iteration(probs, rand_fn, n, max_iters):
    """Reference death schedule, one iteration at a time from iteration
    1: each row that still has an agent alive executes the iteration,
    then every alive agent whose draw is below its row's probability
    dies at it.  Gives every agent's death iteration (``max_iters + 1``:
    it survives) and each row's last executed iteration."""
    alive = np.ones((len(probs), n), dtype=bool)
    deaths = np.full((len(probs), n), max_iters + 1)
    executed = np.zeros(len(probs), dtype=int)
    for iteration in range(1, max_iters + 1):
        live = alive.any(axis=1)
        if not live.any():
            break
        executed[live] = iteration
        dies = alive & (rand_fn(CHANNEL_DEATH, iteration, iteration + 1, n)[0, ..., 0] < probs)
        deaths[dies] = iteration
        alive &= ~dies
    return deaths, executed


def _table_source(table):
    """An injected source that reads the death draws of iteration k from
    ``table[k]``, a ``(iterations, B, N)`` array."""

    def rand(channel, first, stop, count, lanes=1):
        assert channel == CHANNEL_DEATH and lanes == 1
        return table[first:stop, ..., None]

    return rand


class TestDeathReplay:
    """``randomized_death`` draws every agent's death iteration one call
    per block of iterations; the reference replays one iteration at a
    time."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_match_the_per_iteration_replay(self, data):
        rows, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        max_iters = data.draw(st.integers(1, 90))
        # p = 0 among the rows, and fast losses that end a row inside a block
        probs = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.01, 0.1, 0.5]), min_size=rows, max_size=rows
        )))[:, None]
        dying = np.flatnonzero(probs[:, 0] > 0).tolist()
        seed = data.draw(st.integers(0, 2**32 - 1))
        # blocks capped at 1 to 15 iterations, so max_iters is rarely a multiple
        words = data.draw(st.integers(1, 15)) * max(1, len(dying)) * n
        if data.draw(st.booleans()):
            rand = _table_source(np.random.default_rng(seed).random((max_iters + 1, rows, n)))
            sources = _one_source(rand)
        else:
            seeds = range(seed, seed + rows)
            rand = make_rand_source(seeds)

            def sources(picked):
                return make_rand_source([seeds[row] for row in picked])

        drawn = []

        def draws(picked):
            drawn.append(picked.tolist())
            return sources(picked)

        expected, executed = replay_deaths_per_iteration(probs, rand, n, max_iters)
        with mock.patch.object(engine, "_BLOCK_WORDS", words):
            deaths = randomized_death(probs, draws, n, max_iters)
        assert deaths.tolist() == expected.tolist()
        # run's iterations executed and survivors, read off the schedule
        assert np.minimum(deaths.max(axis=1), max_iters).tolist() == executed.tolist()
        # only the rows that can lose agents are drawn
        assert drawn == ([dying] if dying else [])

    def test_extinction_inside_a_block(self):
        # row 0 dies at iterations 3 and 5, row 1 loses agent 0 at 4 and
        # keeps agent 1, row 2 (p = 0) loses no one; blocks of 4, 4 and 2
        # iterations.  Row 0's agent 0 draws low again at 7, dead.
        table = np.full((11, 3, 2), 0.9)
        table[3, 0, 0] = table[5, 0, 1] = table[4, 1, 0] = table[7, 0, 0] = 0.0
        probs = np.array([[0.5], [0.5], [0.0]])
        with mock.patch.object(engine, "_BLOCK_WORDS", 4 * 2 * 2):
            deaths = randomized_death(probs, _one_source(_table_source(table)), 2, 10)
        assert deaths.tolist() == [[3, 5], [4, 11], [11, 11]]
        # row 0 alone: every agent is dead in the block of 5 to 8, so no
        # later block is drawn
        asked = []

        def rand(channel, first, stop, count, lanes=1):
            asked.append((first, stop))
            return table[first:stop, [0], :, None]

        with mock.patch.object(engine, "_BLOCK_WORDS", 4 * 2):
            deaths = randomized_death(probs[:1], lambda rows: rand, 2, 10)
        assert deaths.tolist() == [[3, 5]]
        assert asked == [(1, 5), (5, 9)]


def _coordinate_major_ok(array: np.ndarray) -> bool:
    """A ``(B, N, d)`` array is a view of a C-contiguous ``(d, B, N)``
    block, and its ``(B * N, d)`` reshape is a view."""
    d = array.shape[2]
    return array.transpose(2, 0, 1).flags.c_contiguous and np.shares_memory(
        array.reshape(-1, d), array
    )


_STATE_FIELDS = ("positions", "velocities", "best_positions", "best_scores", "alive")


class TestStateLayout:
    """The state is stored coordinate-major; ``step`` gives the same bits
    for a state in any memory order."""

    def _batch(self, name):
        n = 30
        graphs = [graph_of(kind, node_count=n) for kind in ("ring", "star", "complete")]
        configs = [
            SwarmConfig(n_agents=n, seed=seed, death_prob=0.01)
            for seed in range(len(graphs))
        ]
        # Shekel is 4-D only; the separable objectives run at d = 10, where
        # a sum in another memory order would change bits
        dimension = None if name == "shekel" else 10
        return SwarmBatch(configs), graphs, default_spec(name, dimension)

    @pytest.mark.parametrize("name", ["shekel", "rastrigin"])
    def test_state_arrays_are_coordinate_major(self, name):
        batch, graphs, objective = self._batch(name)
        rand = make_rand_source([c.seed for c in batch.configs])
        swarm = initialize(batch, objective, rand)
        hoods = Neighborhoods(graphs)
        for social in (None, *rand(CHANNEL_VELOCITY_SOCIAL, 1, 4, 30)):
            if social is not None:
                step(swarm, hoods, objective, social)
            for array in (swarm.positions, swarm.velocities, swarm.best_positions):
                assert array.shape == (3, 30, objective.dimension)
                assert _coordinate_major_ok(array)

    @pytest.mark.parametrize("name", ["shekel", "rastrigin", "griewank"])
    def test_step_bits_do_not_depend_on_memory_order(self, name):
        batch, graphs, objective = self._batch(name)
        probs = np.array([[c.death_prob] for c in batch.configs])
        rand = make_rand_source([c.seed for c in batch.configs])
        columns = initialize(batch, objective, rand)
        rows = SwarmState(
            *(np.array(getattr(columns, field), order="C") for field in _STATE_FIELDS)
        )
        assert not _coordinate_major_ok(rows.positions)
        hoods = Neighborhoods(graphs)
        deaths = randomized_death(probs, _one_source(rand), batch.n_agents, 50)
        draws = rand(CHANNEL_VELOCITY_SOCIAL, 1, 51, batch.n_agents)
        for iteration, social in enumerate(draws, start=1):
            for swarm in (columns, rows):
                step(swarm, hoods, objective, social)
                np.greater(deaths, iteration, out=swarm.alive)
            for field in _STATE_FIELDS:
                # tobytes reads both in C order: equal bytes are equal bits
                expected = getattr(columns, field).tobytes()
                assert getattr(rows, field).tobytes() == expected, (iteration, field)
        assert rows.positions.flags.c_contiguous
        assert not columns.alive.all()


def _every_kind(n_side: int = 4) -> list[TopologySpec]:
    n = n_side * n_side
    return [
        TopologySpec("complete", node_count=n),
        TopologySpec("star", node_count=n),
        TopologySpec("ring", node_count=n),
        TopologySpec("core-periphery", node_count=n, core_size=5),
        TopologySpec("ring-core-star", node_count=n, hub_count=4),
        TopologySpec("multi-ring", node_count=n, ring_levels=3),
        TopologySpec("von-neumann", rows=n_side, cols=n_side),
        TopologySpec("scale-free", node_count=n, attach_count=2, seed=3),
        TopologySpec("random", node_count=n, edge_prob=0.2, seed=3),
        TopologySpec("small-world", node_count=n, degree=4, rewire_prob=0.3, seed=3),
    ]


class TestGraphReads:
    def test_run_reads_no_dense_adjacency(self, monkeypatch):
        # the engine reads each graph's candidate CSR and complete flag only
        specs = _every_kind()
        assert {spec.kind for spec in specs} == set(TOPOLOGY_KINDS)
        objective = default_spec("rastrigin")
        qualifies = success_predicate(SuccessCriterion(), objective)
        batch = SwarmBatch([
            SwarmConfig(n_agents=16, max_iters=30, death_prob=0.02, seed=seed)
            for seed in range(len(specs))
        ])
        expected = run(batch, [build_topology(spec) for spec in specs], objective, qualifies)

        def dense_read(*args, **kwargs):
            raise AssertionError("the engine read a dense adjacency")

        monkeypatch.setattr(Graph, "dense", dense_read)
        # fresh graphs, whose candidate sets are built under the patch
        graphs = [build_topology(spec) for spec in specs]
        assert all("candidates" not in vars(graph) for graph in graphs)
        assert run(batch, graphs, objective, qualifies) == expected

    def test_workers_ship_graphs_without_a_square_array(self):
        text = "\n".join([
            "version = 1",
            "base_seed = 5",
            "repetitions = 2",
            "max_iters = 20",
            "objectives = rastrigin",
            "death_fractions = 0, 0.3",
            "topology = complete n=400",
            "topology = star n=400",
            "topology = von-neumann rows=20 cols=20",
            "topology = small-world n=400 degree=6 rewire_prob=0.1 seed=1",
        ]) + "\n"
        plan = parse_plan(text)
        for spec in plan.topologies:
            graph = build_topology(spec)
            graph.candidates  # the cache stays behind
            # a pool task carries the stored CSR, 4 bytes per neighbour entry
            # and 8 per offset (a complete graph, neither), against 160 000
            # for a 400 x 400 bool array
            stored = 0 if graph.is_complete else 8 * graph.edge_count + 8 * 401
            assert len(pickle.dumps(graph)) <= stored + 1024 < 400 * 400 // 8
        assert run_plan(plan, workers=2) == run_plan(plan, workers=1)
