"""Engine oracle tests.

The three-step trace was computed by hand: two agents on a line, score
-x^2, chi=0.5, phi1=1.0, phi2=2.0, with pinned uniform draws.  Agent 1
improves first, agent 0's velocity cancels to exactly zero at step 2,
and the leader switches to agent 1 at step 3.

The uniform source is checked against ``reference_draw``, a splitmix64
written on Python ints one draw at a time, and a fixed block of its
draws is pinned by sha256 (taken from the numpy-array implementation
that derived its keys with one-element arrays under ``np.errstate``).
"""

import hashlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmtopo import engine
from swarmtopo.engine import (
    CHANNEL_DEATH,
    CHANNEL_INIT_POSITION,
    CHANNEL_VELOCITY_PERSONAL,
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
from swarmtopo.harness import SuccessCriterion, success_predicate
from swarmtopo.objectives import OBJECTIVE_NAMES, default_spec
from swarmtopo.topology import (
    TOPOLOGY_KINDS,
    Graph,
    TopologySpec,
    build_topology,
)

from strategies import graph_of, topology_specs


def neighborhood_best(agent: int, graph: Graph, swarm: SwarmState) -> np.ndarray:
    """Per-agent oracle: best-known position among an agent's alive
    candidates, in a one-row swarm.

    Candidates are the agent itself and its graph neighbors.  Ties
    break toward the lowest agent index.  If every candidate is dead
    the agent falls back to its own best (no outside information is
    available).
    """
    row = np.array(graph.adjacency[agent])
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
    cand = np.array(graph.adjacency, dtype=bool)
    np.fill_diagonal(cand, True)
    eligible = cand & alive[None, :]
    masked = np.where(eligible, scores[None, :], -np.inf)
    leaders = np.argmax(masked, axis=1)  # ties take the lowest index
    return np.where(eligible.any(axis=1), leaders, np.arange(n))


def _hoods(graph: Graph) -> Neighborhoods:
    return Neighborhoods((graph,))


def _leaders(graph, scores, alive):
    return _hoods(graph).leaders(scores, alive)


def _one_row(positions, velocities, best_positions, best_scores, alive) -> SwarmState:
    """A one-row swarm from per-agent arrays."""
    arrays = (positions, velocities, best_positions, best_scores, alive)
    return SwarmState(*(np.asarray(array)[None] for array in arrays))


class _Parabola:
    """Maximize -x^2 on a line; exact arithmetic for the hand trace."""

    dimension = 1
    lower = -5.0
    upper = 5.0

    def score_many(self, points):
        return -(np.asarray(points)[:, 0] ** 2)


# per-iteration scalar draws for the hand trace (rows: iterations 1..3)
TRACE_R1 = [[0.25, 0.5], [0.6, 0.3], [0.45, 0.05]]
TRACE_R2 = [[0.75, 0.1], [0.2, 0.9], [0.35, 0.65]]


def _trace_rand(channel, iteration, agent_count, lanes=1):
    table = {CHANNEL_VELOCITY_PERSONAL: TRACE_R1, CHANNEL_VELOCITY_SOCIAL: TRACE_R2}
    column = np.array(table[channel][iteration - 1], dtype=np.float64)
    assert agent_count == 2 and lanes == 1
    return column.reshape(1, 2, 1)


def _fresh_trace_swarm():
    positions = np.array([[1.0], [-2.0]])
    return _one_row(
        positions=positions.copy(),
        velocities=np.array([[0.5], [0.25]]),
        best_positions=positions.copy(),
        best_scores=_Parabola().score_many(positions),
        alive=np.ones(2, dtype=bool),
    )


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


# sha256 of the float64 bytes of rand(channel, iteration, 37, 3) over
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
        draws = make_rand_source([seed])(channel, iteration, agent_count, lanes)
        expected = [
            [reference_draw(seed, channel, iteration, agent, lane) for lane in range(lanes)]
            for agent in range(agent_count)
        ]
        assert draws.dtype == np.float64
        assert np.array_equal(draws, np.array([expected]))

    def test_draw_block_pinned(self):
        parts = []
        for seed in DRAW_BLOCK_SEEDS:
            rand = make_rand_source([seed])
            for channel in range(1, 6):
                for iteration in DRAW_BLOCK_ITERATIONS:
                    parts.append(rand(channel, iteration, 37, 3))
        block = np.concatenate(parts).tobytes()
        assert hashlib.sha256(block).hexdigest() == DRAW_BLOCK_SHA256

    def test_cached_keys_match_a_fresh_source(self):
        # the per-channel keys and counter arrays are cached: every call
        # in an interleaved sequence must give a fresh source's draws
        rand = make_rand_source([9])
        calls = [(5, 4, 50, 2), (5, 5, 80, 3), (4, 4, 50, 2), (4, 5, 2, 50),
                 (5, 4, 50, 2), (1, 0, 80, 1), (4, 4, 3, 3)]
        for coords in calls:
            assert np.array_equal(rand(*coords), make_rand_source([9])(*coords)), coords

    def test_shape_and_range(self):
        rand = make_rand_source([7])
        draws = rand(CHANNEL_DEATH, 3, 50, 4)
        assert draws.shape == (1, 50, 4)
        assert (draws >= 0.0).all() and (draws < 1.0).all()
        assert rand(CHANNEL_DEATH, 3, 50).shape == (1, 50, 1)

    def test_pure_coordinates(self):
        rand = make_rand_source([7])
        a = rand(CHANNEL_VELOCITY_SOCIAL, 9, 20)
        b = rand(CHANNEL_VELOCITY_SOCIAL, 9, 20)
        assert np.array_equal(a, b)
        # same coordinates from a fresh source with the same seed
        assert np.array_equal(a, make_rand_source([7])(CHANNEL_VELOCITY_SOCIAL, 9, 20))

    def test_agent_and_lane_prefixes(self):
        rand = make_rand_source([11])
        big = rand(CHANNEL_INIT_POSITION, 0, 30, 6)
        assert np.array_equal(big[:, :12], rand(CHANNEL_INIT_POSITION, 0, 12, 6))
        assert np.array_equal(big[..., :2], rand(CHANNEL_INIT_POSITION, 0, 30, 2))

    def test_channels_iterations_seeds_decorrelated(self):
        rand = make_rand_source([0])
        a = rand(CHANNEL_VELOCITY_PERSONAL, 1, 100)
        assert not np.array_equal(a, rand(CHANNEL_VELOCITY_SOCIAL, 1, 100))
        assert not np.array_equal(a, rand(CHANNEL_VELOCITY_PERSONAL, 2, 100))
        assert not np.array_equal(a, make_rand_source([1])(CHANNEL_VELOCITY_PERSONAL, 1, 100))

    def test_roughly_uniform(self):
        rand = make_rand_source([3])
        draws = rand(CHANNEL_DEATH, 1, 100_000)[0, :, 0]
        assert abs(draws.mean() - 0.5) < 0.005
        assert abs(np.quantile(draws, 0.25) - 0.25) < 0.01

    def test_rejects_empty(self):
        rand = make_rand_source([0])
        with pytest.raises(ValueError, match="agent_count and lanes must be >= 1"):
            rand(CHANNEL_DEATH, 0, 0)
        with pytest.raises(ValueError, match="agent_count and lanes must be >= 1"):
            rand(CHANNEL_DEATH, 0, 5, 0)

    @pytest.mark.parametrize("bad", [-1, -(1 << 40), 1 << 64])
    def test_rejects_coordinates_outside_64_bits(self, bad):
        rand = make_rand_source([0])
        with pytest.raises(OverflowError):
            rand(bad, 0, 5)
        with pytest.raises(OverflowError):
            rand(CHANNEL_DEATH, bad, 5)


# one move of the iteration cursor: the next `count` iterations in order,
# the same one again, a step back, a jump, or a jump to near 2**64 - 1
_MOVES = st.one_of(
    st.tuples(st.just("next"), st.integers(min_value=1, max_value=20)),
    st.tuples(st.just("repeat"), st.just(1)),
    st.tuples(st.just("back"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("jump"), st.integers(min_value=0, max_value=1 << 40)),
    st.tuples(st.just("top"), st.integers(min_value=0, max_value=6)),
)
# (channel, agent_count, lanes) from small pools, so that shapes recur
_SHAPES = st.tuples(
    st.sampled_from([1, 4, 5]),
    st.sampled_from([1, 3, 5]),
    st.sampled_from([1, 2]),
)


def _iterations(moves):
    cursor = 0
    for (kind, amount), shape in moves:
        if kind == "next":
            for _ in range(amount):
                cursor = min(cursor + 1, MASK64)
                yield shape, cursor
            continue
        if kind == "back":
            cursor = max(cursor - amount, 0)
        elif kind == "jump":
            cursor = amount
        elif kind == "top":
            cursor = MASK64 - amount
        yield shape, cursor


class TestDrawBlocks:
    """The source computes whole blocks of iterations ahead of the calls;
    every call must still give what a fresh source's single call gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=-(1 << 64), max_value=1 << 65), min_size=1, max_size=4
        ),
        moves=st.lists(st.tuples(_MOVES, _SHAPES), min_size=1, max_size=12),
        budget=st.sampled_from([1, 7, 64, engine._BLOCK_WORDS]),
    )
    def test_any_call_sequence_matches_fresh_single_calls(self, seeds, moves, budget):
        with mock.patch.object(engine, "_BLOCK_WORDS", budget):
            rand = make_rand_source(seeds)
            kept = []
            for (channel, count, lanes), iteration in _iterations(moves):
                draws = rand(channel, iteration, count, lanes)
                assert np.array_equal(
                    draws, make_rand_source(seeds)(channel, iteration, count, lanes)
                )
                expected = [
                    [[reference_draw(seed, channel, iteration, agent, lane)
                      for lane in range(lanes)] for agent in range(count)]
                    for seed in seeds
                ]
                assert np.array_equal(draws, np.array(expected))
                with pytest.raises(ValueError, match="read-only"):
                    draws[...] = 0.5
                kept.append((draws, draws.copy()))
        # later calls never rewrite an array handed out earlier
        for draws, copy in kept:
            assert np.array_equal(draws, copy)

    def test_block_sizes_double_on_consecutive_calls(self):
        # record K of each block through its (K, B) array of iteration keys
        spans = []

        def recording(z):
            if z.ndim == 2:
                spans.append(z.shape[0])
            return _mix64_inplace(z)

        with mock.patch.object(engine, "_mix64_inplace", recording), \
                mock.patch.object(engine, "_BLOCK_WORDS", 2 * 3 * 10 * 4):
            rand = make_rand_source([1, 2])
            rand(CHANNEL_INIT_POSITION, 0, 3, 4)
            for iteration in range(1, 30):
                rand(CHANNEL_VELOCITY_SOCIAL, iteration, 3, 4)
            rand(CHANNEL_VELOCITY_SOCIAL, 40, 3, 4)
            rand(CHANNEL_VELOCITY_SOCIAL, 41, 3, 4)
            rand(CHANNEL_VELOCITY_SOCIAL, 3, 3, 4)
            for iteration in range(MASK64 - 5, MASK64 + 1):
                rand(CHANNEL_VELOCITY_SOCIAL, iteration, 3, 4)
        # one iteration at 0, then 1, 2, 4, 8 and the cap of 10 to iteration
        # 35; a jump starts over, a step back too, and no block runs past
        # the last iteration
        assert spans == [1, 1, 2, 4, 8, 10, 10, 1, 2, 1, 1, 2, 3]

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            make_rand_source([])


class TestHandTrace:
    def test_three_steps_match_hand_computation(self):
        config = SwarmConfig(chi=0.5, phi1=1.0, phi2=2.0, n_agents=2, max_iters=3)
        graph = _hoods(graph_of("complete", node_count=2))
        objective = _Parabola()
        swarm = _fresh_trace_swarm()

        expected = [
            # (positions, velocities, best_positions)
            ([1.25, -1.575], [0.25, 0.425], [1.0, -1.575]),
            ([1.25, 0.9550000000000003], [0.0, 2.53], [1.0, 0.9550000000000003]),
            (
                [1.0905, 2.2200000000000006],
                [-0.1594999999999999, 1.265],
                [1.0, 0.9550000000000003],
            ),
        ]
        for iteration, (pos, vel, best) in enumerate(expected, start=1):
            step(swarm, graph, objective, config, _trace_rand, iteration)
            assert np.allclose(swarm.positions[0, :, 0], pos, rtol=0.0, atol=1e-12)
            assert np.allclose(swarm.velocities[0, :, 0], vel, rtol=0.0, atol=1e-12)
            assert np.allclose(swarm.best_positions[0, :, 0], best, rtol=0.0, atol=1e-12)

        # chi times a cancelling sum: exactly zero, not merely small
        swarm = _fresh_trace_swarm()
        step(swarm, graph, objective, SwarmConfig(chi=0.5, phi1=1.0, phi2=2.0, n_agents=2), _trace_rand, 1)
        step(swarm, graph, objective, SwarmConfig(chi=0.5, phi1=1.0, phi2=2.0, n_agents=2), _trace_rand, 2)
        assert swarm.velocities[0, 0, 0] == 0.0

    def test_scalar_draw_multiplies_whole_vector(self):
        # 2-D: one scalar per term scales both components identically
        class Plane:
            dimension = 2

            def score_many(self, points):
                return -np.abs(np.asarray(points)).sum(axis=1)

        def fixed_rand(channel, iteration, agent_count, lanes=1):
            return np.full((1, agent_count, lanes), 0.5)

        config = SwarmConfig(chi=1.0, phi1=0.0, phi2=2.0, n_agents=2, v_max=100.0, v_min=-100.0)
        positions = np.array([[0.0, 0.0], [3.0, -6.0]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.zeros((2, 2)),
            best_positions=positions.copy(),
            best_scores=Plane().score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        step(swarm, _hoods(graph_of("complete", node_count=2)), Plane(), config, fixed_rand, 1)
        # agent 1 moves toward agent 0's best: v = 1.0*(0 + 2*0.5*(0-x))
        assert np.allclose(swarm.velocities[0, 1], [-3.0, 6.0], atol=1e-15)


class TestStepInvariants:
    def test_velocity_clamp_on_randomized_steps(self):
        objective = default_spec("rastrigin")
        config = SwarmConfig(n_agents=1000, max_iters=1)
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
        for iteration in range(1, 101):  # 10^5 agent-steps
            step(swarm, graph, objective, config, rand, iteration)
            assert (np.abs(swarm.velocities) <= config.v_max).all()

    def test_positions_not_clamped(self):
        objective = _Parabola()
        config = SwarmConfig(chi=1.0, phi2=2.0, n_agents=2, v_min=-10, v_max=10)

        def push(channel, iteration, agent_count, lanes=1):
            return np.full((1, agent_count, lanes), 0.999)

        positions = np.array([[4.9], [-4.9]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.array([[9.0], [-9.0]]),
            best_positions=positions.copy(),
            best_scores=objective.score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        step(swarm, _hoods(graph_of("complete", node_count=2)), objective, config, push, 1)
        # agent 0 sails past the objective's box; nothing pulls it back
        assert swarm.positions.max() > 5.0

    def test_dead_agents_do_not_move_but_keep_bests(self):
        objective = default_spec("rastrigin")
        config = SwarmConfig(n_agents=4, max_iters=1)
        rand = make_rand_source([5])
        swarm = initialize(SwarmBatch([config_with(n_agents=4)]), objective, rand)
        frozen_pos = swarm.positions[0, 2].copy()
        frozen_best = swarm.best_scores[0, 2]
        swarm.alive[0, 2] = False
        step(swarm, _hoods(graph_of("complete", node_count=4)), objective, config, rand, 1)
        assert np.array_equal(swarm.positions[0, 2], frozen_pos)
        assert swarm.best_scores[0, 2] == frozen_best

    def test_synchronous_update_uses_snapshot(self):
        # if updates leaked within the iteration, agent 1 would chase
        # agent 0's *new* best; the snapshot keeps it on the old one
        class Line(_Parabola):
            pass

        def rand(channel, iteration, agent_count, lanes=1):
            return np.ones((1, agent_count, lanes)) * 0.5

        config = SwarmConfig(chi=1.0, phi1=0.0, phi2=1.0, n_agents=2, v_min=-100, v_max=100)
        positions = np.array([[2.0], [10.0]])
        swarm = _one_row(
            positions=positions.copy(),
            velocities=np.array([[-1.0], [0.0]]),
            best_positions=positions.copy(),
            best_scores=Line().score_many(positions),
            alive=np.ones(2, dtype=bool),
        )
        step(swarm, _hoods(graph_of("complete", node_count=2)), Line(), config, rand, 1)
        # agent 0 moved to 1.0 (a better best), but agent 1 must have
        # targeted the snapshot best 2.0: v = 0.5*(2-10) = -4
        assert swarm.positions[0, 0, 0] == 1.0
        assert swarm.velocities[0, 1, 0] == -4.0

    def test_personal_bests_monotone(self):
        objective = default_spec("ackley")
        config = SwarmConfig(n_agents=30, max_iters=1)
        rand = make_rand_source([17])
        swarm = initialize(SwarmBatch([config_with(n_agents=30)]), objective, rand)
        graph = _hoods(graph_of("ring", node_count=30))
        previous = swarm.best_scores.copy()
        for iteration in range(1, 40):
            step(swarm, graph, objective, config, rand, iteration)
            assert (swarm.best_scores >= previous).all()
            previous = swarm.best_scores.copy()


def config_with(**kwargs):
    return SwarmConfig(**kwargs)


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
        config = SwarmConfig(n_agents=12, max_iters=1)
        rand = make_rand_source([23])
        swarm = initialize(SwarmBatch([config_with(n_agents=12)]), objective, rand)
        swarm.alive[0, [3, 7]] = False
        graph = graph_of("ring", node_count=12)
        expected = np.stack(
            [neighborhood_best(i, graph, swarm) for i in range(12)]
        )
        # zero draws isolate the social target: x' = x + chi*phi2*0*(...)
        # so instead compare against a chi=1, phi2=1, r=1 step
        def ones(channel, iteration, agent_count, lanes=1):
            return np.ones((1, agent_count, lanes))

        probe = SwarmState(
            positions=swarm.positions.copy(),
            velocities=np.zeros_like(swarm.velocities),
            best_positions=swarm.best_positions.copy(),
            best_scores=swarm.best_scores.copy(),
            alive=swarm.alive.copy(),
        )
        cfg = SwarmConfig(chi=1.0, phi1=0.0, phi2=1.0, n_agents=12, v_min=-1e9, v_max=1e9)
        step(probe, _hoods(graph), objective, cfg, ones, 1)
        # x' - x = social_target - x  =>  social_target = x'
        got = np.where(swarm.alive[0, :, None], probe.positions[0], expected)
        assert np.allclose(got, expected, atol=1e-12)


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
        indptr, indices = Graph(np.zeros((2, 2), dtype=bool)).candidates
        assert indptr.tolist() == [0, 1, 2] and indices.tolist() == [0, 1]
        assert star.candidates is star.candidates
        assert not any(array.flags.writeable for array in star.candidates)

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


class TestDeathAndRun:
    def test_death_draws_deterministic(self):
        rand = make_rand_source([31])
        config = SwarmConfig(n_agents=200, max_iters=1)
        objective = default_spec("rastrigin")
        swarm = initialize(SwarmBatch([config]), objective, rand)
        randomized_death(swarm, np.array([0.1]), rand, 7)
        expected = np.flatnonzero(rand(CHANNEL_DEATH, 7, 200)[0, :, 0] < 0.1).tolist()
        assert np.flatnonzero(~swarm.alive[0]).tolist() == expected

    def test_death_zero_probability(self):
        rand = make_rand_source([0])
        swarm = initialize(SwarmBatch([SwarmConfig(n_agents=50)]), default_spec("ackley"), rand)
        randomized_death(swarm, np.array([0.0]), rand, 1)
        assert swarm.alive.all()

    def test_dead_stay_dead(self):
        rand = make_rand_source([13])
        swarm = initialize(SwarmBatch([SwarmConfig(n_agents=100)]), default_spec("ackley"), rand)
        swarm.alive[0, :50] = False
        randomized_death(swarm, np.array([0.9]), rand, 1)
        # the dead are not revived; the alive half loses agents of its own
        assert not swarm.alive[0, :50].any()
        assert 0 < np.count_nonzero(swarm.alive[0, 50:]) < 50

    def test_initialize_within_bounds(self):
        objective = default_spec("schwefel")
        config = SwarmConfig(n_agents=300, seed=8)
        swarm = initialize(SwarmBatch([config]), objective, make_rand_source([config.seed]))
        assert swarm.positions.shape == (1, 300, objective.dimension)
        assert (swarm.positions >= objective.lower).all()
        assert (swarm.positions <= objective.upper).all()
        assert (np.abs(swarm.velocities) <= config.v_max).all()
        assert np.array_equal(swarm.best_positions, swarm.positions)
        assert swarm.alive.all()

    def test_run_deterministic(self):
        config = SwarmConfig(n_agents=30, max_iters=60, seed=5, death_prob=0.001)
        objective = default_spec("shekel")
        graph = graph_of("ring", node_count=30)
        a = run(config, graph, objective)
        b = run(config, graph, objective)
        assert a == b

    def test_run_continues_after_convergence(self):
        # success as soon as any best score beats a low bar: converges
        # at iteration 1 yet still executes all max_iters
        config = SwarmConfig(n_agents=20, max_iters=30, seed=2)
        objective = default_spec("shekel")

        def everyone(best_positions, best_scores):
            return np.ones(len(best_scores), dtype=bool)

        result = run(config, graph_of("complete", node_count=20), objective, success_fn=everyone)
        assert result.converged
        assert result.convergence_iteration == 1
        assert result.iterations_executed == 30
        assert result.winners == 20
        assert result.survivors == 20

    def test_run_counts_dead_winners(self):
        config = SwarmConfig(n_agents=40, max_iters=80, seed=3, death_prob=0.05)
        objective = default_spec("shekel")

        def everyone(best_positions, best_scores):
            return np.ones(len(best_scores), dtype=bool)

        result = run(config, graph_of("complete", node_count=40), objective, success_fn=everyone)
        assert result.winners == 40
        assert result.survivors < 40

    @staticmethod
    def _death_draws(draws):
        # death channel pinned per agent, every other draw 0.5
        def rand(channel, iteration, agent_count, lanes=1):
            if channel == CHANNEL_DEATH:
                return np.array(draws, dtype=float).reshape(1, agent_count, 1)
            return np.full((1, agent_count, lanes), 0.5)

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
        def everyone(best_positions, best_scores):
            return np.ones(len(best_scores), dtype=bool)

        config = SwarmConfig(n_agents=3, max_iters=5, death_prob=0.5)
        result = run(config, graph_of("complete", node_count=3), default_spec("shekel"), everyone,
                     rand_fn=self._death_draws([0.0, 0.0, 0.0]))
        assert not result.converged and result.convergence_iteration is None
        assert result.iterations_executed == 1
        # the dead still count as winners
        assert (result.winners, result.survivors) == (3, 0)

    def test_run_stops_when_swarm_dies(self):
        config = SwarmConfig(n_agents=10, max_iters=500, seed=4, death_prob=0.5)
        result = run(config, graph_of("complete", node_count=10), default_spec("ackley"))
        assert result.survivors == 0
        assert result.iterations_executed < 500

    def test_run_trace(self):
        config = SwarmConfig(n_agents=15, max_iters=20, seed=6)
        graph = graph_of("ring", node_count=15)
        result = run(config, graph, default_spec("griewank"), record_trace=True)
        alive_counts, scores = result.trace
        # iteration k at index k - 1, for iterations 1..20
        assert len(alive_counts) == len(scores) == result.iterations_executed == 20
        assert alive_counts == (15,) * 20 and isinstance(scores, tuple)
        assert all(type(count) is int for count in alive_counts)
        assert all(type(score) is float for score in scores)
        assert list(scores) == sorted(scores)

    def test_run_graph_size_mismatch(self):
        with pytest.raises(ValueError):
            run(SwarmConfig(n_agents=5), graph_of("ring", node_count=6), default_spec("ackley"))


class TestConfigValidation:
    def test_defaults_match_constriction_setup(self):
        config = SwarmConfig()
        assert config.chi == 0.7298438
        assert config.phi1 == 0.0
        assert config.phi2 == 2.05
        assert (config.v_min, config.v_max) == (-10.0, 10.0)
        assert config.n_agents == 100
        assert config.max_iters == 1000

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SwarmConfig(n_agents=0)
        with pytest.raises(ValueError):
            SwarmConfig(v_min=1.0, v_max=-1.0)
        with pytest.raises(ValueError):
            SwarmConfig(death_prob=1.0)
        with pytest.raises(ValueError):
            SwarmConfig(death_prob=1.5)
        with pytest.raises(ValueError):
            SwarmConfig(chi=float("nan"))
        with pytest.raises(ValueError):
            SwarmConfig(phi2=float("inf"))


class TestPersonalTerm:
    @staticmethod
    def _counting_source(seed):
        source = make_rand_source([seed])
        calls = Counter()

        def rand(channel, iteration, agent_count, lanes=1):
            calls[channel] += 1
            return source(channel, iteration, agent_count, lanes)

        return rand, calls

    @pytest.mark.parametrize("phi1, personal_draws", [(0.0, 0), (0.5, 12)])
    def test_personal_draw_only_when_phi1_is_nonzero(self, phi1, personal_draws):
        rand, calls = self._counting_source(4)
        config = SwarmConfig(n_agents=10, max_iters=12, phi1=phi1)
        run(config, graph_of("ring", node_count=10), default_spec("shekel"), rand_fn=rand)
        assert calls[CHANNEL_VELOCITY_PERSONAL] == personal_draws
        assert calls[CHANNEL_VELOCITY_SOCIAL] == 12


def _isolated_first(n: int) -> Graph:
    """Node 0 alone, the other nodes on a ring."""
    return Graph.from_edges(n, [(i, i % (n - 1) + 1) for i in range(1, n)])


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
                death_prob=data.draw(st.sampled_from((0.0, 0.02, 0.3))),
                seed=data.draw(st.integers(0, 2**64 - 1)),
            )
            for _ in graphs
        ]
        serial = [
            run(config, graph, objective, qualifies, record_trace=True)
            for config, graph in zip(configs, graphs)
        ]
        cuts = data.draw(st.lists(st.integers(1, len(graphs) - 1), unique=True))
        bounds = [0, *sorted(cuts), len(graphs)]
        batched = []
        for lo, hi in zip(bounds, bounds[1:]):
            result = run(
                SwarmBatch(configs[lo:hi]), graphs[lo:hi], objective, qualifies,
                record_trace=True,
            )
            assert isinstance(result, BatchResult)
            assert result.iterations_executed == sum(r.iterations_executed for r in serial[lo:hi])
            batched.extend(result.rows)
        assert batched == serial

    def test_rows_may_differ_only_in_seed_and_death(self):
        SwarmBatch([SwarmConfig(seed=1), SwarmConfig(seed=2, death_prob=0.1)])
        with pytest.raises(ValueError, match="may differ only"):
            SwarmBatch([SwarmConfig(), SwarmConfig(phi2=2.0)])
        with pytest.raises(ValueError, match="at least one row"):
            SwarmBatch([])

    def test_batch_source_rows_match_single_sources(self):
        seeds = [0, 7, 2**64 - 1]
        batch = make_rand_source(seeds)
        draws = batch(CHANNEL_DEATH, 3, 5, 2)
        assert draws.shape == (3, 5, 2)
        for row, seed in zip(draws, seeds):
            assert np.array_equal(row, make_rand_source([seed])(CHANNEL_DEATH, 3, 5, 2)[0])

    def test_graph_count_and_size_checked(self):
        batch = SwarmBatch([SwarmConfig(n_agents=6), SwarmConfig(n_agents=6, seed=1)])
        objective = default_spec("ackley")
        with pytest.raises(ValueError, match="1 graphs for 2 rows"):
            run(batch, [graph_of("ring", node_count=6)], objective)
        with pytest.raises(ValueError, match="7 nodes for 6 agents"):
            run(batch, [graph_of("ring", node_count=6), graph_of("ring", node_count=7)], objective)

    def test_death_takes_one_probability_per_row(self):
        batch = SwarmBatch([SwarmConfig(n_agents=50), SwarmConfig(n_agents=50, seed=1)])
        rand = make_rand_source([0, 1])
        swarm = initialize(batch, default_spec("ackley"), rand)
        randomized_death(swarm, np.array([0.0, 0.5]), rand, 1)
        # row 0 cannot lose anyone
        assert swarm.alive[0].all() and not swarm.alive[1].all()


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

    def _batch(self, name, phi1):
        n = 30
        graphs = [graph_of(kind, node_count=n) for kind in ("ring", "star", "complete")]
        configs = [
            SwarmConfig(n_agents=n, phi1=phi1, seed=seed, death_prob=0.01)
            for seed in range(len(graphs))
        ]
        # Shekel is 4-D only; the separable objectives run at d = 10, where
        # a sum in another memory order would change bits
        dimension = None if name == "shekel" else 10
        return SwarmBatch(configs), graphs, default_spec(name, dimension)

    @pytest.mark.parametrize("name", ["shekel", "rastrigin"])
    def test_state_arrays_are_coordinate_major(self, name):
        batch, graphs, objective = self._batch(name, 0.0)
        rand = make_rand_source([c.seed for c in batch.configs])
        swarm = initialize(batch, objective, rand)
        hoods = Neighborhoods(graphs)
        for iteration in range(4):
            if iteration:
                step(swarm, hoods, objective, batch.configs[0], rand, iteration)
            for array in (swarm.positions, swarm.velocities, swarm.best_positions):
                assert array.shape == (3, 30, objective.dimension)
                assert _coordinate_major_ok(array)

    @pytest.mark.parametrize("name", ["shekel", "rastrigin", "griewank"])
    @pytest.mark.parametrize("phi1", [0.0, 1.5])
    def test_step_bits_do_not_depend_on_memory_order(self, name, phi1):
        batch, graphs, objective = self._batch(name, phi1)
        config = batch.configs[0]
        probs = np.array([c.death_prob for c in batch.configs])
        rand = make_rand_source([c.seed for c in batch.configs])
        columns = initialize(batch, objective, rand)
        rows = SwarmState(
            *(np.array(getattr(columns, field), order="C") for field in _STATE_FIELDS)
        )
        assert not _coordinate_major_ok(rows.positions)
        hoods = Neighborhoods(graphs)
        for iteration in range(1, 51):
            for swarm in (columns, rows):
                step(swarm, hoods, objective, config, rand, iteration)
                randomized_death(swarm, probs, rand, iteration)
            for field in _STATE_FIELDS:
                # tobytes reads both in C order: equal bytes are equal bits
                expected = getattr(columns, field).tobytes()
                assert getattr(rows, field).tobytes() == expected, (iteration, field)
        assert rows.positions.flags.c_contiguous
        assert not columns.alive.all()
