"""Particle swarm engine with topology-restricted communication and
random agent deactivation.

Agents maximize a score (minimization objectives are negated by the
objective layer).  Each iteration applies a synchronous constriction
update followed by an independent per-agent death draw.  Dead agents
keep their state forever: they stop moving, stop dying, and drop out
of every neighborhood candidate set, but their recorded bests still
count when final winners are tallied.

All randomness flows through a counter-based uniform source keyed by
(channel, iteration, agent, lane), so draws are independent of
evaluation order and can be replaced wholesale in tests.

Cost per iteration: leader selection gathers scores through the
graph's padded neighbor table (:meth:`Graph.neighbor_table`), so it is
O(N * (k_max + 1)) for N agents and largest degree k_max.  On the
complete graph with the agent in its own neighborhood every leader is
the same, found by one O(N) argmax.  The velocity and position update
is O(N * d) for dimension d.  Each uniform draw call costs one key
derivation on Python ints (the per-channel key is cached) plus two
in-place vector splitmix64 rounds over the N * lanes words it returns;
at N=100 that is fixed per-call numpy overhead, not arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .topology import Graph

__all__ = [
    "CHANNEL_INIT_POSITION",
    "CHANNEL_INIT_VELOCITY",
    "CHANNEL_VELOCITY_PERSONAL",
    "CHANNEL_VELOCITY_SOCIAL",
    "CHANNEL_DEATH",
    "make_rand_source",
    "SwarmConfig",
    "SwarmState",
    "TraceRecord",
    "RunResult",
    "initialize",
    "step",
    "randomized_death",
    "run",
]

# draw channels; one per independent use of randomness
CHANNEL_INIT_POSITION = 1
CHANNEL_INIT_VELOCITY = 2
CHANNEL_VELOCITY_PERSONAL = 3
CHANNEL_VELOCITY_SOCIAL = 4
CHANNEL_DEATH = 5

_U64_MASK = (1 << 64) - 1
# splitmix64 constants: the increment and the two finalizer multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# the same as uint64 scalars, so the array rounds convert nothing per call
_U_GAMMA, _U_MUL1, _U_MUL2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_U30, _U27, _U31, _U11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)


def _mix64(z: int) -> int:
    """splitmix64 finalizer of one word, on Python ints; any int is
    taken modulo 2**64."""
    z = (z + _GAMMA) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _U64_MASK
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, overwriting it.

    Array uint64 arithmetic wraps silently, which is the intended
    modulo-2**64 arithmetic.
    """
    z += _U_GAMMA
    z ^= z >> _U30
    z *= _U_MUL1
    z ^= z >> _U27
    z *= _U_MUL2
    z ^= z >> _U31
    return z


def make_rand_source(seed: int):
    """Counter-based uniform source.

    Returns ``rand(channel, iteration, agent_count, lanes=1)`` giving
    a ``(agent_count, lanes)`` array of floats in ``[0, 1)``.  Every
    value is a pure hash of ``(seed, channel, iteration, agent,
    lane)``: no hidden stream state, so the same coordinates always
    yield the same number regardless of call order.

    The value at ``(agent, lane)`` is the top 53 bits of
    ``mix(mix(key + agent) + lane)`` scaled to ``[0, 1)``, where
    ``key = mix(mix(mix(seed) + channel) + iteration)``, ``mix`` is
    the splitmix64 finalizer and every sum wraps modulo 2**64.
    ``channel`` and ``iteration`` must lie in ``[0, 2**64)``
    (``OverflowError`` otherwise).
    """
    base = _mix64(int(seed))
    channel_keys: dict[int, int] = {}
    counters: dict[int, np.ndarray] = {}

    def counter(count: int) -> np.ndarray:
        # 0 .. count-1 as uint64, built once per size and never written
        values = counters.get(count)
        if values is None:
            values = counters[count] = np.arange(count, dtype=np.uint64)
        return values

    def rand(channel: int, iteration: int, agent_count: int, lanes: int = 1) -> np.ndarray:
        if agent_count < 1 or lanes < 1:
            raise ValueError("agent_count and lanes must be >= 1")
        channel_key = channel_keys.get(channel)
        if channel_key is None:
            channel_key = _mix64(base + int(np.uint64(channel)))
            channel_keys[channel] = channel_key
        key = _mix64(channel_key + int(np.uint64(iteration)))
        hashed = _mix64_inplace(counter(agent_count) + np.uint64(key))
        hashed = _mix64_inplace(hashed[:, None] + counter(lanes))
        hashed >>= _U11
        draws = hashed.astype(np.float64)
        draws *= 2.0**-53
        return draws

    return rand


@dataclass(frozen=True)
class SwarmConfig:
    """Engine hyperparameters.

    Defaults follow the constriction setup: chi 0.7298438, no
    personal term (phi1 0), social coefficient 2.05, velocities
    clamped per component to [-10, 10], 100 agents, 1000 iterations.
    """

    chi: float = 0.7298438
    phi1: float = 0.0
    phi2: float = 2.05
    v_min: float = -10.0
    v_max: float = 10.0
    n_agents: int = 100
    max_iters: int = 1000
    death_prob: float = 0.0
    seed: int = 0
    include_self: bool = True

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")
        if not 0.0 <= self.death_prob < 1.0:
            raise ValueError(f"death_prob must be in [0, 1), got {self.death_prob}")
        for name in ("chi", "phi1", "phi2", "v_min", "v_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class SwarmState:
    """Whole-swarm state as parallel arrays, one row per agent."""

    positions: np.ndarray       # (N, d)
    velocities: np.ndarray      # (N, d)
    best_positions: np.ndarray  # (N, d)
    best_scores: np.ndarray     # (N,)
    alive: np.ndarray           # (N,) bool

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.alive))


@dataclass(frozen=True)
class TraceRecord:
    """One per-iteration snapshot in a run trace."""

    iteration: int
    alive_count: int
    best_score: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of one full run."""

    converged: bool
    convergence_iteration: int | None
    winners: int
    survivors: int
    iterations_executed: int
    trace: tuple[TraceRecord, ...] | None = None


def initialize(config: SwarmConfig, objective, rand_fn=None) -> SwarmState:
    """Fresh swarm: positions uniform in the search box, velocities
    uniform in the clamp interval, bests at the starting positions,
    everyone alive."""
    rand = rand_fn or make_rand_source(config.seed)
    n, d = config.n_agents, objective.dimension
    u_pos = rand(CHANNEL_INIT_POSITION, 0, n, d)
    u_vel = rand(CHANNEL_INIT_VELOCITY, 0, n, d)
    positions = objective.lower + u_pos * (objective.upper - objective.lower)
    velocities = config.v_min + u_vel * (config.v_max - config.v_min)
    return SwarmState(
        positions=positions,
        velocities=velocities,
        best_positions=positions.copy(),
        best_scores=objective.score_many(positions),
        alive=np.ones(n, dtype=bool),
    )


def _leaders(
    graph: Graph, include_self: bool, scores: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Neighborhood leader of every agent.

    An agent's candidates are its graph neighbors, plus itself when
    ``include_self`` is on.  The leader is the alive candidate with the
    highest score, ties going to the lowest index; an agent with no
    alive candidate leads itself.
    """
    n = scores.shape[0]
    if include_self and graph.is_complete:
        # every agent's candidates are the whole swarm: one argmax serves all
        if not alive.any():
            return np.arange(n)
        return np.full(n, np.argmax(np.where(alive, scores, -np.inf)))
    table = graph.neighbor_table(include_self)
    # slot n backs the padding sentinel: dead, scoring -inf
    padded_scores = np.full(n + 1, -np.inf)
    np.copyto(padded_scores[:n], scores, where=alive)
    padded_alive = np.zeros(n + 1, dtype=bool)
    padded_alive[:n] = alive
    # ascending rows: argmax takes the lowest index among tied bests
    leaders = table[np.arange(n), padded_scores[table].argmax(axis=1)]
    # a row with no alive candidate is all -inf and lands on a dead slot
    return np.where(padded_alive[leaders], leaders, np.arange(n))


def step(
    swarm: SwarmState,
    graph: Graph,
    objective,
    config: SwarmConfig,
    rand_fn,
    iteration: int,
) -> SwarmState:
    """One synchronous constriction update, in place.

    Neighborhood bests come from the pre-step snapshot, so update
    order cannot leak information within an iteration.  The two
    uniform draws are scalars per agent per term, multiplying whole
    difference vectors.  Velocities are clamped per component after
    the update; positions are never clamped.  Dead agents do not
    move.
    """
    if graph.node_count != swarm.n_agents:
        raise ValueError(
            f"graph has {graph.node_count} nodes for {swarm.n_agents} agents"
        )
    n = swarm.n_agents
    snap_best_pos = swarm.best_positions.copy()
    snap_best_scores = swarm.best_scores.copy()
    alive = swarm.alive

    # neighborhood leader per agent, from the snapshot
    leaders = _leaders(graph, config.include_self, snap_best_scores, alive)
    social_targets = snap_best_pos[leaders]

    r_personal = rand_fn(CHANNEL_VELOCITY_PERSONAL, iteration, n)[:, 0]
    r_social = rand_fn(CHANNEL_VELOCITY_SOCIAL, iteration, n)[:, 0]

    velocity = config.chi * (
        swarm.velocities
        + config.phi1 * r_personal[:, None] * (snap_best_pos - swarm.positions)
        + config.phi2 * r_social[:, None] * (social_targets - swarm.positions)
    )
    np.clip(velocity, config.v_min, config.v_max, out=velocity)
    moved = swarm.positions + velocity

    new_scores = objective.score_many(moved)
    np.copyto(swarm.velocities, velocity, where=alive[:, None])
    np.copyto(swarm.positions, moved, where=alive[:, None])
    improved = alive & (new_scores > snap_best_scores)
    np.copyto(swarm.best_positions, moved, where=improved[:, None])
    np.copyto(swarm.best_scores, new_scores, where=improved)
    return swarm


def randomized_death(
    swarm: SwarmState, p: float, rand_fn, iteration: int
) -> tuple[SwarmState, list[int]]:
    """Independent per-agent deactivation: alive agents with draw
    ``r < p`` die.  Returns the swarm and the newly dead indices."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"death probability must be in [0, 1), got {p}")
    if p > 0.0:
        draws = rand_fn(CHANNEL_DEATH, iteration, swarm.n_agents)[:, 0]
        newly = swarm.alive & (draws < p)
    else:
        newly = np.zeros(swarm.n_agents, dtype=bool)
    swarm.alive &= ~newly
    return swarm, np.flatnonzero(newly).tolist()


def run(
    config: SwarmConfig,
    graph: Graph,
    objective,
    success_fn=None,
    rand_fn=None,
    record_trace: bool = False,
) -> RunResult:
    """Full run: iterate step + death until max_iters or swarm death.

    ``success_fn`` maps (best_positions, best_scores) to a boolean
    qualification mask per agent.  The run converges at the first
    iteration where every alive agent qualifies, but always continues
    to ``max_iters`` so late winners still count.  Winners are
    qualifying agents in the final state, dead ones included;
    survivors are agents still alive.  Fully deterministic given
    ``config.seed`` (or an injected ``rand_fn``).
    """
    if graph.node_count != config.n_agents:
        raise ValueError(
            f"graph has {graph.node_count} nodes for {config.n_agents} agents"
        )
    rand = rand_fn or make_rand_source(config.seed)
    swarm = initialize(config, objective, rand)
    converged = False
    convergence_iteration: int | None = None
    trace: list[TraceRecord] = []
    iterations_executed = 0
    for iteration in range(1, config.max_iters + 1):
        if swarm.alive_count() == 0:
            break
        step(swarm, graph, objective, config, rand, iteration)
        randomized_death(swarm, config.death_prob, rand, iteration)
        iterations_executed = iteration
        if success_fn is not None and not converged and swarm.alive.any():
            qualified = success_fn(swarm.best_positions, swarm.best_scores)
            if bool(qualified[swarm.alive].all()):
                converged = True
                convergence_iteration = iteration
        if record_trace:
            trace.append(
                TraceRecord(
                    iteration=iteration,
                    alive_count=swarm.alive_count(),
                    best_score=float(swarm.best_scores.max()),
                )
            )
    if success_fn is not None:
        winners = int(
            np.count_nonzero(success_fn(swarm.best_positions, swarm.best_scores))
        )
    else:
        winners = 0
    return RunResult(
        converged=converged,
        convergence_iteration=convergence_iteration,
        winners=winners,
        survivors=swarm.alive_count(),
        iterations_executed=iterations_executed,
        trace=tuple(trace) if record_trace else None,
    )
