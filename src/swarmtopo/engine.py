"""Particle swarm engine with topology-restricted communication and
random agent deactivation.

Agents maximize a score (minimization objectives are negated by the
objective layer).  Each iteration applies a synchronous constriction
update, after which every alive agent dies with its row's probability
by an independent draw.  The update is fixed, the social-only
constriction step of Clerc & Kennedy (2002):
``v' = clip(chi * (v + phi * r * (g - x)), -10, 10)``, ``x' = x + v'``
with chi 0.7298438 and phi 2.05, where ``g`` is the best position of the
agent's neighbourhood leader and ``r`` one uniform draw per agent.  Dead
agents keep their state forever: they stop moving, stop dying, and drop out
of every neighborhood candidate set, but their recorded bests still
count when final winners are tallied.

The death draws never read the search, so each agent's death iteration
is fixed by its row's seed before the swarm moves: :func:`randomized_death`
draws that schedule once per run, and the loop reads every iteration's
alive mask from it.

The engine has one array shape: every state array carries a leading
row axis of B swarms, ``(B, N, d)`` and ``(B, N)``.  The rows of a
:class:`SwarmBatch` share the agent count N, the iteration budget and
the objective; each row has its own seed, death probability and
graph, and its own convergence, winners, survivors, iteration count
and trace.  A single run is a batch of one: ``run`` wraps a lone
:class:`SwarmConfig` and its graph into a one-row batch at entry and
returns that row's result, so every row of a batch is, bit for bit,
the run its own config gives alone.

``run`` is the one checked entry: :class:`SwarmConfig` and
:class:`SwarmBatch` check their values when built, and ``run`` checks
the graphs against the rows and the agent count once per call.  Its
parts, :func:`randomized_death` and the loop's :func:`initialize`,
:class:`Neighborhoods` and :func:`step` on a :class:`SwarmState`, are
not public and trust those checks: they check nothing on any
iteration.

All randomness flows through a counter-based uniform source keyed by
(seed, channel, iteration, agent, lane), so draws are independent of
evaluation order, and the draws of later iterations can be computed
early without changing a bit.  :func:`make_rand_source` takes the B
seeds and draws read-only ``(B, count, lanes)`` arrays; an injected
``rand_fn`` has that shape too, which lets tests replace the draws
wholesale.

The ``(B, N, d)`` arrays are stored coordinate-major: :func:`initialize`
makes each a view of a C-contiguous ``(d, B, N)`` block, so every
coordinate of the whole batch is one contiguous row of B * N values and
``reshape(-1, d)`` stays a view.  Only the memory order differs from a
C-ordered array: shapes, values and indexing are the same, and ``step``
gives the same bits for a state in any order.

Cost per iteration, for B rows of N agents in dimension d:

* the velocity and position update is O(B * N * d), in numpy calls
  whose inner loops run over the B * N values of one coordinate row:
  the social targets are gathered with one ``np.take`` along the rows
  of the ``(d, B * N)`` best positions, the temporaries inherit that
  order, and the ``(B, N, 1)`` draws and the alive and improved masks
  broadcast along contiguous rows rather than over rows of d = 2 or 4;
* leader selection: an agent's candidates are itself and its
  neighbours.  The scores are gathered through one flat CSR of
  candidate segments (:class:`Neighborhoods`), reduced by one
  segmented max and the lowest index among each segment's maxima, and
  each agent reads its segment's leader.  A row with E edges holds
  2E + N entries, one segment per agent, so a hub costs its own degree
  and no other row pads to it; a complete row is one segment of its N
  agents, which they all share.  That is O(sum over rows of N + E) for
  the other rows and O(N) for a complete one;
* the success check runs only on iterations where a row not yet
  converged has every alive agent at or above the predicate's
  ``floor_score`` (see :func:`run`), and then on every stepped row;
* the uniform draws are computed ahead, a block of up to K
  iterations per (channel, count, lanes) at a time: three in-place
  vector splitmix64 rounds over the K * B keys, the K * B * N and the
  K * B * N * lanes words of the block.  Consecutive iterations double
  K from 1 up to the ``_BLOCK_WORDS`` budget of 2**12 words (K = 4 at
  B = 10, N = 100), so a draw call is mostly a dictionary lookup that
  returns a read-only view of one iteration;
* deaths cost one comparison of the schedule against the iteration.
  The schedule itself is drawn once per run, before the loop, for the
  rows that can lose agents, in the source's blocks of iterations,
  until every agent of those rows has died or ``max_iters``;
* a row that has settled or died out (see :func:`run`) costs nothing:
  it has left the batch.

At N=100 one swarm's iteration is mostly fixed per-call numpy
overhead, which a batch shares among its rows; the coordinate-major
state, the block draws, the centres-major Shekel kernel and the
column-wise success check keep each numpy call's inner loop N or B * N
entries long instead of 1-10, and read the state's coordinate rows
with no transposing copy.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .topology import _check_type

__all__ = [
    "CHANNEL_INIT_POSITION",
    "CHANNEL_INIT_VELOCITY",
    "CHANNEL_VELOCITY_SOCIAL",
    "CHANNEL_DEATH",
    "make_rand_source",
    "SwarmConfig",
    "SwarmBatch",
    "RunResult",
    "BatchResult",
    "run",
]

# draw channels, one per independent use of randomness; a channel's
# number keys its draws, so the numbers never change (3 is unused)
CHANNEL_INIT_POSITION = 1
CHANNEL_INIT_VELOCITY = 2
CHANNEL_VELOCITY_SOCIAL = 4
CHANNEL_DEATH = 5

# the fixed update: constriction factor, social coefficient, velocity clamp
_CHI, _PHI = 0.7298438, 2.05
_V_MIN, _V_MAX = -10.0, 10.0

_U64_MASK = (1 << 64) - 1
# splitmix64 constants: the increment and the two finalizer multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# the same as uint64 scalars, so the array rounds convert nothing per call
_U_GAMMA, _U_MUL1, _U_MUL2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_U30, _U27, _U31, _U11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
# the most words one cached block of draws holds (32 KiB of float64):
# enough iterations to amortize most of the per-call numpy overhead at
# N = 100, small enough that a block and the temporaries that build it
# stay below malloc's 128 KiB mmap and trim thresholds, so refilling blocks
# reuses freed heap memory and faults in no new pages once warm
_BLOCK_WORDS = 1 << 12


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


def make_rand_source(seeds):
    """Counter-based uniform source for B swarms.

    ``seeds`` is a sequence of B >= 1 seeds, one per row.  Returns
    ``rand(channel, iteration, agent_count, lanes=1)`` giving a
    read-only ``(B, agent_count, lanes)`` array of floats in ``[0, 1)``,
    whose row ``b`` depends on ``seeds[b]`` alone.  Every value is a
    pure hash of ``(seed, channel, iteration, agent, lane)``: no hidden
    stream state, so the same coordinates always yield the same number
    regardless of call order.

    The value at ``(agent, lane)`` is the top 53 bits of
    ``mix(mix(key + agent) + lane)`` scaled to ``[0, 1)``, where
    ``key = mix(mix(mix(seed) + channel) + iteration)``, ``mix`` is
    the splitmix64 finalizer and every sum wraps modulo 2**64.
    ``channel`` and ``iteration`` must lie in ``[0, 2**64)``
    (``OverflowError`` otherwise).

    Draws are computed a block of K iterations at a time.  The source
    keeps one ``(K, B, agent_count, lanes)`` block per ``(channel,
    agent_count, lanes)`` and answers from it, a contiguous view of one
    iteration, while the iteration lies inside.  A miss on the iteration
    right after that shape's previous call doubles K; any other miss
    starts over at K = 1.  K is capped so that a block holds at most
    ``_BLOCK_WORDS`` words (but at least one iteration), and a block
    never runs past iteration ``2**64 - 1``.
    """
    bases = [_mix64(int(seed)) for seed in seeds]
    if not bases:
        raise ValueError("a source needs at least one seed")
    channel_keys: dict[int, np.ndarray] = {}
    counters: dict[int, np.ndarray] = {}
    # (channel, agent_count, lanes) -> [first iteration, block, last call's iteration]
    blocks: dict[tuple[int, int, int], list] = {}

    def counter(count: int) -> np.ndarray:
        # 0 .. count-1 as uint64, built once per size and never written
        values = counters.get(count)
        if values is None:
            values = counters[count] = np.arange(count, dtype=np.uint64)
        return values

    def rand(channel: int, iteration: int, agent_count: int, lanes: int = 1) -> np.ndarray:
        if agent_count < 1 or lanes < 1:
            raise ValueError("agent_count and lanes must be >= 1")
        if not 0 <= iteration <= _U64_MASK:
            raise OverflowError(f"iteration {iteration} is outside [0, 2**64)")
        shape = (channel, agent_count, lanes)
        cached = blocks.get(shape)
        span = 1
        if cached is not None:
            first, block, previous = cached
            cached[2] = iteration
            if first <= iteration < first + len(block):
                return block[iteration - first]
            if iteration == previous + 1:
                cap = max(1, _BLOCK_WORDS // (len(bases) * agent_count * lanes))
                span = min(2 * len(block), cap, _U64_MASK + 1 - iteration)
        channel_key = channel_keys.get(channel)
        if channel_key is None:
            if not 0 <= channel <= _U64_MASK:
                raise OverflowError(f"channel {channel} is outside [0, 2**64)")
            channel_key = channel_keys[channel] = np.array(
                [_mix64(base + channel) for base in bases], dtype=np.uint64
            )
        # one key per (iteration, row), then the per-agent and per-lane rounds
        keys = counter(span)[:, None] + channel_key
        keys += np.uint64(iteration)
        hashed = _mix64_inplace(_mix64_inplace(keys)[..., None] + counter(agent_count))
        hashed = _mix64_inplace(hashed[..., None] + counter(lanes))
        hashed >>= _U11
        block = hashed.astype(np.float64)
        block *= 2.0**-53
        block.setflags(write=False)
        blocks[shape] = [iteration, block, iteration]
        return block[0]

    return rand


@dataclass(frozen=True)
class SwarmConfig:
    """One run's settings; the update itself is fixed.

    When built, a config checks that ``n_agents``, ``max_iters`` and
    ``seed`` are integers and ``death_prob`` a number (no bool is
    either), that ``n_agents, max_iters >= 1``, ``0 <= death_prob < 1``
    and ``0 <= seed < 2**64``, and raises ``ValueError`` otherwise.  The
    draws key on the seed modulo 2**64, so no two accepted seeds share
    their draws.  It stores the three integers as Python ints, whatever
    integer type they came as.
    """

    n_agents: int = 100
    max_iters: int = 1000
    death_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_agents", "max_iters", "death_prob", "seed"):
            _check_type(name, getattr(self, name), integer=name != "death_prob")
        # a numpy integer would keep its own width in run's arithmetic
        for name in ("n_agents", "max_iters", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.death_prob < 1.0:
            raise ValueError(f"death_prob must be in [0, 1), got {self.death_prob}")
        if not 0 <= self.seed <= _U64_MASK:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class SwarmBatch:
    """B runs at once, one :class:`SwarmConfig` per row.

    The rows share ``n_agents`` and ``max_iters``; each has its own
    ``seed`` and ``death_prob``.
    """

    configs: tuple[SwarmConfig, ...]

    def __post_init__(self) -> None:
        configs = tuple(self.configs)
        object.__setattr__(self, "configs", configs)
        if not configs:
            raise ValueError("a batch needs at least one row")
        shared = (configs[0].n_agents, configs[0].max_iters)
        if any((config.n_agents, config.max_iters) != shared for config in configs):
            raise ValueError("batch rows may differ only in seed and death_prob")

    @property
    def n_agents(self) -> int:
        return self.configs[0].n_agents


@dataclass
class SwarmState:
    """The state of B swarms as parallel arrays: one row per swarm, one
    entry per agent within it.  Any memory order steps to the same bits;
    the coordinate-major order of :func:`initialize` is the fast one."""

    positions: np.ndarray       # (B, N, d)
    velocities: np.ndarray      # (B, N, d)
    best_positions: np.ndarray  # (B, N, d)
    best_scores: np.ndarray     # (B, N)
    alive: np.ndarray           # (B, N) bool

    @property
    def n_agents(self) -> int:
        return self.positions.shape[1]

    @property
    def dimension(self) -> int:
        return self.positions.shape[2]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one full run.

    ``trace``, when recorded, is ``(alive_counts, best_scores)``: two
    tuples of Python numbers, the alive agent count and the swarm's best
    score after each of iterations 1..``iterations_executed``, iteration
    k at index k - 1.
    """

    converged: bool
    convergence_iteration: int | None
    winners: int
    survivors: int
    iterations_executed: int
    trace: tuple[tuple[int, ...], tuple[float, ...]] | None = None


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batch: one :class:`RunResult` per row."""

    rows: tuple[RunResult, ...]

    @property
    def iterations_executed(self) -> int:
        """Iterations executed, summed over the rows."""
        return sum(row.iterations_executed for row in self.rows)


class Neighborhoods:
    """The leader-candidate sets of B graphs over N agents, flattened once.

    An agent's candidates are itself and its neighbours.  Agent ``i`` of
    row ``b`` is flat agent ``b * N + i``.  The rows' candidate segments
    are laid end to end as one CSR whose indices are offset by row, and
    every agent reads the leader of its own segment.  A row's segments
    are its nodes' candidate sets (:attr:`Graph.candidates`), so a hub
    costs its own degree and no other row pads to it; a complete row is
    one segment of its N agents, which they all share, and never builds
    the N² entries of its candidate sets.
    """

    def __init__(self, graphs) -> None:
        graphs = tuple(graphs)
        n = self.node_count = graphs[0].node_count
        self._self = np.arange(len(graphs) * n)
        counts, indices, owners = [], [], []
        first = 0  # the row's first segment
        for row, graph in enumerate(graphs):
            if graph.is_complete:
                counts.append([n])
                indices.append(self._self[row * n : (row + 1) * n])
                owners.append(np.full(n, first))
            else:
                indptr, local = graph.candidates
                counts.append(np.diff(indptr))
                indices.append(local + row * n)
                owners.append(np.arange(first, first + n))
            first += len(counts[-1])
        counts = np.concatenate(counts)
        self._starts = np.cumsum(counts) - counts
        self._segments = np.repeat(np.arange(counts.size), counts)
        self._indices = np.concatenate(indices)
        # the segment every flat agent reads its leader from
        self._owners = np.concatenate(owners)

    def _gather(self, masked: np.ndarray) -> np.ndarray:
        # the lowest-index best candidate of every CSR segment
        values = masked[self._indices]
        best = np.maximum.reduceat(values, self._starts)
        hits = np.flatnonzero(values == best[self._segments])
        # candidates ascend, so a segment's first hit is its lowest-index best
        segments = self._segments[hits]
        first = hits[np.concatenate(([True], segments[1:] != segments[:-1]))]
        return self._indices[first]

    def leaders(self, scores: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """Flat index of every agent's leader.

        The leader is the alive candidate with the highest score, ties
        going to the lowest index; an agent with no alive candidate
        leads itself.  Scores must not be NaN.
        """
        alive = alive.ravel()
        masked = np.where(alive, scores.ravel(), -np.inf)
        leaders = self._gather(masked)[self._owners]
        # a dead leader means every candidate is dead (they all score -inf)
        return np.where(alive[leaders], leaders, self._self)


def _coordinate_major(values: np.ndarray) -> np.ndarray:
    """``values`` copied into a ``(B, N, d)`` view of a C-contiguous
    ``(d, B, N)`` block."""
    return np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(1, 2, 0)


def initialize(batch: SwarmBatch, objective, rand_fn) -> SwarmState:
    """Fresh ``(B, N, d)`` swarm: positions uniform in the search box,
    velocities uniform in the clamp interval, bests at the starting
    positions, everyone alive; the ``(B, N, d)`` arrays coordinate-major.
    ``rand_fn`` draws like :func:`make_rand_source` of the batch's seeds."""
    n, d = batch.n_agents, objective.dimension
    u_pos = rand_fn(CHANNEL_INIT_POSITION, 0, n, d)
    u_vel = rand_fn(CHANNEL_INIT_VELOCITY, 0, n, d)
    positions = _coordinate_major(
        objective.lower + u_pos * (objective.upper - objective.lower)
    )
    velocities = _coordinate_major(_V_MIN + u_vel * (_V_MAX - _V_MIN))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        best_positions=positions.copy(order="K"),
        best_scores=objective.score_many(positions.reshape(-1, d)).reshape(u_pos.shape[:2]),
        alive=np.ones(u_pos.shape[:2], dtype=bool),
    )


def step(
    swarm: SwarmState,
    neighborhoods: Neighborhoods,
    objective,
    rand_fn,
    iteration: int,
) -> SwarmState:
    """One synchronous constriction update of every row, in place.

    ``neighborhoods`` holds one graph per row.  Neighborhood bests come
    from the pre-step state, so update order cannot leak information
    within an iteration.  The uniform draw is one scalar per agent,
    multiplying the whole difference vector.  Velocities are clamped
    per component after the update; positions are never clamped.  Dead
    agents do not move.
    """
    n, d = swarm.n_agents, swarm.dimension
    positions, alive = swarm.positions, swarm.alive

    # social term: toward each agent's neighborhood leader, read before any
    # write; the gather yields contiguous (d, B * N) coordinate rows, so the
    # temporaries below are coordinate-major whatever the state's order
    leaders = neighborhoods.leaders(swarm.best_scores, alive)
    targets = np.take(swarm.best_positions.reshape(-1, d).T, leaders, axis=1)
    velocity = targets.T.reshape(positions.shape)
    velocity -= positions
    velocity *= _PHI * rand_fn(CHANNEL_VELOCITY_SOCIAL, iteration, n)
    velocity += swarm.velocities
    velocity *= _CHI
    np.clip(velocity, _V_MIN, _V_MAX, out=velocity)
    moved = positions + velocity

    new_scores = objective.score_many(moved.reshape(-1, d)).reshape(alive.shape)
    np.copyto(swarm.velocities, velocity, where=alive[..., None])
    np.copyto(positions, moved, where=alive[..., None])
    improved = alive & (new_scores > swarm.best_scores)
    np.copyto(swarm.best_positions, moved, where=improved[..., None])
    np.copyto(swarm.best_scores, new_scores, where=improved)
    return swarm


def randomized_death(probs: np.ndarray, draws, n: int, max_iters: int) -> np.ndarray:
    """Every agent's death iteration, a ``(B, N)`` int64 array: the first
    iteration in 1..``max_iters`` whose death draw is below its row's
    probability, or ``max_iters + 1`` for an agent that survives.

    ``probs`` is the float64 ``(B, 1)`` column that :func:`run` builds
    once from the rows' validated ``death_prob``, and ``draws(rows)``
    gives the draw source of the batch rows ``rows``.  Only the rows with
    a positive probability are drawn, a block of iterations at a time,
    the blocks doubling from one iteration up to ``_BLOCK_WORDS`` words
    as the source's own do, until every agent of those rows has died or
    ``max_iters`` is drawn."""
    deaths = np.full((len(probs), n), max_iters + 1, dtype=np.int64)
    rows = np.flatnonzero(probs[:, 0] > 0)
    if not rows.size:
        return deaths
    rand, probs, schedule = draws(rows), probs[rows], deaths[rows]
    cap = max(1, _BLOCK_WORDS // schedule.size)
    first, span = 1, 1
    while first <= max_iters and (schedule > max_iters).any():
        stop = min(first + span, max_iters + 1)
        # (K, R, N): the block's draws, one contiguous (R, N) plane per
        # iteration; each agent's first iteration below its row's
        # probability, and an agent already dead keeps its earlier one
        block = np.stack([rand(CHANNEL_DEATH, iteration, n)[..., 0]
                          for iteration in range(first, stop)])
        hits = np.where(block < probs, np.arange(first, stop)[:, None, None], max_iters + 1)
        np.minimum(schedule, hits.min(axis=0), out=schedule)
        first, span = stop, min(2 * span, cap)
    deaths[rows] = schedule
    return deaths


def _take_rows(swarm: SwarmState, keep: np.ndarray) -> SwarmState:
    """The rows ``keep`` (a mask) of a state, copied; the ``(B, N, d)``
    arrays stay coordinate-major."""

    def take(values: np.ndarray) -> np.ndarray:
        return values.transpose(2, 0, 1)[:, keep].transpose(1, 2, 0)

    return SwarmState(
        positions=take(swarm.positions),
        velocities=take(swarm.velocities),
        best_positions=take(swarm.best_positions),
        best_scores=swarm.best_scores[keep],
        alive=swarm.alive[keep],
    )


def _results(converged_at, winners, survivors, executed, trace=None) -> list[RunResult]:
    """One :class:`RunResult` per row, from its convergence iteration
    (0: not converged), winner and survivor counts, last executed
    iteration and, when traced, ``trace(row)``."""
    return [
        RunResult(
            converged=at > 0,
            convergence_iteration=at or None,
            winners=won,
            survivors=alive_at_end,
            iterations_executed=last,
            trace=None if trace is None else trace(row),
        )
        for row, (at, won, alive_at_end, last) in enumerate(zip(
            converged_at.tolist(), winners.tolist(), survivors.tolist(), executed.tolist()
        ))
    ]


def run(
    config: SwarmConfig | SwarmBatch,
    graph,
    objective,
    success_fn,
    rand_fn=None,
    record_trace: bool = False,
) -> RunResult | BatchResult:
    """Full run: step until max_iters or swarm death.

    ``success_fn`` maps (best_positions, best_scores) to a boolean
    qualification mask per agent.  The run converges at the first
    iteration where every alive agent qualifies, and goes on to
    ``max_iters`` so late winners still count.  Winners are
    qualifying agents in the final state, dead ones included;
    survivors are agents still alive.  Fully deterministic given
    ``config.seed`` (or an injected ``rand_fn``, which draws
    ``(B, count, lanes)`` arrays like :func:`make_rand_source`).

    Deaths are drawn before the loop: :func:`randomized_death` gives
    every agent's death iteration, and from it each row's survivors and
    iterations executed, the last iteration that one of its agents
    starts alive.  After each step, the agents whose death iteration
    has come are dead.

    ``success_fn`` may carry two certificates, as
    :func:`harness.success_predicate` attaches; either may be ``None``
    or absent, and neither changes a result.  Below ``floor_score`` no
    best score qualifies: for the convergence check, ``success_fn`` is
    called, on every stepped row, only on iterations where some row not
    yet converged has every alive agent at or above it.  Above
    ``settle_score`` every best score qualifies: a row whose every alive
    agent scores above it has its final winners and convergence
    iteration, since bests never fall and the dead are frozen.  It
    leaves the batch, and so does a row whose agents have all died,
    since nothing about it can change.  A traced run steps every row to
    the last iteration any row executes, since its best scores keep
    moving.

    A :class:`SwarmBatch` takes one graph per row and gives a
    :class:`BatchResult`; ``success_fn`` then sees the stepped rows'
    agents at once, as ``(B * N, d)`` and ``(B * N,)`` arrays.  One
    :class:`SwarmConfig` and its graph run as a batch of one and give
    that row's :class:`RunResult`, so each row of a batch is, bit for
    bit, what ``run`` gives that row's config and graph alone.
    """
    single = isinstance(config, SwarmConfig)
    batch, graphs = (SwarmBatch((config,)), (graph,)) if single else (config, tuple(graph))
    shared = batch.configs[0]
    if len(graphs) != len(batch.configs):
        raise ValueError(f"{len(graphs)} graphs for {len(batch.configs)} rows")
    for one in graphs:
        if one.node_count != shared.n_agents:
            raise ValueError(
                f"graph has {one.node_count} nodes for {shared.n_agents} agents"
            )
    neighborhoods = Neighborhoods(graphs)
    rand = rand_fn or make_rand_source([c.seed for c in batch.configs])
    swarm = initialize(batch, objective, rand)
    alive, d = swarm.alive, swarm.dimension
    floor_score = getattr(success_fn, "floor_score", None)
    settle_score = None if record_trace else getattr(success_fn, "settle_score", None)
    certified = floor_score is not None or settle_score is not None

    def qualified() -> np.ndarray:
        flat = success_fn(swarm.best_positions.reshape(-1, d), swarm.best_scores.ravel())
        return np.asarray(flat).reshape(alive.shape)

    def source(rows: np.ndarray):
        # the draws of the batch rows ``rows``: a row's draws depend on
        # its own seed alone
        if rand_fn is None:
            return make_rand_source([batch.configs[row].seed for row in rows])
        return lambda *args: rand_fn(*args)[rows]

    # every agent's death iteration, and from it each row's last executed
    # iteration and survivors; each row's convergence iteration (0: not
    # converged) and winners are filled in as it leaves
    probs = np.array([[c.death_prob] for c in batch.configs], dtype=np.float64)
    deaths = randomized_death(probs, source, shared.n_agents, shared.max_iters)
    executed = np.minimum(deaths.max(axis=1), shared.max_iters)
    survivors = np.count_nonzero(deaths > shared.max_iters, axis=1)
    converged_at = np.zeros(len(graphs), dtype=np.int64)
    winners = np.zeros(len(graphs), dtype=np.int64)
    # per stepped row: its batch row, its death iterations, the iteration
    # it leaves after (in a traced run, the last any row executes) and
    # whether it has not converged yet
    rows, schedule = np.arange(len(graphs)), deaths
    ends = np.full_like(executed, executed.max()) if record_trace else executed
    open_rows = np.ones(len(graphs), dtype=bool)
    best_scores = []
    for iteration in range(1, shared.max_iters + 1):
        step(swarm, neighborhoods, objective, rand, iteration)
        np.greater(schedule, iteration, out=alive)
        # each row's lowest best score among its alive agents (inf: none),
        # which both certificates are checked against
        if certified:
            lowest = np.where(alive, swarm.best_scores, np.inf).min(axis=1)
        # the success mask of this iteration, once asked for
        mask = None
        pending = open_rows & alive.any(axis=1)
        if floor_score is not None:
            pending &= lowest >= floor_score
        if pending.any():
            mask = qualified()
            done = pending & (mask | ~alive).all(axis=1)
            converged_at[rows[done]] = iteration
            open_rows[done] = False
        if record_trace:
            best_scores.append(swarm.best_scores.max(axis=1))
        leaving = ends <= iteration
        if settle_score is not None:
            leaving |= lowest > settle_score
        if leaving.any():
            # leaving rows have their final winners; the rest step on,
            # compacted
            if mask is None:
                mask = qualified()
            winners[rows[leaving]] = np.count_nonzero(mask[leaving], axis=1)
            keep = ~leaving
            rows, schedule, ends, open_rows = rows[keep], schedule[keep], ends[keep], open_rows[keep]
            if not rows.size:
                break
            swarm = _take_rows(swarm, keep)
            alive = swarm.alive
            neighborhoods = Neighborhoods([graphs[row] for row in rows])
            rand = source(rows)

    trace = None
    if record_trace:
        # rows never leave a traced run before its last iteration; a
        # row's trace ends with its last executed iteration
        scores = np.array(best_scores)

        def trace(row: int):
            span = int(executed[row])
            counts = np.count_nonzero(deaths[row] > np.arange(1, span + 1)[:, None], axis=1)
            return tuple(counts.tolist()), tuple(scores[:span, row].tolist())

    results = tuple(_results(converged_at, winners, survivors, executed, trace))
    return results[0] if single else BatchResult(results)
