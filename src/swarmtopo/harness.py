"""Seeded experiment harness.

A plan is a Cartesian product of (topology, objective, death
fraction) cells.  Each cell runs a fixed number of repetitions whose
seeds derive deterministically from the base seed and the cell
identity, so any cell can be reproduced in isolation and execution
order never matters.  Each topology is built and measured once per
plan, and all of its cells run on that one graph.  The runs of all
cells that share a node count and an objective are cut into chunks
that each run as one engine batch; a run's result does not depend on
the chunk it lands in.

Per-cell aggregates follow the four performance measures: global
success ratio (fraction of runs where every alive agent qualifies),
global success time (mean convergence iteration over converged runs
only), mean winner count (qualifying agents at run end, dead ones
included), and a weighted efficiency/robustness trade-off.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import groupby, product
from typing import NamedTuple
import numpy as np

from .engine import RunResult, SwarmBatch, SwarmConfig, run
from .graph_metrics import average_geodesic, natural_connectivity
from .objectives import ObjectiveSpec, _shekel_ceiling, _sum_rows, shekel_params
from .topology import Graph, TopologySpec, _check_type, build_topology

__all__ = [
    "MODE_POSITION_RADIUS",
    "MODE_VALUE_GAP",
    "SUCCESS_MODES",
    "SuccessCriterion",
    "success_predicate",
    "death_fraction_to_prob",
    "trade_off",
    "ExperimentPlan",
    "AggregateMetrics",
    "derive_seed",
    "run_plan",
    "RESULTS_COLUMNS",
    "results_to_csv",
    "parse_results_csv",
    "results_to_json",
]

MODE_POSITION_RADIUS = "position-radius"
MODE_VALUE_GAP = "value-gap"
SUCCESS_MODES = (MODE_POSITION_RADIUS, MODE_VALUE_GAP)


@dataclass(frozen=True)
class SuccessCriterion:
    """What counts as having reached the optimum.

    ``position-radius`` accepts bests within Euclidean ``tolerance``
    of the optimum location; ``value-gap`` accepts bests whose
    objective value is within ``tolerance`` of the optimum value.  A
    ``None`` tolerance is 0.5% of the objective's box diagonal; any other
    is a finite number above 0, not a bool, stored as a float.
    """

    mode: str = MODE_POSITION_RADIUS
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in SUCCESS_MODES:
            raise ValueError(
                f"unknown success mode {self.mode!r}; expected one of {SUCCESS_MODES}"
            )
        if self.tolerance is not None:
            # a plan file writes the tolerance as a float's repr
            _check_type("tolerance", self.tolerance, integer=False)
            object.__setattr__(self, "tolerance", float(self.tolerance))
            # an infinite tolerance would count every run converged at iteration 1
            if not 0 < self.tolerance < np.inf:
                raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


# the relative margin a certified Shekel bound gets: it covers the
# rounding of the bound, of the kernel and of the success check, each
# below 1e-14 relative
_SETTLE_MARGIN = 1e-9


@lru_cache(maxsize=64)
def _settle_score(objective: ObjectiveSpec, mode: str, eps: float) -> float | None:
    """A score above which a best always meets (mode, eps), or ``None``.

    Only Shekel has one, from :func:`objectives._shekel_ceiling`.  In
    ``position-radius`` mode it is the certified ceiling of Shekel outside
    the ball of radius ``eps``, so a score above it lies inside the ball.
    In ``value-gap`` mode the ceiling of Shekel everywhere must first be
    at most the optimum value plus ``eps``; then any score above the
    optimum value minus ``eps`` qualifies.  Both carry the margin, and
    both lie below the optimum value.  Computed on the first call for a
    key, never at import.
    """
    if objective.name != "shekel":
        return None
    top = objective.optimum_value
    if mode == MODE_VALUE_GAP:
        ceiling = _shekel_ceiling(0.0, top + eps)
        if ceiling is None or ceiling * (1.0 + _SETTLE_MARGIN) > top + eps:
            return None
        return top - eps + _SETTLE_MARGIN * top
    ceiling = _shekel_ceiling(eps, top)
    if ceiling is None or ceiling * (1.0 + _SETTLE_MARGIN) >= top:
        return None
    return ceiling * (1.0 + _SETTLE_MARGIN)


@lru_cache(maxsize=64)
def _floor_score(objective: ObjectiveSpec, mode: str, eps: float) -> float | None:
    """A score below which no best meets (mode, eps), or ``None``.

    Only Shekel has one.  In ``position-radius`` mode a point within
    ``eps`` of the optimum location x* lies within ``|a_i - x*| + eps``
    of every centre a_i (the triangle inequality), so Shekel there is at
    least the sum of 1 / ((|a_i - x*| + eps)^2 + c_i).  In ``value-gap``
    mode it is the optimum value minus ``eps``.  Both carry the margin,
    downwards.  Computed on the first call for a key, never at import.
    """
    if objective.name != "shekel":
        return None
    top = objective.optimum_value
    if mode == MODE_VALUE_GAP:
        return top - eps - _SETTLE_MARGIN * top
    centers, heights = shekel_params()
    reach = np.sqrt(np.square(centers - objective.optimum_location).sum(axis=1)) + eps
    return float((1.0 / (reach * reach + heights)).sum()) * (1.0 - _SETTLE_MARGIN)


def success_predicate(criterion: SuccessCriterion, objective: ObjectiveSpec):
    """Bind criterion and objective into the engine's success callback.

    The tolerance and the mode are resolved once, here; the callback
    maps ``(best_positions, best_scores)`` to a boolean per-agent mask:
    does this best satisfy the criterion?  The boundary is inclusive
    in both modes.  The position radius adds the squared gaps one
    coordinate column at a time, in the order ``(gaps *
    gaps).sum(axis=1)`` adds them, so the mask is that formula's bit
    for bit.

    The callback carries two certificates for :func:`engine.run`.  Any
    best score above its ``settle_score`` satisfies the criterion, and
    none below its ``floor_score`` does.  Each is ``None`` where none is
    known: every objective but Shekel has neither, and Shekel has no
    settle score at tolerances the bound cannot certify.  Each is
    computed once per (objective, mode, tolerance) and cached.
    """
    eps = criterion.tolerance
    if eps is None:
        eps = 0.005 * objective.range_diagonal()
    if criterion.mode == MODE_VALUE_GAP:
        maximize = objective.direction == "max"
        optimum_value = objective.optimum_value

        def within_gap(best_positions: np.ndarray, best_scores: np.ndarray) -> np.ndarray:
            values = best_scores if maximize else -best_scores
            return np.abs(values - optimum_value) <= eps

        predicate = within_gap
    else:
        optimum = objective.optimum_location[:, None]

        def within_radius(best_positions: np.ndarray, best_scores: np.ndarray) -> np.ndarray:
            # the engine's coordinate-major bests transpose to contiguous rows
            gaps = np.subtract(np.transpose(best_positions), optimum, dtype=np.float64)
            distance = _sum_rows(np.square(gaps, out=gaps))
            return np.sqrt(distance, out=distance) <= eps

        predicate = within_radius
    predicate.settle_score = _settle_score(objective, criterion.mode, eps)
    predicate.floor_score = _floor_score(objective, criterion.mode, eps)
    return predicate


def death_fraction_to_prob(death_fraction: float, t: int) -> float:
    """Per-iteration death probability hitting a target expected loss
    fraction by iteration ``t``: p = 1 - (1 - F_d)^(1/t)."""
    if not 0.0 <= death_fraction < 1.0:
        raise ValueError(
            f"death_fraction must be in [0, 1), got {death_fraction}"
        )
    if t < 1:
        raise ValueError("t must be >= 1")
    return 1.0 - (1.0 - death_fraction) ** (1.0 / t)


def trade_off(
    winners_mean: float,
    gs_time: float | None,
    winners_max: float,
    gs_time_max: float,
    alpha: float,
) -> float | None:
    """alpha-weighted normalized winners minus normalized time.

    Absent (None) when ``gs_time`` is absent.  Normalizers must be
    positive.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not winners_max > 0:
        raise ValueError("winners_max must be > 0")
    if not gs_time_max > 0:
        raise ValueError("gs_time_max must be > 0")
    if gs_time is None:
        return None
    return alpha * (winners_mean / winners_max) - (1.0 - alpha) * (gs_time / gs_time_max)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of a full sweep.

    Death fractions convert to per-iteration probabilities at the
    fixed ``death_horizon`` (expected loss reached at that iteration).
    ``base_seed``, ``repetitions``, ``death_horizon`` and ``max_iters``
    are integers, stored as Python ints, and ``alpha`` a number, stored
    as a float; none is a bool.  A plan checks them when it is built and
    raises ``ValueError`` naming the field.
    """

    topologies: tuple[TopologySpec, ...]
    objectives: tuple[ObjectiveSpec, ...]
    death_fractions: tuple[float, ...]
    base_seed: int
    repetitions: int = 50
    success: SuccessCriterion = SuccessCriterion()
    alpha: float = 0.7
    death_horizon: int = 500
    max_iters: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        # + 0.0 turns -0.0 into 0.0: repr() tells them apart, and so
        # would each run's seed and the results row
        object.__setattr__(
            self, "death_fractions", tuple(float(f) + 0.0 for f in self.death_fractions)
        )
        if not self.topologies:
            raise ValueError("plan needs at least one topology")
        if not self.objectives:
            raise ValueError("plan needs at least one objective")
        if not self.death_fractions:
            raise ValueError("plan needs at least one death fraction")
        # stored as a plan file and a results row read them back: a bool
        # or a numpy scalar would be written in a form neither parses
        for name in ("base_seed", "repetitions", "death_horizon", "max_iters"):
            _check_type(name, getattr(self, name), integer=True)
            object.__setattr__(self, name, int(getattr(self, name)))
        _check_type("alpha", self.alpha, integer=False)
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.death_horizon < 1:
            raise ValueError("death_horizon must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for fraction in self.death_fractions:
            if not 0.0 <= fraction < 1.0:
                raise ValueError(
                    f"death fractions must be in [0, 1), got {fraction}"
                )
        for axis, values in (
            ("topology ids", [spec.topology_id() for spec in self.topologies]),
            ("objectives", [obj.name for obj in self.objectives]),
            ("death fractions", self.death_fractions),
        ):
            dupes = sorted({v for v in values if values.count(v) > 1})
            if dupes:
                raise ValueError(f"duplicate {axis} in plan: {dupes}")


@dataclass(frozen=True)
class AggregateMetrics:
    """One results row: a cell's identity and its aggregates."""

    topology_id: str
    topology_kind: str
    objective: str
    death_fraction: float
    repetitions: int
    gsr: float
    gs_time: float | None
    winners_mean: float
    trade_off: float | None
    avg_path_length: float | None
    natural_connectivity: float


def derive_seed(
    base_seed: int,
    topology_id: str,
    objective_name: str,
    death_fraction: float,
    repetition: int,
) -> int:
    """Stable per-run seed from the cell identity.

    Hashed with blake2b because the interpreter's own hash() is
    salted per process.
    """
    key = f"{base_seed}|{topology_id}|{objective_name}|{death_fraction!r}|{repetition}"
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _Cell(NamedTuple):
    """One (topology, objective, death fraction) cell of a plan, with
    its topology's prebuilt graph and the graph's (path length, natural
    connectivity)."""

    index: int
    topology: TopologySpec
    graph: Graph
    stats: tuple[float | None, float]
    objective: ObjectiveSpec
    death_fraction: float

    def name(self) -> str:
        return (
            f"topology={self.topology.topology_id()} objective={self.objective.name} "
            f"death_fraction={self.death_fraction!r}"
        )


# bytes one batch's per-iteration arrays may take; above it a group of
# runs is cut into several batches.  About a core's L2 cache: on the
# acceptance plan (200 runs at n=100) 1 MB batches of 20 runs ran no
# slower than one batch of 200, and memory stays flat for any plan size
_CHUNK_BYTES = 1 << 20


def _row_bytes(cell: _Cell) -> int:
    # about ten (N, d) float arrays of state and temporaries, plus the
    # leader gather's values, indices and segment ids per candidate
    # entry: a complete row is one segment of its N agents
    graph = cell.graph
    n = graph.node_count
    entries = n if graph.is_complete else 2 * graph.edge_count + n
    return 8 * (10 * n * cell.objective.dimension + 3 * entries)


def _chunks(plan: ExperimentPlan, cells: list[_Cell], workers: int) -> list[list]:
    """Cut the plan's (cell, repetition) runs into batches.

    Runs that share the node count and the objective form a group;
    each group is cut evenly into as few chunks as keep each under
    ``_CHUNK_BYTES``, but at least ``workers`` of them (when it has
    that many runs) so that a pool splits the work.
    """
    groups: dict[tuple[int, str], list[_Cell]] = defaultdict(list)
    for cell in cells:
        groups[(cell.graph.node_count, cell.objective.name)].append(cell)
    chunks = []
    for group in groups.values():
        rows = [(cell, repetition) for cell in group for repetition in range(plan.repetitions)]
        size = plan.repetitions * sum(map(_row_bytes, group))
        count = min(len(rows), max(workers, -(-size // _CHUNK_BYTES)))
        cuts = [len(rows) * k // count for k in range(count + 1)]
        chunks.extend(rows[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    return chunks


def _run_rows(plan: ExperimentPlan, rows: list, record_trace: bool) -> tuple[RunResult, ...]:
    """Run (cell, repetition) rows of one node count and one objective
    as one batch."""
    objective = rows[0][0].objective
    configs = [
        SwarmConfig(
            n_agents=cell.graph.node_count,
            max_iters=plan.max_iters,
            death_prob=death_fraction_to_prob(cell.death_fraction, plan.death_horizon),
            seed=derive_seed(
                plan.base_seed, cell.topology.topology_id(), objective.name,
                cell.death_fraction, repetition,
            ),
        )
        for cell, repetition in rows
    ]
    predicate = success_predicate(plan.success, objective)
    graphs = [cell.graph for cell, _ in rows]
    return run(SwarmBatch(configs), graphs, objective, predicate, record_trace=record_trace).rows


def _run_chunk(plan: ExperimentPlan, rows: list, record_trace: bool = False):
    """Run one chunk; a failure names its cell, because a worker's
    traceback does not reach the CLI."""
    try:
        return _run_rows(plan, rows, record_trace)
    except Exception as exc:
        # find the failing cell by running the chunk one cell at a time
        for _, cell_rows in groupby(rows, key=lambda row: row[0].index):
            cell_rows = list(cell_rows)
            try:
                _run_rows(plan, cell_rows, record_trace)
            except Exception as cell_exc:
                raise RuntimeError(
                    f"cell {cell_rows[0][0].name()} failed: "
                    f"{type(cell_exc).__name__}: {cell_exc}"
                ) from cell_exc
        names = "; ".join(sorted({cell.name() for cell, _ in rows}))
        raise RuntimeError(
            f"cells {names} failed together: {type(exc).__name__}: {exc}"
        ) from exc


def _aggregate(plan: ExperimentPlan, cell: _Cell, results: list[RunResult]) -> AggregateMetrics:
    """A cell's results row from its runs, in repetition order.

    ``trade_off`` stays absent: only :func:`run_plan` sees the sibling
    cells that normalize it.
    """
    convergence_iters = [r.convergence_iteration for r in results if r.converged]
    return AggregateMetrics(
        topology_id=cell.topology.topology_id(),
        topology_kind=cell.topology.kind,
        objective=cell.objective.name,
        death_fraction=cell.death_fraction,
        repetitions=plan.repetitions,
        gsr=len(convergence_iters) / plan.repetitions,
        gs_time=float(np.mean(convergence_iters)) if convergence_iters else None,
        winners_mean=float(np.mean([r.winners for r in results])),
        trade_off=None,
        avg_path_length=cell.stats[0],
        natural_connectivity=cell.stats[1],
    )


def _fill_trade_offs(plan: ExperimentPlan, rows: list[AggregateMetrics]) -> None:
    # normalizers live within one (objective, death fraction) slice; a
    # row without a converged run, or a slice without a winner, has none
    winners_max: dict[tuple[str, float], float] = defaultdict(float)
    time_max: dict[tuple[str, float], float] = defaultdict(float)
    for row in rows:
        key = (row.objective, row.death_fraction)
        winners_max[key] = max(winners_max[key], row.winners_mean)
        time_max[key] = max(time_max[key], row.gs_time or 0.0)
    for i, row in enumerate(rows):
        key = (row.objective, row.death_fraction)
        if row.gs_time is not None and winners_max[key] > 0:
            value = trade_off(
                row.winners_mean, row.gs_time, winners_max[key], time_max[key], plan.alpha
            )
            rows[i] = replace(row, trade_off=value)


def run_plan(plan: ExperimentPlan, workers: int = 1, on_trace=None) -> list[AggregateMetrics]:
    """Run every cell and return rows in canonical order.

    Each topology is built and measured once; all of its (objective,
    death fraction) cells run on that one graph.  The runs of every
    cell that share a node count and an objective run together as
    batches (see :func:`_chunks`); each run is, bit for bit, what it
    gives alone, so neither the batching nor ``workers`` changes a
    byte.  Rows are sorted by (topology_id, objective, death_fraction),
    so the output is byte-stable no matter how the plan lists its
    cells or how workers schedule them.  With ``workers > 1`` the
    batches execute in a process pool, each task carrying its graphs.

    ``on_trace(topology_id, objective_name, death_fraction, repetition,
    trace)``, when given, receives every run's trace (the
    ``(alive_counts, best_scores)`` columns of :class:`RunResult`) in
    chunk order as each chunk's results arrive, under any worker count.
    The trace is dropped once the callback returns, so a traced plan
    holds one chunk's traces at a time, not the whole plan's.  An
    exception from ``on_trace`` stops the plan and propagates; chunks
    not yet started are cancelled.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cells: list[_Cell] = []
    for topology in plan.topologies:
        graph = build_topology(topology)
        # a one-node graph has no pairs, hence no path length
        stats = (
            average_geodesic(graph) if graph.node_count >= 2 else None,
            natural_connectivity(graph),
        )
        for objective, fraction in product(plan.objectives, plan.death_fractions):
            cells.append(_Cell(len(cells), topology, graph, stats, objective, fraction))
    chunks = _chunks(plan, cells, workers)
    run_chunk = partial(_run_chunk, plan, record_trace=on_trace is not None)
    results: list[list[RunResult]] = [[] for _ in cells]
    serial = workers == 1 or len(chunks) == 1
    if serial:
        pool_block = nullcontext()
    else:
        # imported here: the pool pulls in multiprocessing, socket and
        # logging, about 1.8 MB and 10 ms that a serial process never uses
        from concurrent.futures import ProcessPoolExecutor

        pool_block = ProcessPoolExecutor(max_workers=workers)
    # outputs arrive in chunk order.  The map is consumed inside the pool's
    # block and bound to no name, so an error in the loop frees it before
    # the pool shuts down, and freeing it cancels the chunks not started
    with pool_block as pool:
        for chunk, output in zip(
            chunks, map(run_chunk, chunks) if serial else pool.map(run_chunk, chunks)
        ):
            for (cell, repetition), result in zip(chunk, output):
                if on_trace is not None:
                    on_trace(
                        cell.topology.topology_id(), cell.objective.name,
                        cell.death_fraction, repetition, result.trace,
                    )
                    result = replace(result, trace=None)
                results[cell.index].append(result)
    rows = [_aggregate(plan, cell, results[cell.index]) for cell in cells]
    _fill_trade_offs(plan, rows)
    rows.sort(key=lambda row: (row.topology_id, row.objective, row.death_fraction))
    return rows


# ---------------------------------------------------------------------------
# results serialization

_ABSENT = "--"


def _parse_optional_float(text: str) -> float | None:
    return None if text == _ABSENT or text == "" else float(text)


# results column -> (AggregateMetrics field, parser), in file order
_RESULTS_TABLE = {
    "topology_id": ("topology_id", str),
    "topology_kind": ("topology_kind", str),
    "objective": ("objective", str),
    "death_fraction": ("death_fraction", float),
    "repetitions": ("repetitions", int),
    "gsr": ("gsr", float),
    "gs_time": ("gs_time", _parse_optional_float),
    "winners_mean": ("winners_mean", float),
    "trade_off": ("trade_off", _parse_optional_float),
    "L": ("avg_path_length", _parse_optional_float),
    "natural_connectivity": ("natural_connectivity", float),
}

RESULTS_COLUMNS = tuple(_RESULTS_TABLE)


def _format_value(value) -> str:
    if value is None:
        return _ABSENT
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_to_csv(rows: list[AggregateMetrics]) -> str:
    """Render rows as CSV, byte-stable for equal inputs.

    Absent values (no converged run, disconnected graph) appear as
    ``--``.  Floats use shortest round-trip formatting.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RESULTS_COLUMNS)
    for row in rows:
        writer.writerow(
            _format_value(getattr(row, field)) for field, _ in _RESULTS_TABLE.values()
        )
    return buffer.getvalue()


def parse_results_csv(text: str) -> list[AggregateMetrics]:
    """Inverse of :func:`results_to_csv`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty results CSV") from None
    if tuple(header) != RESULTS_COLUMNS:
        raise ValueError(
            f"unexpected results header {header!r}; expected {list(RESULTS_COLUMNS)}"
        )
    rows = []
    for record in reader:
        if not record:
            continue
        where = f"line {reader.line_num}"
        if len(record) != len(RESULTS_COLUMNS):
            raise ValueError(f"{where}: malformed results row: {record!r}")
        values = {}
        for cell, (column, (field, parse)) in zip(record, _RESULTS_TABLE.items()):
            try:
                values[field] = parse(cell)
            except ValueError as exc:
                raise ValueError(f"{where}, column {column}: {exc}") from None
        rows.append(AggregateMetrics(**values))
    return rows


def results_to_json(rows: list[AggregateMetrics]) -> str:
    """JSON mirror of the CSV: same fields, nulls for absent values."""
    payload = {
        "results": [
            {column: getattr(row, field) for column, (field, _) in _RESULTS_TABLE.items()}
            for row in rows
        ]
    }
    return json.dumps(payload, indent=2) + "\n"
