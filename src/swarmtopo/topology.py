"""Communication topology constructors and the topology spectrum.

Agents in a swarm exchange personal-best information only along the
edges of an explicit undirected graph.  This module builds those
graphs: classic baseline families (complete, star, ring, torus grid,
preferential attachment, Bernoulli random, rewired ring lattice) and a
three-segment parameterized family that walks from the complete graph
to the star, from the star to the ring, and from the ring back to the
complete graph in small structural steps.

Each deterministic family but the torus grid is a circulant (the
multi-ring; the ring is its ``r = 1`` endpoint) or a core with
round-robin leaves (core-periphery and ring-core-star; the star is
core-periphery's ``c = 1`` endpoint), built from one array with no
loop over edges.  The 240-graph spectrum at ``n = 100`` builds in about 10 ms
on a 2-core Xeon, some 40 us per graph of numpy call overhead spread
over the window view, :class:`Graph`'s copy and its symmetry check.

Graphs are immutable wrappers around a boolean adjacency matrix.  The
circulants and the complete graph are views of one 2n row, so
:class:`Graph`'s copy is their only n x n array.

A graph is built from its :class:`TopologySpec` by
:func:`build_topology`.  The spec checks every field once, when it is
made, against its kind's row of :data:`KINDS`, and raises ``ValueError``
with a specific message on bad input; the private builders the rows
call check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
import numbers
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Graph",
    "PARAMETERS",
    "KINDS",
    "TOPOLOGY_KINDS",
    "format_number",
    "TopologySpec",
    "build_topology",
    "SpectrumPoint",
    "spectrum_points",
    "build_spectrum",
    "edge_list_text",
    "parse_edge_list",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected, unweighted graph over agent indices ``0..n-1``.

    Parameters
    ----------
    adjacency : numpy.ndarray
        Square boolean matrix.  Must be symmetric with a zero
        diagonal.  The stored copy is made read-only.

    The copy is the one n x n array a graph holds, and building it holds
    at most two, the input and the copy: the symmetry check runs tile
    by tile, and :attr:`candidates` and :meth:`edges` read the nonzero
    entries.
    """

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adjacency, dtype=bool, copy=True)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not _is_symmetric(adj):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Graph":
        """Build a graph from an iterable of ``(i, j)`` pairs."""
        if node_count < 1:
            raise ValueError("graph needs at least one node")
        adj = np.zeros((node_count, node_count), dtype=bool)
        for i, j in edges:
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({i}, {j}) out of range for {node_count} nodes")
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            adj[i, j] = adj[j, i] = True
        return cls(adj)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    @cached_property
    def is_complete(self) -> bool:
        """Whether every pair of distinct nodes is adjacent."""
        n = self.node_count
        return self.edge_count == n * (n - 1) // 2

    @cached_property
    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's candidate set in CSR form, ``(indptr, indices)``.

        A node's candidates are itself and its neighbours: node ``i``'s
        are ``indices[indptr[i]:indptr[i + 1]]``, in ascending order.
        The arrays hold ``n + 1`` and ``2 * edges + n`` entries, so a
        hub costs its degree and no more.  They are built on first use,
        cached on the graph and read-only.
        """
        n = self.node_count
        # flat positions, row-major, so each node's candidates ascend;
        # the diagonal holds no edge, so inserting it keeps them unique
        flat = np.flatnonzero(self.adjacency)
        diagonal = np.arange(n) * (n + 1)
        flat = np.insert(flat, np.searchsorted(flat, diagonal), diagonal)
        rows, indices = np.divmod(flat, n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for array in (indptr, indices):
            array.setflags(write=False)
        return indptr, indices

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(i, j)`` with ``i < j``, lexicographically sorted."""
        rows, cols = np.nonzero(self.adjacency)
        upper = rows < cols
        return list(zip(rows[upper].tolist(), cols[upper].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, edges={self.edge_count})"


# the symmetry check's tile edge: a 256 x 256 bool tile is 64 kB
_TILE = 256


def _is_symmetric(adj: np.ndarray) -> bool:
    # each tile on or above the diagonal against its mirror tile
    # transposed: no n x n temporary, and the strided reads stay in cache
    n = adj.shape[0]
    for lo in range(0, n, _TILE):
        for lo2 in range(lo, n, _TILE):
            tile = adj[lo:lo + _TILE, lo2:lo2 + _TILE]
            if not np.array_equal(tile, adj[lo2:lo2 + _TILE, lo:lo + _TILE].T):
                return False
    return True


# ---------------------------------------------------------------------------
# the builders behind the kind table: each takes its kind's spec fields
# in the row's order and checks nothing, since the spec has checked them


def _circulant(node_count: int, levels: int) -> np.ndarray:
    """Read-only adjacency view linking each node to the ``levels``
    nearest nodes on both sides of the cycle ``0..node_count-1``."""
    # row i is row 0 rolled by i, read off a doubled row as a window view
    step = np.arange(node_count)
    row = np.minimum(step, node_count - step) <= levels
    row[0] = False
    doubled = np.concatenate([row, row])
    return sliding_window_view(doubled, node_count)[node_count:0:-1]


def _core_with_leaves(node_count: int, core: np.ndarray) -> Graph:
    """``core`` (c x c) on nodes ``0..c-1``; node ``k >= c`` is a leaf
    of core node ``k % c``."""
    c = core.shape[0]
    adj = np.zeros((node_count, node_count), dtype=bool)
    adj[:c, :c] = core
    leaves = np.arange(c, node_count)
    adj[leaves % c, leaves] = adj[leaves, leaves % c] = True
    return Graph(adj)


def _complete(node_count: int) -> Graph:
    """Every pair of distinct nodes is connected."""
    return Graph(_circulant(node_count, node_count // 2))


def _core_periphery(node_count: int, core_size: int) -> Graph:
    """Fully connected core plus single-edge periphery nodes.

    Nodes ``0..core_size-1`` form a complete subgraph.  Each remaining
    node ``k`` attaches by one edge to core node ``k % core_size``, so
    periphery attachments cycle round-robin through the core.
    ``core_size == node_count`` gives the complete graph;
    ``core_size == 1`` gives the star, node 0 its hub.
    """
    return _core_with_leaves(node_count, ~np.eye(core_size, dtype=bool))


def _ring_core_star(node_count: int, hub_count: int) -> Graph:
    """Hubs on a ring, leaves distributed round-robin across the hubs.

    Nodes ``0..hub_count-1`` form a cycle (a single edge when there
    are exactly two hubs, no core edges for one hub).  Each remaining
    node ``k`` attaches to hub ``k % hub_count``.  ``hub_count == 1``
    gives the star; ``hub_count == node_count`` gives the ring.
    """
    return _core_with_leaves(node_count, _circulant(hub_count, 1))


def _multi_ring(node_count: int, ring_levels: int) -> Graph:
    """Circulant graph: each node links to its ``ring_levels`` nearest
    neighbors on both sides of the cycle.

    ``ring_levels == 1`` is the ring 0-1-...-(n-1)-0; ``ring_levels ==
    node_count // 2`` is the complete graph.
    """
    return Graph(_circulant(node_count, ring_levels))


def _von_neumann(rows: int, cols: int) -> Graph:
    """4-regular torus grid: wrap-around up/down/left/right neighbors.

    Node ``r * cols + c`` sits at grid cell ``(r, c)``.
    """
    cell = np.arange(rows * cols).reshape(rows, cols)
    adj = np.zeros((rows * cols, rows * cols), dtype=bool)
    for axis in (1, 0):  # right, then down
        neighbor = np.roll(cell, -1, axis=axis)
        adj[cell, neighbor] = adj[neighbor, cell] = True
    return Graph(adj)


def _scale_free(node_count: int, attach_count: int, seed: int) -> Graph:
    """Preferential-attachment graph.

    Starts from ``attach_count`` isolated seed nodes; every subsequent
    node attaches to ``attach_count`` distinct existing nodes chosen
    with probability proportional to current degree (the first
    arrival connects to all seeds).  Produces exactly
    ``attach_count * (node_count - attach_count)`` edges.
    """
    rng = np.random.default_rng(seed)
    adj = np.zeros((node_count, node_count), dtype=bool)
    # flat endpoint list: picking uniformly from it is degree-weighted
    endpoint_pool: list[int] = []
    targets = list(range(attach_count))
    for newcomer in range(attach_count, node_count):
        for t in targets:
            adj[newcomer, t] = adj[t, newcomer] = True
        endpoint_pool.extend(targets)
        endpoint_pool.extend([newcomer] * attach_count)
        if newcomer == node_count - 1:
            break
        chosen: list[int] = []
        while len(chosen) < attach_count:
            pick = endpoint_pool[int(rng.integers(len(endpoint_pool)))]
            if pick not in chosen:
                chosen.append(pick)
        targets = chosen
    return Graph(adj)


def _random(node_count: int, edge_prob: float, seed: int) -> Graph:
    """Bernoulli random graph: each pair is an edge with ``edge_prob``.

    May be disconnected; downstream metrics account for that.
    """
    rng = np.random.default_rng(seed)
    adj = np.zeros((node_count, node_count), dtype=bool)
    iu, ju = np.triu_indices(node_count, k=1)
    mask = rng.random(iu.size) < edge_prob
    adj[iu[mask], ju[mask]] = True
    return Graph(adj | adj.T)


def _small_world(node_count: int, degree: int, rewire_prob: float, seed: int) -> Graph:
    """Rewired ring lattice.

    Starts from the multi-ring with ``degree // 2`` levels; each
    lattice edge ``(i, i+d)``, walked level by level, has its far
    endpoint rewired to a uniformly random non-neighbor with
    probability ``rewire_prob``.  The edge count never changes.
    """
    rng = np.random.default_rng(seed)
    adj = np.array(_circulant(node_count, degree // 2))
    for d in range(1, degree // 2 + 1):
        for i in range(node_count):
            if rng.random() >= rewire_prob:
                continue
            # a node adjacent to everything has nowhere to rewire
            if adj[i].sum() >= node_count - 1:
                continue
            j = (i + d) % node_count
            while True:
                k = int(rng.integers(node_count))
                if k != i and not adj[i, k]:
                    break
            adj[i, j] = adj[j, i] = False
            adj[i, k] = adj[k, i] = True
    return Graph(adj)


# ---------------------------------------------------------------------------
# declarative specs: the kind table


class Parameter(NamedTuple):
    """One :class:`TopologySpec` field that some kind takes."""

    type: type  # int or float
    id_prefix: str  # written before the value in topology ids, separator included
    key: str  # spelling in plan lines and gen-topology flags


class Kind(NamedTuple):
    """A topology kind: its builder, the spec fields it takes in builder
    argument order, and its range rules.

    ``rules`` takes the builder's arguments and returns ``(holds,
    message)`` pairs; a spec raises ``ValueError(message)`` for the
    first pair that does not hold.
    """

    builder: Callable[..., Graph]
    parameters: tuple[str, ...]
    rules: Callable[..., tuple[tuple[bool, str], ...]]


PARAMETERS = {
    "node_count": Parameter(int, "-n", "n"),
    "rows": Parameter(int, "-", "rows"),
    "cols": Parameter(int, "x", "cols"),
    "core_size": Parameter(int, "-c", "core_size"),
    "hub_count": Parameter(int, "-h", "hub_count"),
    "ring_levels": Parameter(int, "-r", "ring_levels"),
    "attach_count": Parameter(int, "-m", "attach_count"),
    "edge_prob": Parameter(float, "-p", "edge_prob"),
    "degree": Parameter(int, "-k", "degree"),
    "rewire_prob": Parameter(float, "-p", "rewire_prob"),
    "seed": Parameter(int, "-s", "seed"),
}


def _in_range(name: str, value: int | float, low: int, high: int) -> tuple[bool, str]:
    return low <= value <= high, f"{name} must be in [{low}, {high}], got {value}"


# adding a kind is one row here; the randomized builders take the seed last
KINDS = {
    "complete": Kind(_complete, ("node_count",), lambda n: (
        (n >= 1, "node_count must be >= 1"),
    )),
    "star": Kind(partial(_core_periphery, core_size=1), ("node_count",), lambda n: (
        (n >= 2, "a star needs at least 2 nodes"),
    )),
    "ring": Kind(partial(_multi_ring, ring_levels=1), ("node_count",), lambda n: (
        (n >= 3, "a ring needs at least 3 nodes"),
    )),
    "core-periphery": Kind(_core_periphery, ("node_count", "core_size"), lambda n, c: (
        (n >= 1, "node_count must be >= 1"),
        _in_range("core_size", c, 1, n),
    )),
    "ring-core-star": Kind(_ring_core_star, ("node_count", "hub_count"), lambda n, h: (
        (n >= 1, "node_count must be >= 1"),
        _in_range("hub_count", h, 1, n),
    )),
    "multi-ring": Kind(_multi_ring, ("node_count", "ring_levels"), lambda n, r: (
        (n >= 3, "a multi-ring needs at least 3 nodes"),
        _in_range("ring_levels", r, 1, n // 2),
    )),
    "von-neumann": Kind(_von_neumann, ("rows", "cols"), lambda rows, cols: (
        (rows >= 3 and cols >= 3, "torus grid needs rows >= 3 and cols >= 3"),
    )),
    "scale-free": Kind(
        _scale_free, ("node_count", "attach_count", "seed"), lambda n, m, seed: (
            (n >= 2, "node_count must be >= 2"),
            _in_range("attach_count", m, 1, n - 1),
        )
    ),
    "random": Kind(_random, ("node_count", "edge_prob", "seed"), lambda n, p, seed: (
        (n >= 1, "node_count must be >= 1"),
        _in_range("edge_prob", p, 0, 1),
    )),
    "small-world": Kind(
        _small_world, ("node_count", "degree", "rewire_prob", "seed"), lambda n, k, p, seed: (
            (n >= 3, "node_count must be >= 3"),
            (k % 2 == 0, f"degree must be even, got {k}"),
            _in_range("degree", k, 2, n - 1),
            _in_range("rewire_prob", p, 0, 1),
        )
    ),
}

TOPOLOGY_KINDS = tuple(KINDS)


def format_number(value: int | float) -> str:
    """Text of a parameter value for ids and plan lines.

    Floats use ``:g`` when that reads back as the same float and
    ``repr`` otherwise, so distinct values never share a text.
    """
    if isinstance(value, float):
        text = f"{value:g}"
        return text if float(text) == value else repr(float(value))
    return str(value)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of one topology, buildable and hashable.

    Only the fields that apply to ``kind`` may be set; the rest must
    stay ``None``.  An integer field holds an integer and a float field
    a number, neither a bool; ``seed`` is at least 0, and every other
    field lies in its kind's range (the ``rules`` of its :data:`KINDS`
    row).  Randomized kinds require an explicit ``seed`` so experiment
    plans stay reproducible.  A ``label``, when set, is the topology
    id; it must be non-empty ASCII, free of whitespace and of path
    separators.  A spec checks all of this when it is built (by
    ``dataclasses.replace`` too) and raises ``ValueError``, so every
    existing spec builds.
    """

    kind: str
    node_count: int | None = None
    seed: int | None = None
    core_size: int | None = None
    hub_count: int | None = None
    ring_levels: int | None = None
    rows: int | None = None
    cols: int | None = None
    attach_count: int | None = None
    edge_prob: float | None = None
    degree: int | None = None
    rewire_prob: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )
        kind = KINDS[self.kind]
        for name in PARAMETERS:
            value = getattr(self, name)
            if name in kind.parameters and value is None:
                raise ValueError(f"{self.kind} requires {name}")
            if name not in kind.parameters and value is not None:
                raise ValueError(f"{self.kind} does not take {name}")
        values = [getattr(self, name) for name in kind.parameters]
        for name, value in zip(kind.parameters, values):
            integer = PARAMETERS[name].type is int
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integer else numbers.Real
            ):
                expected = "an integer" if integer else "a number"
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for holds, message in kind.rules(*values):
            if not holds:
                raise ValueError(message)
        if self.label is not None:
            if self.label.split() != [self.label]:
                raise ValueError(
                    f"label must be non-empty and free of whitespace, got {self.label!r}"
                )
            # the id keys each run's seed, hashed as ASCII
            if not self.label.isascii():
                raise ValueError(f"label must be ASCII, got {self.label!r}")
            # the id names trace files, so it cannot hold a path separator
            if "/" in self.label or "\\" in self.label:
                raise ValueError(
                    f"label must be free of path separators '/' and '\\', got {self.label!r}"
                )

    def topology_id(self) -> str:
        """Stable identifier used in file names and result tables."""
        if self.label is not None:
            return self.label
        return self.kind + "".join(
            PARAMETERS[name].id_prefix + format_number(getattr(self, name))
            for name in KINDS[self.kind].parameters
        )


def build_topology(spec: TopologySpec) -> Graph:
    """Construct the graph a :class:`TopologySpec` describes."""
    kind = KINDS[spec.kind]
    return kind.builder(*(getattr(spec, name) for name in kind.parameters))


# ---------------------------------------------------------------------------
# the spectrum: complete -> star -> ring -> complete

@dataclass(frozen=True)
class SpectrumPoint:
    """One position along the three-segment topology spectrum."""

    position: int
    segment: str
    step: int
    spec: TopologySpec


def _integer_samples(start: int, stop: int, count: int) -> list[int]:
    # evenly spaced integers, both endpoints included
    return [int(v) for v in np.rint(np.linspace(start, stop, count))]


def spectrum_points(node_count: int, per_segment: int) -> list[SpectrumPoint]:
    """Parameter schedule for the full three-segment spectrum.

    Segment 1 shrinks a fully connected core from ``node_count`` to 1
    (complete to star).  Segment 2 grows the number of ring hubs from
    1 to ``node_count`` (star to ring).  Segment 3 raises the
    multi-ring level from 1 to ``node_count // 2`` (ring to
    complete).  Each segment contributes ``per_segment`` graphs with
    its control parameter sampled on an endpoint-inclusive even grid,
    so the corner topologies appear at positions 0, ``per_segment``,
    ``2 * per_segment`` and the final position.

    Parameters
    ----------
    node_count : int
        Nodes in every graph, at least 3.
    per_segment : int
        Graphs per segment, at least 2.
    """
    if node_count < 3:
        raise ValueError("spectrum needs node_count >= 3")
    if per_segment < 2:
        raise ValueError("per_segment must be >= 2")
    n = node_count
    schedules = (
        ("complete-to-star", "core-periphery", "core_size",
         _integer_samples(n, 1, per_segment)),
        ("star-to-ring", "ring-core-star", "hub_count",
         _integer_samples(1, n, per_segment)),
        ("ring-to-complete", "multi-ring", "ring_levels",
         _integer_samples(1, n // 2, per_segment)),
    )
    points = []
    position = 0
    for segment, kind, field_name, values in schedules:
        for step, value in enumerate(values):
            spec = TopologySpec(
                kind=kind,
                node_count=n,
                label=f"s{position:03d}-{kind}-{value}",
                **{field_name: value},
            )
            points.append(SpectrumPoint(position, segment, step, spec))
            position += 1
    return points


def build_spectrum(node_count: int, per_segment: int) -> list[Graph]:
    """Materialize every graph along the spectrum, in order."""
    return [build_topology(p.spec) for p in spectrum_points(node_count, per_segment)]


# ---------------------------------------------------------------------------
# edge-list files


def edge_list_text(graph: Graph) -> str:
    """Serialize a graph to the plain edge-list format.

    First line is ``n <node_count>``; each following line is one edge
    ``i j`` with ``i < j``, sorted.  Byte-stable for equal graphs.
    """
    lines = [f"n {graph.node_count}"]
    lines.extend(f"{i} {j}" for i, j in graph.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format back into a graph.

    Raises ``ValueError`` naming the offending line on malformed
    input, out-of-range nodes, or duplicate edges.
    """
    node_count = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if node_count is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(
                    f"line {lineno}: expected header 'n <count>', got {raw!r}"
                )
            try:
                node_count = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad node count {parts[1]!r}") from None
            if node_count < 1:
                raise ValueError(f"line {lineno}: node count must be >= 1")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise ValueError(f"line {lineno}: edge ({i}, {j}) out of range")
        if i >= j:
            raise ValueError(f"line {lineno}: edges must satisfy i < j, got ({i}, {j})")
        if (i, j) in seen:
            raise ValueError(f"line {lineno}: duplicate edge ({i}, {j})")
        seen.add((i, j))
        edges.append((i, j))
    if node_count is None:
        raise ValueError("empty edge-list text")
    return Graph.from_edges(node_count, edges)

