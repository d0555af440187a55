"""Communication topology constructors and the topology spectrum.

Agents in a swarm exchange personal-best information only along the
edges of an explicit undirected graph.  This module builds those
graphs: classic baseline families (complete, star, ring, torus grid,
preferential attachment, Bernoulli random, rewired ring lattice) and a
three-segment parameterized family that walks from the complete graph
to the star, from the star to the ring, and from the ring back to the
complete graph in small structural steps.

A :class:`Graph` stores its sorted neighbour lists (a CSR) and no
n x n array; a complete graph stores only that it is complete.  Every
builder emits its edges as two index arrays and hands them to one pair
constructor, which sorts both directions of each pair into that CSR.
Each deterministic family but the torus grid is a circulant (the
multi-ring; the ring is its ``r = 1`` endpoint) or a core with
round-robin leaves (core-periphery and ring-core-star; the star is
core-periphery's ``c = 1`` endpoint), whose pairs come from a few array
operations with no loop over edges; the randomized builders make the
same draws in the same order as when they filled a dense matrix.
Building any kind holds O(n + edges) memory.  The 240-graph spectrum
at ``n = 100`` builds in about 19 ms on a 2-core Xeon, most of it the
pair constructor's sort.

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


class Graph:
    """An undirected, unweighted graph over agent indices ``0..n-1``.

    Parameters
    ----------
    adjacency : numpy.ndarray
        Square boolean matrix with at least one node.  Must be
        symmetric with a zero diagonal.  It is read, not kept.

    A graph stores its sorted neighbour lists in CSR form: node ``i``'s
    neighbours are ``neighbours[indptr[i]:indptr[i + 1]]``, ascending
    ``int32`` indices, ``2 * edge_count`` of them in all.  A complete
    graph stores only that it is complete.  Every builder hands its
    edges to the one pair constructor :func:`_from_pairs`, as does this
    constructor its matrix's nonzeros, so no graph keeps an n x n array:
    :meth:`dense` builds one per call for the dense metrics.  Graphs
    are immutable and compare by their edges.
    """

    def __new__(cls, adjacency) -> Graph:
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if n < 1:
            raise ValueError("graph needs at least one node")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        # the nonzeros' row-major positions ascend; the matrix is
        # symmetric when the mirrored positions, sorted, are the same
        flat = np.flatnonzero(adj)
        rows, cols = np.divmod(flat, n)
        if not np.array_equal(np.sort(cols * n + rows), flat):
            raise ValueError("adjacency must be symmetric")
        upper = rows < cols
        return _from_pairs(n, rows[upper], cols[upper])

    def __reduce__(self):
        # the stored form, never a derived array
        return _stored, (self.node_count, self._neighbours)

    @classmethod
    def from_edges(cls, node_count: int, edges) -> Graph:
        """Build a graph from an iterable of ``(i, j)`` pairs."""
        if node_count < 1:
            raise ValueError("graph needs at least one node")
        pairs = []
        for i, j in edges:
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({i}, {j}) out of range for {node_count} nodes")
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            pairs.append((i, j))
        return _from_pairs(node_count, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def is_complete(self) -> bool:
        """Whether every pair of distinct nodes is adjacent."""
        return self._neighbours is None

    @property
    def edge_count(self) -> int:
        n = self.node_count
        if self.is_complete:
            return n * (n - 1) // 2
        return int(self._neighbours[0][-1]) // 2

    def _flat(self) -> np.ndarray:
        # each adjacent ordered pair (i, j) of a graph that is not
        # complete as its row-major position i * n + j, ascending
        indptr, neighbours = self._neighbours
        n = self.node_count
        return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + neighbours

    def dense(self, dtype=bool) -> np.ndarray:
        """The n x n 0/1 adjacency matrix in ``dtype``, built by one flat
        scatter on every call and not kept."""
        n = self.node_count
        if self.is_complete:
            matrix = np.ones((n, n), dtype=dtype)
            np.fill_diagonal(matrix, 0)
            return matrix
        matrix = np.zeros(n * n, dtype=dtype)
        matrix[self._flat()] = 1
        return matrix.reshape(n, n)

    @property
    def adjacency(self) -> np.ndarray:
        """The boolean n x n adjacency matrix, read-only, built on every
        read: 100 MB at n = 10 000."""
        matrix = self.dense(bool)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's candidate set in CSR form, ``(indptr, indices)``.

        A node's candidates are itself and its neighbours: node ``i``'s
        are ``indices[indptr[i]:indptr[i + 1]]``, in ascending order.
        The ``intp`` arrays hold ``n + 1`` and ``2 * edges + n`` entries,
        so a hub costs its degree and no more.  They are built on first
        use, cached on the graph and read-only.
        """
        n = self.node_count
        if self.is_complete:
            indptr, indices = np.arange(n + 1) * n, np.tile(np.arange(n), n)
        else:
            # the diagonal holds no edge, so inserting it keeps each
            # node's positions ascending and unique
            flat = self._flat()
            diagonal = np.arange(n) * (n + 1)
            indices = np.insert(flat, np.searchsorted(flat, diagonal), diagonal) % n
            indptr = self._neighbours[0] + np.arange(n + 1)
        for array in (indptr, indices):
            array.setflags(write=False)
        return indptr, indices

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(i, j)`` with ``i < j``, lexicographically sorted."""
        if self.is_complete:
            rows, cols = np.triu_indices(self.node_count, k=1)
        else:
            rows, cols = np.divmod(self._flat(), self.node_count)
            upper = rows < cols
            rows, cols = rows[upper], cols[upper]
        return list(zip(rows.tolist(), cols.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.node_count != other.node_count or self.is_complete != other.is_complete:
            return False
        # the stored form is canonical: sorted lists, a complete graph flagged
        return self.is_complete or all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._neighbours, other._neighbours)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, edges={self.edge_count})"


def _stored(node_count: int, neighbours: tuple[np.ndarray, np.ndarray] | None) -> Graph:
    """The graph whose stored form is ``neighbours``, the sorted CSR
    ``(indptr, neighbour indices)``, or ``None`` when it is complete."""
    graph = object.__new__(Graph)
    if neighbours is not None:
        for array in neighbours:
            array.setflags(write=False)
    graph._node_count = node_count
    graph._neighbours = neighbours
    return graph


def _from_pairs(node_count: int, i: np.ndarray, j: np.ndarray) -> Graph:
    """The graph on ``node_count`` nodes whose edges are the pairs
    ``(i[k], j[k])``: distinct nodes, either order, repeats allowed.

    It checks nothing.  Both directions of each pair, as keys ``row <<
    shift | column`` that sort by row and then column, sorted and made
    unique, are the neighbour CSR; a graph with every pair is stored as
    complete.  It costs O(pairs) memory and never an n x n array.
    """
    n = node_count
    shift = max(1, (n - 1).bit_length())  # the bits of a node index
    # int32 keys sort and mask about twice as fast as int64 ones
    dtype = np.int32 if shift < 16 else np.int64
    keys = np.concatenate((i, j), dtype=dtype, casting="same_kind")
    keys <<= shift
    keys |= np.concatenate((j, i), dtype=dtype, casting="same_kind")
    keys.sort()
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    if keys.size == n * (n - 1):
        return _stored(n, None)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=dtype) << shift)
    keys &= (1 << shift) - 1
    return _stored(n, (indptr, keys.astype(np.int32, copy=False)))


# ---------------------------------------------------------------------------
# the builders behind the kind table: each takes its kind's spec fields
# in the row's order, checks nothing, since the spec has checked them,
# and hands its edges to _from_pairs


def _circulant_pairs(node_count: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs linking each node to the ``levels`` nearest nodes on
    both sides of the cycle ``0..node_count-1``, some twice."""
    offsets = np.arange(1, min(levels, node_count // 2) + 1)
    far = np.add.outer(offsets, np.arange(node_count))  # node k's k + d, row d - 1
    near = far - offsets[:, None]
    far[far >= node_count] -= node_count
    return near.ravel(), far.ravel()


def _core_with_leaves(
    node_count: int, core_size: int, core: tuple[np.ndarray, np.ndarray]
) -> Graph:
    """The ``core`` pairs on nodes ``0..core_size-1``; node ``k >=
    core_size`` is a leaf of core node ``k % core_size``."""
    leaves = np.arange(core_size, node_count)
    return _from_pairs(
        node_count,
        np.concatenate((core[0], leaves % core_size)),
        np.concatenate((core[1], leaves)),
    )


def _complete(node_count: int) -> Graph:
    """Every pair of distinct nodes is connected."""
    return _stored(node_count, None)


def _core_periphery(node_count: int, core_size: int) -> Graph:
    """Fully connected core plus single-edge periphery nodes.

    Nodes ``0..core_size-1`` form a complete subgraph.  Each remaining
    node ``k`` attaches by one edge to core node ``k % core_size``, so
    periphery attachments cycle round-robin through the core.
    ``core_size == node_count`` gives the complete graph;
    ``core_size == 1`` gives the star, node 0 its hub.
    """
    # the complete core is the circulant with every level
    return _core_with_leaves(node_count, core_size, _circulant_pairs(core_size, core_size // 2))


def _ring_core_star(node_count: int, hub_count: int) -> Graph:
    """Hubs on a ring, leaves distributed round-robin across the hubs.

    Nodes ``0..hub_count-1`` form a cycle (a single edge when there
    are exactly two hubs, no core edges for one hub).  Each remaining
    node ``k`` attaches to hub ``k % hub_count``.  ``hub_count == 1``
    gives the star; ``hub_count == node_count`` gives the ring.
    """
    return _core_with_leaves(node_count, hub_count, _circulant_pairs(hub_count, 1))


def _multi_ring(node_count: int, ring_levels: int) -> Graph:
    """Circulant graph: each node links to its ``ring_levels`` nearest
    neighbors on both sides of the cycle.

    ``ring_levels == 1`` is the ring 0-1-...-(n-1)-0; ``ring_levels ==
    node_count // 2`` is the complete graph.
    """
    return _from_pairs(node_count, *_circulant_pairs(node_count, ring_levels))


def _von_neumann(rows: int, cols: int) -> Graph:
    """4-regular torus grid: wrap-around up/down/left/right neighbors.

    Node ``r * cols + c`` sits at grid cell ``(r, c)``.
    """
    cell = np.arange(rows * cols).reshape(rows, cols)
    right, down = np.roll(cell, -1, axis=1), np.roll(cell, -1, axis=0)
    near = np.concatenate((cell, cell), axis=None)
    return _from_pairs(rows * cols, near, np.concatenate((right, down), axis=None))


def _scale_free(node_count: int, attach_count: int, seed: int) -> Graph:
    """Preferential-attachment graph.

    Starts from ``attach_count`` isolated seed nodes; every subsequent
    node attaches to ``attach_count`` distinct existing nodes chosen
    with probability proportional to current degree (the first
    arrival connects to all seeds).  Produces exactly
    ``attach_count * (node_count - attach_count)`` edges.
    """
    rng = np.random.default_rng(seed)
    # flat endpoint list: picking uniformly from it is degree-weighted;
    # each newcomer adds its targets, then itself once per target
    endpoint_pool: list[int] = []
    targets = list(range(attach_count))
    for newcomer in range(attach_count, node_count):
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
    # so the pool, in blocks of 2 * attach_count, is the edges' two ends
    ends = np.array(endpoint_pool).reshape(-1, 2, attach_count)
    return _from_pairs(node_count, ends[:, 0].ravel(), ends[:, 1].ravel())


# upper-triangle draws the random builder makes per block of rows
_DRAW_BLOCK = 1 << 16


def _random(node_count: int, edge_prob: float, seed: int) -> Graph:
    """Bernoulli random graph: each pair is an edge with ``edge_prob``.

    May be disconnected; downstream metrics account for that.
    """
    rng = np.random.default_rng(seed)
    n = node_count
    # the pairs i < j, row by row, take one draw each from one stream; a
    # block of rows draws its stretch of the stream, so memory stays
    # O(n + edges) while the draws and their order are those of one call
    rows_per_block = max(1, _DRAW_BLOCK // n)
    i_parts, j_parts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for lo in range(0, n - 1, rows_per_block):
        rows = np.arange(lo, min(lo + rows_per_block, n - 1))
        lengths = n - 1 - rows
        starts = np.cumsum(lengths) - lengths
        hits = np.flatnonzero(rng.random(int(lengths.sum())) < edge_prob)
        row = np.searchsorted(starts, hits, side="right") - 1
        i_parts.append(rows[row])
        j_parts.append(rows[row] + 1 + hits - starts[row])
    return _from_pairs(n, np.concatenate(i_parts), np.concatenate(j_parts))


def _small_world(node_count: int, degree: int, rewire_prob: float, seed: int) -> Graph:
    """Rewired ring lattice.

    Starts from the multi-ring with ``degree // 2`` levels; each
    lattice edge ``(i, i+d)``, walked level by level, has its far
    endpoint rewired to a uniformly random non-neighbor with
    probability ``rewire_prob``.  The edge count never changes.
    """
    rng = np.random.default_rng(seed)
    n = node_count

    def key(a: int, b: int) -> int:
        return min(a, b) * n + max(a, b)

    near, far = _circulant_pairs(n, degree // 2)
    # the edges as keys min * n + max, and every node's degree
    edges = set((np.minimum(near, far) * n + np.maximum(near, far)).tolist())
    degrees = [degree] * n
    for d in range(1, degree // 2 + 1):
        for i in range(n):
            if rng.random() >= rewire_prob:
                continue
            # a node adjacent to everything has nowhere to rewire
            if degrees[i] >= n - 1:
                continue
            j = (i + d) % n
            while True:
                k = int(rng.integers(n))
                if k != i and key(i, k) not in edges:
                    break
            # the lattice edge (i, j) is still there: no earlier step
            # removes it, since two levels never add up to n
            edges.remove(key(i, j))
            edges.add(key(i, k))
            degrees[j] -= 1
            degrees[k] += 1
    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    return _from_pairs(n, keys // n, keys % n)


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


def _check_type(name: str, value, integer: bool) -> None:
    """``ValueError`` unless ``value`` is an integer, or if not
    ``integer`` a real number; a bool is neither."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real
    ):
        expected = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}")


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
            _check_type(name, value, integer=PARAMETERS[name].type is int)
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
        Nodes in every graph, an integer of at least 3.
    per_segment : int
        Graphs per segment, an integer of at least 2.
    """
    _check_type("node_count", node_count, integer=True)
    _check_type("per_segment", per_segment, integer=True)
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

