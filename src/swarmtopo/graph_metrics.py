"""Structural metrics for communication graphs.

Distances come from one breadth-first search kernel that runs many
sources at once.  The first BFS level is the sources' adjacency rows;
each later level multiplies the frontier, a float32 (sources x n) 0/1
matrix, by the float32 adjacency in BLAS, thresholds the product at
> 0 and masks it by the nodes not yet reached, all in reused buffers.
The all-pairs path-length sum stops at the level that reaches its last
pair, so on a connected graph of diameter D it costs D - 1 n^3 float32
products plus O(n^2) mask work per level; a single-source search costs
n^2 per level.  The results are exact: a product entry counts frontier
neighbours, at most n, far below float32's 2^24 integer limit, and
only its sign is read.  The omega sampler rejects a random reference
graph with an isolated node (most disconnected ones) without
searching, and gives every other sample one all-pairs search, which
also rejects the rest.  The dense product wastes work on long, thin
frontiers (a 1000-node ring runs 500 levels); a sparse or bit-packed
search for n >= 1000 is not built yet.  Spectra come from dense
symmetric eigendecomposition, and clustering from one float32 A @ A;
the omega ring-lattice baseline's clustering is read off node 0's
neighbours, with no lattice built.
All metrics tolerate disconnected graphs: path-based quantities report
``None`` instead of infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .topology import Graph, _circulant

__all__ = [
    "average_geodesic",
    "natural_connectivity",
    "clustering_coefficient",
    "small_world_ness",
    "GraphMetrics",
    "compute_metrics",
]
# shortest_path_matrix, is_connected and graph_spectrum stay module
# attributes only: the benchmark wraps them by name


def _as_rng(rng) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _bfs_levels(adjacency: np.ndarray, sources: np.ndarray | list[int]):
    """Yield ``(depth, new, count)`` for each BFS level from ``sources``
    at once.

    ``adjacency`` is the float32 (n, n) matrix and ``sources`` a
    sequence of node indices; row i of the boolean ``new`` marks the
    nodes first reached from ``sources[i]`` at ``depth``, and ``count``
    is the number of marks.  The first level is the sources' adjacency
    rows, read without a product.  Each later level is the product
    ``frontier @ adjacency`` written into a reused buffer, thresholded
    at > 0 and masked by the nodes not yet reached, so ``new`` is
    overwritten by the next level, and a level's product is formed
    only when the caller asks for it.  The generator stops at the
    first level that reaches nothing.
    """
    frontier = adjacency[sources]
    new = frontier > 0.0
    unreached = np.ones_like(new)
    unreached[np.arange(len(sources)), sources] = False
    product = np.empty_like(frontier)
    depth = 1
    while True:
        new &= unreached
        count = int(np.count_nonzero(new))
        if not count:
            return
        unreached ^= new
        yield depth, new, count
        np.copyto(frontier, new)
        np.matmul(frontier, adjacency, out=product)
        np.greater(product, 0.0, out=new)
        depth += 1


def _distance_sum(adjacency: np.ndarray, sources: np.ndarray | list[int]) -> int | None:
    """Sum of hop distances from ``sources`` to every node, or ``None``
    as soon as a BFS level adds nothing while some node is unreached."""
    unreached = len(sources) * (adjacency.shape[0] - 1)
    total = 0
    for depth, _, count in _bfs_levels(adjacency, sources):
        total += depth * count
        unreached -= count
        if not unreached:
            break
    return None if unreached else total


def _mean_geodesic(adjacency: np.ndarray) -> float | None:
    """Mean hop distance over the ordered node pairs of the float32
    ``adjacency`` (at least two nodes), or ``None`` when disconnected."""
    n = adjacency.shape[0]
    total = _distance_sum(adjacency, np.arange(n))
    return None if total is None else float(total) / (n * (n - 1))


def shortest_path_matrix(graph: Graph) -> np.ndarray:
    """All-pairs hop distances; unreachable pairs get -1.

    Every source's BFS runs at once (:func:`_bfs_levels`): the first
    level is the adjacency itself, and each later level costs one
    n x n x n float32 product plus O(n^2) mask work, so the call costs
    depth x n^3 flops, depth being the largest finite distance (the
    last product finds no new node).
    """
    n = graph.node_count
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    for depth, new, _ in _bfs_levels(graph.adjacency.astype(np.float32), np.arange(n)):
        dist[new] = depth
    return dist


def average_geodesic(graph: Graph) -> float | None:
    """Mean shortest-path length over ordered node pairs.

    Returns ``None`` when the graph is disconnected.  Needs at least
    two nodes.  Adds up depth times the pairs first reached at that
    depth over the all-pairs BFS levels, stopping once every pair is
    reached, without building the distance matrix.
    """
    if graph.node_count < 2:
        raise ValueError("average geodesic needs at least 2 nodes")
    return _mean_geodesic(graph.adjacency.astype(np.float32))


def is_connected(graph: Graph) -> bool:
    """True when every node is reachable from node 0."""
    return _distance_sum(graph.adjacency.astype(np.float32), [0]) is not None


def graph_spectrum(graph: Graph) -> np.ndarray:
    """Adjacency eigenvalues, descending."""
    return np.linalg.eigvalsh(graph.adjacency.astype(np.float64))[::-1]


def natural_connectivity(graph: Graph) -> float:
    """Log of the average eigenvalue exponential.

    Computed with a max-shift so large spectra cannot overflow.
    """
    eigs = graph_spectrum(graph)
    shift = eigs[0]
    return float(shift + np.log(np.mean(np.exp(eigs - shift))))


def clustering_coefficient(graph: Graph) -> float:
    """Mean local clustering; nodes of degree < 2 contribute 0."""
    a = graph.adjacency.astype(np.float32)
    deg = a.sum(axis=1, dtype=np.float64)
    # diag of A^3; A @ A is exact in float32, its entries at most n - 1,
    # and the integer row sums are exact in float64
    closed_walks = ((a @ a) * a).sum(axis=1, dtype=np.float64)
    denom = deg * (deg - 1.0)
    local = np.divide(
        closed_walks, denom, out=np.zeros_like(denom), where=denom > 0
    )
    return float(local.mean())


def _lattice_clustering(node_count: int, levels: int) -> float:
    # clustering_coefficient of the multi-ring (node_count, levels) to the
    # bit, without building the lattice: every node of a circulant has
    # node 0's local value.  Node 0's neighbours are +-1..+-levels (mod
    # n, at least 2 of them), and a pair (j, k) of them closes a walk
    # when k - j is an offset too, which is the circulant's entry (j, k)
    lattice = _circulant(node_count, levels)
    neighbours = np.flatnonzero(lattice[0])
    closed_walks = int(np.count_nonzero(lattice[neighbours][:, neighbours]))
    degree = neighbours.size
    local = closed_walks / (degree * (degree - 1))
    # the same float64 mean over node_count equal values
    return float(np.full(node_count, local).mean())


def _random_same_size(
    node_count: int,
    edge_count: int,
    pairs: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    # symmetric float32 0/1 adjacency of a uniform simple graph with
    # exactly edge_count edges, left unvalidated; pairs is
    # np.triu_indices(node_count, k=1), built once per caller
    iu, ju = pairs
    pick = rng.choice(iu.size, size=edge_count, replace=False)
    i, j = iu[pick], ju[pick]
    adj = np.zeros(node_count * node_count, dtype=np.float32)
    adj[i * node_count + j] = 1.0
    adj[j * node_count + i] = 1.0
    return adj.reshape(node_count, node_count)


def small_world_ness(
    graph: Graph, path_length: float | None, clustering: float, rng=None, sample_count: int = 10
) -> float | None:
    """Path-vs-clustering balance score.

    ``L_random / L - C / C_lattice`` where ``L`` (``path_length``) and
    ``C`` (``clustering``) are the graph's own :func:`average_geodesic`
    and :func:`clustering_coefficient`, measured by the caller.
    ``L_random`` averages over connected random graphs with the same
    node and edge counts, and ``C_lattice`` is the clustering of the
    ring lattice whose level count is the rounded half mean degree.
    Near 0 for small-world graphs, negative for lattices, positive for
    random graphs.

    Returns ``None`` when undefined: disconnected input, a
    triangle-free lattice baseline, or no connected random sample
    found within the attempt budget.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    n = graph.node_count
    m = graph.edge_count
    if n < 3 or m == 0 or path_length is None:
        return None
    levels = max(1, min(int(round(m / n)), n // 2))
    lattice_clustering = _lattice_clustering(n, levels)
    if lattice_clustering <= 0.0:
        return None
    rng = _as_rng(rng)
    pairs = np.triu_indices(n, k=1)
    lengths = []
    attempts = 0
    while len(lengths) < sample_count and attempts < 20 * sample_count:
        attempts += 1
        sample = _random_same_size(n, m, pairs, rng)
        # a sample with an isolated node is disconnected without a
        # search; the all-pairs search rejects any other disconnected one
        if not sample.any(axis=1).all():
            continue
        length = _mean_geodesic(sample)
        if length is not None:
            lengths.append(length)
    if not lengths:
        return None
    return float(np.mean(lengths) / path_length - clustering / lattice_clustering)


@dataclass(frozen=True)
class GraphMetrics:
    """Bundle of per-graph metrics; path-based fields may be None."""

    node_count: int
    edge_count: int
    connected: bool
    average_path_length: float | None
    natural_connectivity: float
    clustering_coefficient: float
    small_world_ness: float | None


def compute_metrics(graph: Graph, rng=None, omega_samples: int = 10) -> GraphMetrics:
    """Evaluate every metric for one graph, measuring its L and C once.

    The all-pairs search behind L also settles connectivity: a graph is
    connected when L is defined or it has a single node.
    """
    single = graph.node_count == 1
    path_length = None if single else average_geodesic(graph)
    clustering = clustering_coefficient(graph)
    return GraphMetrics(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        connected=single or path_length is not None,
        average_path_length=path_length,
        natural_connectivity=natural_connectivity(graph),
        clustering_coefficient=clustering,
        small_world_ness=small_world_ness(
            graph, path_length, clustering, rng=rng, sample_count=omega_samples
        ),
    )
