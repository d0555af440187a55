"""Structural metrics for communication graphs.

Distances come from breadth-first search expressed as matrix
products: each BFS level multiplies the boolean frontier, cast to
float32, by the float32 adjacency, so the product runs in BLAS.  The
all-pairs cost is depth x n^3 flops.  The results are exact: a product
entry counts frontier neighbours, at most n, far below float32's 2^24
integer limit, and only its sign is read.  Spectra come from dense
symmetric eigendecomposition.  All metrics tolerate disconnected
graphs: path-based quantities report ``None`` instead of infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .topology import Graph, make_multi_ring

__all__ = [
    "shortest_path_matrix",
    "average_geodesic",
    "is_connected",
    "graph_spectrum",
    "natural_connectivity",
    "clustering_coefficient",
    "small_world_ness",
    "GraphMetrics",
    "compute_metrics",
]


def shortest_path_matrix(graph: Graph) -> np.ndarray:
    """All-pairs hop distances; unreachable pairs get -1.

    Level-synchronous BFS from every source at once: the frontier is
    an n x n boolean matrix, and one level is the float32 product
    ``frontier @ adjacency`` (BLAS), thresholded at > 0 and masked by
    the nodes already reached.  Each level costs n^3 multiply-adds, so
    the call costs depth x n^3 flops, depth being the largest finite
    distance plus one.  The distances are exact: product entries are
    neighbour counts no larger than n.
    """
    adj = graph.adjacency.astype(np.float32)
    n = graph.node_count
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    depth = 0
    while frontier.any():
        depth += 1
        frontier = ((frontier.astype(np.float32) @ adj) > 0) & ~reached
        dist[frontier] = depth
        reached |= frontier
    return dist


def average_geodesic(graph: Graph) -> float | None:
    """Mean shortest-path length over ordered node pairs.

    Returns ``None`` when the graph is disconnected.  Needs at least
    two nodes.
    """
    n = graph.node_count
    if n < 2:
        raise ValueError("average geodesic needs at least 2 nodes")
    dist = shortest_path_matrix(graph)
    if (dist < 0).any():
        return None
    return float(dist.sum()) / (n * (n - 1))


def is_connected(graph: Graph) -> bool:
    """True when every node is reachable from node 0."""
    adj = graph.adjacency.astype(np.float32)
    reached = np.zeros(graph.node_count, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = ((frontier.astype(np.float32) @ adj) > 0) & ~reached
        reached |= frontier
    return bool(reached.all())


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
    a = graph.adjacency.astype(np.float64)
    deg = a.sum(axis=1)
    closed_walks = ((a @ a) * a).sum(axis=1)  # diag of A^3
    denom = deg * (deg - 1.0)
    local = np.divide(
        closed_walks, denom, out=np.zeros_like(denom), where=denom > 0
    )
    return float(local.mean())


def _random_same_size(
    node_count: int,
    edge_count: int,
    pairs: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> Graph:
    # uniform simple graph with exactly edge_count edges; pairs is
    # np.triu_indices(node_count, k=1), built once per caller
    iu, ju = pairs
    pick = rng.choice(iu.size, size=edge_count, replace=False)
    adj = np.zeros((node_count, node_count), dtype=bool)
    adj[iu[pick], ju[pick]] = True
    return Graph(adj | adj.T)


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
    lattice_clustering = clustering_coefficient(make_multi_ring(n, levels))
    if lattice_clustering <= 0.0:
        return None
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    pairs = np.triu_indices(n, k=1)
    lengths = []
    attempts = 0
    while len(lengths) < sample_count and attempts < 20 * sample_count:
        attempts += 1
        sample_length = average_geodesic(_random_same_size(n, m, pairs, rng))
        if sample_length is not None:
            lengths.append(sample_length)
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
    """Evaluate every metric for one graph, measuring its L and C once."""
    path_length = average_geodesic(graph) if graph.node_count >= 2 else None
    clustering = clustering_coefficient(graph)
    return GraphMetrics(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        connected=is_connected(graph),
        average_path_length=path_length,
        natural_connectivity=natural_connectivity(graph),
        clustering_coefficient=clustering,
        small_world_ness=small_world_ness(
            graph, path_length, clustering, rng=rng, sample_count=omega_samples
        ),
    )
