"""Shortest paths, spectra, and the derived graph statistics.

The geodesic oracles are a plain Floyd-Warshall reimplementation and
networkx's breadth-first search; the spectral constants for the 5-node
complete/star/ring graphs are known closed forms.  Clustering and the
spectrum are checked against networkx on every topology kind, and the
small-world score omega against a hand-computed five-node case.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmtopo import graph_metrics
from swarmtopo.graph_metrics import (
    GraphMetrics,
    average_geodesic,
    clustering_coefficient,
    compute_metrics,
    graph_spectrum,
    is_connected,
    natural_connectivity,
    shortest_path_matrix,
    small_world_ness,
)
from swarmtopo.topology import (
    Graph,
    build_spectrum,
    build_topology,
)

from strategies import graph_of, topology_specs


def _floyd_warshall(graph: Graph) -> np.ndarray:
    """Independent all-pairs oracle: triple loop over an int table."""
    n = graph.node_count
    inf = n + 1  # longer than any simple path
    dist = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for i, j in graph.edges():
        dist[i, j] = dist[j, i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i, k] + dist[k, j]
                if through < dist[i, j]:
                    dist[i, j] = through
    dist[dist >= inf] = -1
    return dist


def _two_components() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


@st.composite
def graphs(draw, max_nodes: int = 24) -> Graph:
    """Simple graphs with up to 3n edge draws: shrinking heads for
    sparse, disconnected graphs and isolated nodes."""
    n = draw(st.integers(1, max_nodes))
    if n == 1:
        return Graph.from_edges(1, [])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=3 * n))
    return Graph.from_edges(n, edges)


def _to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.node_count))
    g.add_edges_from(graph.edges())
    return g


def _networkx_distances(graph: Graph) -> np.ndarray:
    n = graph.node_count
    dist = np.full((n, n), -1, dtype=np.int64)
    for source, lengths in nx.all_pairs_shortest_path_length(_to_networkx(graph)):
        for target, length in lengths.items():
            dist[source, target] = length
    return dist


class TestShortestPaths:
    def test_matches_floyd_warshall_on_spectrum(self):
        for g in build_spectrum(12, 4):
            assert np.array_equal(shortest_path_matrix(g), _floyd_warshall(g))

    def test_matches_floyd_warshall_on_random(self):
        for seed in range(6):
            g = graph_of("random", node_count=11, edge_prob=0.25, seed=seed)
            assert np.array_equal(shortest_path_matrix(g), _floyd_warshall(g))

    def test_unreachable_marked(self):
        d = shortest_path_matrix(_two_components())
        assert d[0, 3] == -1 and d[0, 1] == 1 and d[0, 2] == 2

    def test_average_geodesic_pinned(self):
        assert average_geodesic(graph_of("complete", node_count=100)) == 1.0
        assert abs(average_geodesic(graph_of("star", node_count=100)) - 1.98) < 1e-9
        assert abs(average_geodesic(graph_of("ring", node_count=100)) - 2500 / 99) < 1e-9

    def test_average_geodesic_disconnected(self):
        assert average_geodesic(_two_components()) is None

    def test_average_geodesic_rejects_single_node(self):
        with pytest.raises(ValueError):
            average_geodesic(graph_of("complete", node_count=1))

    def test_is_connected(self):
        assert is_connected(graph_of("ring", node_count=9))
        assert not is_connected(_two_components())

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs())
    @example(graph=Graph.from_edges(1, []))
    @example(graph=Graph.from_edges(2, []))
    @example(graph=Graph.from_edges(2, [(0, 1)]))
    @example(graph=_two_components())
    def test_matches_networkx(self, graph):
        distances = _networkx_distances(graph)
        connected = nx.is_connected(_to_networkx(graph))
        assert np.array_equal(shortest_path_matrix(graph), distances)
        assert is_connected(graph) == connected
        assert compute_metrics(graph, rng=0, omega_samples=1).connected == connected
        n = graph.node_count
        if n == 1:
            with pytest.raises(ValueError):
                average_geodesic(graph)
        elif not connected:
            assert average_geodesic(graph) is None
        else:
            # the exact integer sum of the networkx distances
            total = int(distances.sum())
            assert average_geodesic(graph) == total / (n * (n - 1))
            assert round(average_geodesic(graph) * n * (n - 1)) == total

    def test_matches_networkx_at_depth_and_size(self):
        # the spectrum's deepest BFS (ring: 50 levels) and densest graphs
        wide = graph_of("small-world", node_count=300, degree=6, rewire_prob=0.05, seed=2)
        for g in build_spectrum(100, 6) + [wide]:
            assert np.array_equal(shortest_path_matrix(g), _networkx_distances(g))
            assert is_connected(g) == nx.is_connected(_to_networkx(g))


class TestBfsLevels:
    """Each level of the multi-source search against networkx's
    single-source distances, one source row at a time."""

    GRAPHS = {
        "one-node": Graph.from_edges(1, []),
        "edgeless": Graph.from_edges(5, []),
        "two-component": _two_components(),
        "ring": graph_of("ring", node_count=9),
        "small-world": graph_of("small-world", node_count=30, degree=4, rewire_prob=0.1, seed=1),
    }
    SOURCES = {
        "one": lambda n: [n - 1],
        "several": lambda n: [0, n // 2, n - 1],
        "repeated": lambda n: [n // 2, 0, n // 2, n // 2],
        "all": lambda n: list(range(n)),
    }

    @pytest.mark.parametrize("pick", SOURCES)
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_networkx(self, name, pick):
        graph = self.GRAPHS[name]
        sources = self.SOURCES[pick](graph.node_count)
        reached = [{source: 0} for source in sources]
        depths = []
        levels = graph_metrics._bfs_levels(graph.adjacency.astype(np.float32), sources)
        for depth, new, count in levels:
            assert count == np.count_nonzero(new) > 0
            depths.append(depth)
            for row, node in zip(*np.nonzero(new)):
                assert node not in reached[row]
                reached[row][node] = depth
        assert depths == list(range(1, len(depths) + 1))
        g = _to_networkx(graph)
        for source, lengths in zip(sources, reached):
            assert lengths == nx.single_source_shortest_path_length(g, source)

    @pytest.mark.parametrize("n", [1, 5])
    def test_edgeless_graph_yields_no_level(self, n):
        adjacency = np.zeros((n, n), dtype=np.float32)
        assert list(graph_metrics._bfs_levels(adjacency, list(range(n)))) == []
        assert list(graph_metrics._bfs_levels(adjacency, [0])) == []


class TestSpectra:
    def test_complete_star_ring_eigenvalues(self):
        golden = 2 * np.cos(2 * np.pi / 5)  # 0.618...
        cases = [
            (graph_of("complete", node_count=5), [4, -1, -1, -1, -1]),
            (graph_of("star", node_count=5), [2, 0, 0, 0, -2]),
            (graph_of("ring", node_count=5), [2, golden, golden, -golden - 1, -golden - 1]),
        ]
        for graph, expected in cases:
            spectrum = graph_spectrum(graph)
            assert np.allclose(spectrum, expected, atol=0.01)
            assert (np.diff(spectrum) <= 1e-9).all()  # descending

    def test_spectrum_sums_to_zero(self):
        for seed in range(4):
            g = graph_of("random", node_count=15, edge_prob=0.3, seed=seed)
            assert abs(graph_spectrum(g).sum()) < 1e-9

    def test_natural_connectivity_pinned(self):
        assert abs(natural_connectivity(graph_of("complete", node_count=5)) - 2.417157) < 1e-6
        assert abs(natural_connectivity(graph_of("star", node_count=5)) - 0.744258) < 1e-6
        assert abs(natural_connectivity(graph_of("ring", node_count=5)) - 0.832577) < 1e-6

    def test_natural_connectivity_definition(self):
        # log of the mean exponentiated eigenvalue, computed naively
        g = graph_of("von-neumann", rows=4, cols=5)
        lam = np.linalg.eigvalsh(g.adjacency.astype(float))
        naive = float(np.log(np.exp(lam).mean()))
        assert abs(natural_connectivity(g) - naive) < 1e-12

    def test_natural_connectivity_overflow_safe(self):
        # complete graph eigenvalue n-1 overflows exp() beyond ~710
        value = natural_connectivity(graph_of("complete", node_count=800))
        assert np.isfinite(value)
        assert abs(value - (799 - np.log(800))) < 1e-6


class TestClustering:
    def test_pinned_values(self):
        assert clustering_coefficient(graph_of("complete", node_count=8)) == 1.0
        assert clustering_coefficient(graph_of("ring", node_count=8)) == 0.0
        assert clustering_coefficient(graph_of("star", node_count=8)) == 0.0
        lattice = graph_of("multi-ring", node_count=10, ring_levels=2)
        assert abs(clustering_coefficient(lattice) - 0.5) < 1e-12

    def test_degree_one_nodes_count_zero(self):
        # path graph: ends have degree 1, middle has no triangle
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert clustering_coefficient(g) == 0.0

    def test_single_triangle(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        # nodes 0,1: C=1; node 2: 1 of 3 pairs; node 3: degree 1 -> 0
        expected = (1 + 1 + 1 / 3 + 0) / 4
        assert abs(clustering_coefficient(g) - expected) < 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: graph_of("complete", node_count=300),
            lambda: graph_of("random", node_count=400, edge_prob=0.6, seed=3),
        ],
    )
    def test_bit_equal_to_float64_formula(self, build):
        # the float64 formula is the oracle: its A @ A is exact in float64,
        # so the float32 product must give the same bits on dense graphs
        graph = build()
        a = graph.adjacency.astype(np.float64)
        deg = a.sum(axis=1)
        closed_walks = ((a @ a) * a).sum(axis=1)
        denom = deg * (deg - 1.0)
        local = np.divide(closed_walks, denom, out=np.zeros_like(denom), where=denom > 0)
        assert clustering_coefficient(graph) == float(local.mean())


    def test_lattice_baseline_is_the_built_lattice_to_the_bit(self):
        # omega's ring-lattice clustering, counted on node 0 alone,
        # against the full computation on the lattice itself
        for n in range(3, 131):
            for levels in range(1, n // 2 + 1):
                lattice = graph_of("multi-ring", node_count=n, ring_levels=levels)
                expected = clustering_coefficient(lattice)
                got = graph_metrics._lattice_clustering(n, levels)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (n, levels)


def _omega(graph: Graph, **kwargs) -> float | None:
    # the graph's own L and C, measured by the caller as compute_metrics does
    path_length = average_geodesic(graph) if graph.node_count >= 2 else None
    return small_world_ness(graph, path_length, clustering_coefficient(graph), **kwargs)


class TestSmallWorldNess:
    def test_disconnected_is_none(self):
        assert _omega(_two_components(), rng=0) is None

    def test_triangle_free_lattice_is_none(self):
        # ring baseline has zero clustering, so omega is undefined
        assert _omega(graph_of("ring", node_count=20), rng=0) is None

    def test_small_world_graph_near_zero(self):
        g = graph_of("small-world", node_count=100, degree=10, rewire_prob=0.1, seed=3)
        omega = _omega(g, rng=0)
        assert omega is not None
        assert abs(omega) < 0.5

    def test_deterministic_given_seed(self):
        g = graph_of("small-world", node_count=60, degree=6, rewire_prob=0.2, seed=5)
        assert _omega(g, rng=11) == _omega(g, rng=11)

    @pytest.mark.parametrize("rng", [0, 1, 2])
    def test_hand_computed_omega(self, rng):
        # Telesford et al. 2011: omega = L_random / L - C / C_lattice.  K5
        # minus one edge has L = 22/20 (two of the 20 ordered pairs at
        # distance 2) and C = (1 + 1 + 3 * 5/6) / 5 = 0.9; its lattice
        # baseline multi-ring(5, 2) is K5 with C = 1, and every random
        # graph of 5 nodes and 9 edges is again K5 minus one edge.
        g = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)][1:])
        assert g.edge_count == 9
        assert average_geodesic(g) == pytest.approx(1.1, abs=1e-12)
        assert clustering_coefficient(g) == pytest.approx(0.9, abs=1e-12)
        assert clustering_coefficient(graph_of("multi-ring", node_count=5, ring_levels=2)) == 1.0
        assert _omega(g, rng=rng) == pytest.approx(0.1, abs=1e-12)
        # K5 is its own lattice baseline and its own random graph
        assert _omega(graph_of("complete", node_count=5), rng=rng) == pytest.approx(0.0, abs=1e-12)


def _sparse_ring(n: int) -> Graph:
    # ring plus the chords (i, i + 2) for even i: 1.5 n edges, so most
    # random graphs of the same size are disconnected, and its lattice
    # baseline multi-ring(n, 2) has clustering 0.5
    ring = [(i, (i + 1) % n) for i in range(n)]
    chords = [(i, (i + 2) % n) for i in range(0, n, 2)]
    return Graph.from_edges(n, ring + chords)


def _reference_omega(graph: Graph, rng: np.random.Generator, sample_count: int):
    """Independent rejection loop over the same random draws: networkx
    decides connectivity and measures each accepted sample.

    Returns omega, the number of accepted samples and, for each rejected
    one, whether it has an isolated node.  A triangle-free lattice
    baseline leaves omega undefined before any draw."""
    n, m = graph.node_count, graph.edge_count
    lattice = clustering_coefficient(
        graph_of("multi-ring", node_count=n, ring_levels=round(m / n))
    )
    if lattice == 0.0:
        return None, 0, []
    pairs = np.triu_indices(n, k=1)
    lengths, rejected = [], []
    for _ in range(20 * sample_count):
        if len(lengths) == sample_count:
            break
        sample = nx.from_numpy_array(graph_metrics._random_same_size(n, m, pairs, rng))
        if nx.is_connected(sample):
            lengths.append(nx.average_shortest_path_length(sample))
        else:
            rejected.append(nx.number_of_isolates(sample) > 0)
    omega = None
    if lengths:
        path_length = nx.average_shortest_path_length(_to_networkx(graph))
        omega = np.mean(lengths) / path_length - clustering_coefficient(graph) / lattice
    return omega, len(lengths), rejected


@st.composite
def _ring_with_chords(draw) -> Graph:
    """A ring on 6 to 16 nodes plus random chords, n <= m <= 1.5 n edges:
    sparse enough that many random graphs of the same size are
    disconnected, with and without an isolated node."""
    n = draw(st.integers(6, 16))
    m = draw(st.one_of(st.just(n + n // 2), st.integers(n, n + n // 2)))
    ring = [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring]
    chords = draw(st.lists(st.sampled_from(others), min_size=m - n, max_size=m - n, unique=True))
    return Graph.from_edges(n, ring + chords)


class TestSparseOmega:
    """On a sparse graph most omega samples are disconnected and are
    rejected; the accepted ones and the generator's state must match an
    independent networkx loop over the same draws."""

    @pytest.mark.parametrize("sample_count, seed", [(4, 0), (4, 3), (1, 5)])
    def test_matches_reference_rejection_loop(self, sample_count, seed):
        graph = _sparse_ring(40)
        assert graph.edge_count == 60
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        omega = _omega(graph, rng=rng, sample_count=sample_count)
        expected, accepted, rejected = _reference_omega(graph, reference_rng, sample_count)
        assert len(rejected) > accepted > 0
        assert omega == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_exhausted_budget_is_none(self):
        # at n=200 a random graph of 300 edges is connected with
        # probability about exp(-200 e^-3) < 1e-4: every one of the 20
        # attempts is rejected
        graph = _sparse_ring(200)
        rng = np.random.default_rng(1)
        reference_rng = np.random.default_rng(1)
        expected, accepted, rejected = _reference_omega(graph, reference_rng, 1)
        assert (expected, accepted, len(rejected)) == (None, 0, 20)
        assert _omega(graph, rng=rng, sample_count=1) is None
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @settings(max_examples=120, deadline=None)
    @given(graph=_ring_with_chords(), seed=st.integers(0, 2**32 - 1), sample_count=st.integers(1, 6))
    @example(graph=_sparse_ring(16), seed=1, sample_count=3)
    def test_matches_reference_on_sparse_graphs(self, graph, seed, sample_count):
        # Only m = 1.5 n (n even) has a lattice baseline with triangles,
        # multi-ring(n, 2); below it omega is None before any draw.
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        expected, _, _ = _reference_omega(graph, reference_rng, sample_count)
        assert _omega(graph, rng=rng, sample_count=sample_count) == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_disconnected_sample_without_isolated_node(self):
        # seed 13 draws a disconnected 10-node sample in which every node
        # has an edge, so the all-pairs search, not the isolated-node
        # check, must reject it
        graph = _sparse_ring(10)
        rng = np.random.default_rng(13)
        reference_rng = np.random.default_rng(13)
        expected, accepted, rejected = _reference_omega(graph, reference_rng, 1)
        assert (accepted, rejected) == (1, [False])
        assert _omega(graph, rng=rng, sample_count=1) == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestComputeMetrics:
    def test_bundle_fields(self):
        g = graph_of("small-world", node_count=50, degree=6, rewire_prob=0.1, seed=1)
        m = compute_metrics(g, rng=0)
        assert isinstance(m, GraphMetrics)
        assert m.node_count == 50
        assert m.edge_count == 150
        assert m.connected == is_connected(g)
        assert m.average_path_length == average_geodesic(g)
        assert m.natural_connectivity == natural_connectivity(g)
        assert m.clustering_coefficient == clustering_coefficient(g)

    def test_disconnected_bundle(self):
        m = compute_metrics(_two_components(), rng=0)
        assert not m.connected
        assert m.average_path_length is None
        assert m.small_world_ness is None
        assert np.isfinite(m.natural_connectivity)

    def test_measures_the_graph_once(self, monkeypatch):
        searches, samples = [], []
        bfs_levels = graph_metrics._bfs_levels
        random_same_size = graph_metrics._random_same_size

        def recording_search(adjacency, sources):
            searches.append((adjacency.copy(), len(sources)))
            return bfs_levels(adjacency, sources)

        def recording_sample(*args):
            sample = random_same_size(*args)
            samples.append(sample.copy())
            return sample

        monkeypatch.setattr(graph_metrics, "_bfs_levels", recording_search)
        monkeypatch.setattr(graph_metrics, "_random_same_size", recording_sample)
        g = _sparse_ring(40)
        m = compute_metrics(g, rng=0, omega_samples=2)
        assert m.small_world_ness is not None
        assert m.connected
        # g gets one all-pairs search and no second, single-source one
        # for connectivity; every other search is on a random omega sample
        on_g = [count for adjacency, count in searches if np.array_equal(adjacency, g.adjacency)]
        assert on_g == [40]
        assert all(count == 40 for _, count in searches)  # no single-source search
        # a sample with an isolated node is rejected unsearched; any other
        # gets exactly one all-pairs search
        isolated = [not sample.any(axis=1).all() for sample in samples]
        assert True in isolated and False in isolated
        for sample, lonely in zip(samples, isolated):
            on_sample = [count for adjacency, count in searches if np.array_equal(adjacency, sample)]
            assert on_sample == ([] if lonely else [40])
        assert len(searches) == 1 + isolated.count(False)
        assert m.small_world_ness == _omega(g, rng=0, sample_count=2)

    def test_default_seed_is_zero(self):
        g = graph_of("small-world", node_count=40, degree=4, rewire_prob=0.2, seed=1)
        seeded = compute_metrics(g, rng=0)
        assert seeded.small_world_ness is not None
        assert compute_metrics(g) == compute_metrics(g) == seeded
        assert _omega(g) == seeded.small_world_ness


class TestNetworkxOracles:
    """Clustering and spectrum against networkx, on every topology kind
    and on the edgeless and one-node graphs."""

    @staticmethod
    def _check(graph: Graph) -> None:
        g = _to_networkx(graph)
        # networkx also scores nodes of degree below 2 as 0
        assert clustering_coefficient(graph) == pytest.approx(
            nx.average_clustering(g), rel=1e-12, abs=1e-12
        )
        expected = np.sort(nx.adjacency_spectrum(g).real)[::-1]
        assert np.allclose(graph_spectrum(graph), expected, rtol=0.0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(spec=topology_specs())
    def test_every_kind(self, spec):
        self._check(build_topology(spec))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_edgeless_and_one_node(self, n):
        graph = Graph(np.zeros((n, n), dtype=bool))
        assert clustering_coefficient(graph) == 0.0
        assert graph_spectrum(graph).tolist() == [0.0] * n
        self._check(graph)
