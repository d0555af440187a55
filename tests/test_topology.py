"""Graph constructors, the topology spectrum, and edge-list round-trips."""

import itertools
import re
import string
import tracemalloc
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmtopo.plans import _topology_line, parse_topology_line
from swarmtopo.topology import (
    KINDS,
    TOPOLOGY_KINDS,
    Graph,
    TopologySpec,
    build_spectrum,
    build_topology,
    edge_list_text,
    parse_edge_list,
    spectrum_points,
)

from strategies import graph_of, topology_specs


# the deterministic kinds built edge by edge in plain Python: an oracle
# independent of the package's array construction
def _reference_core_periphery(node_count, core_size):
    edges = [(i, j) for i in range(core_size) for j in range(i + 1, core_size)]
    for k in range(core_size, node_count):
        edges.append(((k - core_size) % core_size, k))
    return Graph.from_edges(node_count, edges)


def _reference_ring_core_star(node_count, hub_count):
    edges = []
    if hub_count >= 3:
        edges.extend((k, (k + 1) % hub_count) for k in range(hub_count))
    elif hub_count == 2:
        edges.append((0, 1))
    for k in range(hub_count, node_count):
        edges.append(((k - hub_count) % hub_count, k))
    return Graph.from_edges(node_count, edges)


def _reference_multi_ring(node_count, ring_levels):
    return Graph.from_edges(
        node_count,
        ((k, (k + d) % node_count) for k in range(node_count) for d in range(1, ring_levels + 1)),
    )


def _reference_von_neumann(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            edges.append((here, r * cols + (c + 1) % cols))
            edges.append((here, ((r + 1) % rows) * cols + c))
    return Graph.from_edges(rows * cols, edges)


REFERENCE_BUILDERS = {
    "complete": lambda s: Graph.from_edges(
        s.node_count, itertools.combinations(range(s.node_count), 2)
    ),
    "star": lambda s: Graph.from_edges(s.node_count, ((0, k) for k in range(1, s.node_count))),
    "ring": lambda s: Graph.from_edges(
        s.node_count, ((k, (k + 1) % s.node_count) for k in range(s.node_count))
    ),
    "core-periphery": lambda s: _reference_core_periphery(s.node_count, s.core_size),
    "ring-core-star": lambda s: _reference_ring_core_star(s.node_count, s.hub_count),
    "multi-ring": lambda s: _reference_multi_ring(s.node_count, s.ring_levels),
    "von-neumann": lambda s: _reference_von_neumann(s.rows, s.cols),
}


def _check_invariants(graph: Graph) -> None:
    a = graph.adjacency
    assert a.shape == (graph.node_count, graph.node_count)
    assert a.dtype == np.bool_
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()
    assert graph.edge_count == int(a.sum()) // 2


class TestGraph:
    def test_rejects_asymmetric(self):
        a = np.zeros((3, 3), dtype=bool)
        a[0, 1] = True
        with pytest.raises(ValueError):
            Graph(a)

    def test_rejects_self_loop(self):
        a = np.zeros((2, 2), dtype=bool)
        a[0, 0] = True
        with pytest.raises(ValueError):
            Graph(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 3), dtype=bool))

    def test_adjacency_read_only(self):
        g = graph_of("ring", node_count=4)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = False

    def test_constructor_copies_input(self):
        a = np.zeros((3, 3), dtype=bool)
        a[0, 1] = a[1, 0] = True
        g = Graph(a)
        a[1, 2] = a[2, 1] = True
        assert g.edge_count == 1

    def test_from_edges_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_equality_is_structural(self):
        assert graph_of("ring", node_count=5) == graph_of("ring", node_count=5)
        assert graph_of("ring", node_count=5) != graph_of("star", node_count=5)


def _dense_candidates(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    # the candidate sets from the dense n x n oracle, as first written
    n = graph.node_count
    rows, indices = np.nonzero(graph.adjacency | np.eye(n, dtype=bool))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


def _dense_edges(graph: Graph) -> list[tuple[int, int]]:
    iu, ju = np.nonzero(np.triu(graph.adjacency, k=1))
    return list(zip(iu.tolist(), ju.tolist()))


def _check_against_dense_oracles(graph: Graph) -> None:
    for got, expected in zip(graph.candidates, _dense_candidates(graph)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
    assert graph.edges() == _dense_edges(graph)


def _traced_peak(build) -> int:
    # bytes allocated at the peak of build(), above what existed before
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraphCost:
    """A graph is one n x n bool array; building it holds at most two."""

    N = 2048

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: graph_of("multi-ring", node_count=n, ring_levels=3),
            lambda n: graph_of("complete", node_count=n),
        ],
        ids=["multi-ring", "complete"],
    )
    def test_view_built_graph_costs_its_copy(self, build):
        assert _traced_peak(lambda: build(self.N)) <= 1.1 * self.N**2

    def test_graph_of_an_array_costs_its_copy(self):
        adj = graph_of("multi-ring", node_count=self.N, ring_levels=3).adjacency
        assert _traced_peak(lambda: Graph(adj)) <= 1.1 * self.N**2

    @pytest.mark.parametrize(
        "read", [lambda g: g.candidates, Graph.edges], ids=["candidates", "edges"]
    )
    def test_candidates_and_edges_make_no_square_temporary(self, read):
        ring = graph_of("ring", node_count=self.N)
        assert _traced_peak(lambda: read(ring)) <= 0.2 * self.N**2

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: graph_of("von-neumann", rows=32, cols=64),
            lambda n: graph_of("small-world", node_count=n, degree=6, rewire_prob=0.1, seed=1),
        ],
        ids=["von-neumann", "small-world"],
    )
    def test_array_built_graph_holds_at_most_two(self, build):
        # numpy.random's first import is not the graph's
        graph_of("small-world", node_count=10, degree=4, rewire_prob=0.5, seed=0)
        assert _traced_peak(lambda: build(self.N)) <= 2.25 * self.N**2

    @pytest.mark.parametrize(
        "entry", [(255, 256), (256, 255), (0, 514), (514, 0), (511, 512)]
    )
    def test_lone_asymmetric_entry_at_a_tile_edge(self, entry):
        n = 2 * 256 + 3
        adj = np.array(graph_of("multi-ring", node_count=n, ring_levels=2).adjacency)
        adj[entry] = not adj[entry]
        with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
            Graph(adj)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 600),
        density=st.sampled_from([0.0, 0.02, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_accepts_exactly_the_symmetric_matrices(self, n, density, seed, data):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, k=1)
        adj = upper | upper.T
        flips = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=3))
        for i, j in flips:
            if i != j:
                adj[i, j] = not adj[i, j]
        try:
            Graph(adj)
            accepted = True
        except ValueError as error:
            assert str(error) == "adjacency must be symmetric"
            accepted = False
        assert accepted == np.array_equal(adj, adj.T)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 300),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_graphs_match_the_dense_oracles(self, n, density, seed):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, k=1)
        _check_against_dense_oracles(Graph(upper | upper.T))

    def test_complete_is_the_complement_of_the_identity(self):
        for n in [*range(1, 11), 255, 256, 257]:
            complete = graph_of("complete", node_count=n)
            assert np.array_equal(complete.adjacency, ~np.eye(n, dtype=bool)), n


class TestDeterministicFamilies:
    def test_complete(self):
        g = graph_of("complete", node_count=6)
        _check_invariants(g)
        assert g.edge_count == 15
        assert (g.adjacency.sum(axis=1) == 5).all()

    def test_complete_single_node(self):
        g = graph_of("complete", node_count=1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_star(self):
        g = graph_of("star", node_count=7)
        _check_invariants(g)
        assert g.edge_count == 6
        assert g.adjacency.sum(axis=1)[0] == 6
        assert (g.adjacency.sum(axis=1)[1:] == 1).all()

    def test_star_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^a star needs at least 2 nodes$"):
            TopologySpec("star", node_count=1)

    def test_ring(self):
        g = graph_of("ring", node_count=8)
        _check_invariants(g)
        assert g.edge_count == 8
        assert (g.adjacency.sum(axis=1) == 2).all()

    def test_ring_needs_three_nodes(self):
        with pytest.raises(ValueError, match="^a ring needs at least 3 nodes$"):
            TopologySpec("ring", node_count=2)

    def test_core_periphery_endpoints(self):
        for core, endpoint in ((9, "complete"), (1, "star")):
            graph = graph_of("core-periphery", node_count=9, core_size=core)
            assert graph == graph_of(endpoint, node_count=9)

    def test_core_periphery_structure(self):
        g = graph_of("core-periphery", node_count=5, core_size=3)
        _check_invariants(g)
        # complete core of 3 plus two leaves attached round-robin
        assert g.edge_count == 5
        assert sorted(g.adjacency.sum(axis=1).tolist(), reverse=True) == [3, 3, 2, 1, 1]
        core = g.adjacency[:3, :3]
        assert core.sum() == 6

    def test_core_periphery_rejects_bad_core(self):
        for core in (0, 6):
            message = f"core_size must be in [1, 5], got {core}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TopologySpec("core-periphery", node_count=5, core_size=core)

    def test_ring_core_star_endpoints(self):
        for hubs, endpoint in ((1, "star"), (9, "ring")):
            graph = graph_of("ring-core-star", node_count=9, hub_count=hubs)
            assert graph == graph_of(endpoint, node_count=9)

    def test_ring_core_star_edge_count(self):
        # h hubs on a ring, n-h leaves
        g = graph_of("ring-core-star", node_count=10, hub_count=4)
        _check_invariants(g)
        assert g.edge_count == 4 + 6
        g2 = graph_of("ring-core-star", node_count=10, hub_count=2)
        assert g2.edge_count == 1 + 8

    def test_multi_ring_endpoints(self):
        for n, levels, endpoint in ((10, 1, "ring"), (10, 5, "complete"), (100, 50, "complete")):
            graph = graph_of("multi-ring", node_count=n, ring_levels=levels)
            assert graph == graph_of(endpoint, node_count=n)

    def test_multi_ring_regular(self):
        g = graph_of("multi-ring", node_count=12, ring_levels=3)
        _check_invariants(g)
        assert (g.adjacency.sum(axis=1) == 6).all()
        assert g.edge_count == 36

    def test_multi_ring_level_bounds(self):
        with pytest.raises(ValueError, match="^a multi-ring needs at least 3 nodes$"):
            TopologySpec("multi-ring", node_count=2, ring_levels=1)
        for levels in (0, 6):
            message = f"ring_levels must be in [1, 5], got {levels}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TopologySpec("multi-ring", node_count=10, ring_levels=levels)

    def test_multi_ring_matches_networkx_circulant(self):
        for n in range(3, 61):
            for levels in range(1, n // 2 + 1):
                circulant = nx.circulant_graph(n, range(1, levels + 1))
                expected = nx.to_numpy_array(circulant, nodelist=range(n)) > 0
                assert np.array_equal(
                    graph_of("multi-ring", node_count=n, ring_levels=levels).adjacency, expected
                ), (n, levels)

    def test_von_neumann_counts(self):
        g = graph_of("von-neumann", rows=10, cols=10)
        _check_invariants(g)
        assert g.node_count == 100
        assert g.edge_count == 200
        assert (g.adjacency.sum(axis=1) == 4).all()
        assert graph_of("von-neumann", rows=3, cols=3).edge_count == 18

    def test_von_neumann_rejects_small_grid(self):
        for rows, cols in ((2, 5), (5, 2)):
            with pytest.raises(ValueError, match="^torus grid needs rows >= 3 and cols >= 3$"):
                TopologySpec("von-neumann", rows=rows, cols=cols)


class TestEveryKind:
    @settings(max_examples=300, deadline=None)
    @given(spec=topology_specs().filter(lambda s: s.seed is None))
    def test_deterministic_kinds_match_the_edge_loop_oracle(self, spec):
        assert set(REFERENCE_BUILDERS) == {
            name for name, kind in KINDS.items() if "seed" not in kind.parameters
        }
        graph = build_topology(spec)
        assert graph == REFERENCE_BUILDERS[spec.kind](spec)
        if spec.kind == "von-neumann":
            torus = nx.grid_2d_graph(spec.rows, spec.cols, periodic=True)
            torus = nx.relabel_nodes(torus, lambda rc: rc[0] * spec.cols + rc[1])
            expected = nx.to_numpy_array(torus, nodelist=range(graph.node_count)) > 0
            assert np.array_equal(graph.adjacency, expected)

    @settings(max_examples=200, deadline=None)
    @given(spec=topology_specs())
    def test_graph_invariants_and_edge_list_round_trip(self, spec):
        graph = build_topology(spec)
        _check_invariants(graph)
        n = graph.node_count
        indptr, indices = graph.candidates
        candidates = graph.adjacency | np.eye(n, dtype=bool)
        assert indptr.shape == (n + 1,) and indptr[0] == 0
        for node, members in enumerate(candidates):
            # each node's members, itself included, ascending
            row = indices[indptr[node]:indptr[node + 1]]
            assert row.tolist() == np.flatnonzero(members).tolist()
        assert indptr[-1] == indices.size
        _check_against_dense_oracles(graph)
        text = edge_list_text(graph)
        assert edge_list_text(parse_edge_list(text)) == text


class TestRandomizedFamilies:
    def test_scale_free_edge_count(self):
        for seed in (0, 1, 2):
            g = graph_of("scale-free", node_count=100, attach_count=2, seed=seed)
            _check_invariants(g)
            assert g.edge_count == 2 * (100 - 2)

    def test_scale_free_tree(self):
        g = graph_of("scale-free", node_count=5, attach_count=1, seed=3)
        assert g.edge_count == 4

    def test_scale_free_deterministic(self):
        def scale_free(seed):
            return graph_of("scale-free", node_count=60, attach_count=2, seed=seed)

        assert scale_free(9) == scale_free(9)
        assert scale_free(9) != scale_free(10)

    def test_scale_free_rejects_bad_attach(self):
        for attach in (0, 5):
            message = f"attach_count must be in [1, 4], got {attach}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TopologySpec("scale-free", node_count=5, attach_count=attach, seed=0)

    def test_random_extremes(self):
        assert graph_of("random", node_count=30, edge_prob=0.0, seed=1).edge_count == 0
        full = graph_of("random", node_count=30, edge_prob=1.0, seed=1)
        assert full == graph_of("complete", node_count=30)

    def test_random_mean_edge_count(self):
        # binomial(4950, 0.1): mean 495, sd ~21.1
        counts = [
            graph_of("random", node_count=100, edge_prob=0.1, seed=s).edge_count
            for s in range(300)
        ]
        sd = np.sqrt(4950 * 0.1 * 0.9)
        assert abs(np.mean(counts) - 495.0) < 3 * sd / np.sqrt(len(counts))

    def test_random_rejects_bad_prob(self):
        for prob in (-0.1, 1.5):
            message = f"edge_prob must be in [0, 1], got {prob}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TopologySpec("random", node_count=5, edge_prob=prob, seed=0)

    def test_small_world_no_rewire_is_lattice(self):
        lattice = graph_of("small-world", node_count=100, degree=10, rewire_prob=0.0, seed=4)
        assert lattice == graph_of("multi-ring", node_count=100, ring_levels=5)

    def test_small_world_preserves_edge_count(self):
        for seed in (0, 5, 11):
            g = graph_of("small-world", node_count=100, degree=10, rewire_prob=0.1, seed=seed)
            _check_invariants(g)
            assert g.edge_count == 500

    def test_small_world_deterministic(self):
        a = graph_of("small-world", node_count=50, degree=6, rewire_prob=0.2, seed=7)
        b = graph_of("small-world", node_count=50, degree=6, rewire_prob=0.2, seed=7)
        assert a == b

    def test_small_world_rejects_odd_degree(self):
        with pytest.raises(ValueError, match="^degree must be even, got 3$"):
            TopologySpec("small-world", node_count=20, degree=3, rewire_prob=0.1, seed=0)


class TestSpectrum:
    def test_full_spectrum_shape_and_endpoints(self):
        graphs = build_spectrum(100, 80)
        assert len(graphs) == 240
        assert graphs[0] == graph_of("complete", node_count=100)
        assert graphs[79] == graph_of("star", node_count=100)
        assert graphs[80] == graph_of("star", node_count=100)
        assert graphs[160] == graph_of("ring", node_count=100)
        assert graphs[239] == graph_of("complete", node_count=100)

    def test_hub_counts_nondecreasing(self):
        pts = spectrum_points(100, 80)
        hubs = [p.spec.hub_count for p in pts[80:160]]
        assert all(a <= b for a, b in zip(hubs, hubs[1:]))
        cores = [p.spec.core_size for p in pts[:80]]
        assert all(a >= b for a, b in zip(cores, cores[1:]))
        assert cores[0] == 100 and cores[-1] == 1

    def test_small_spectrum_valid(self):
        graphs = build_spectrum(10, 5)
        assert len(graphs) == 15
        for g in graphs:
            _check_invariants(g)
            assert g.node_count == 10

    def test_point_labels_and_segments(self):
        pts = spectrum_points(100, 80)
        assert pts[0].spec.label == "s000-core-periphery-100"
        assert pts[239].spec.label == "s239-multi-ring-50"
        assert pts[0].segment == "complete-to-star"
        assert pts[100].segment == "star-to-ring"
        assert pts[200].segment == "ring-to-complete"
        assert [p.position for p in pts] == list(range(240))

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError):
            spectrum_points(2, 80)
        with pytest.raises(ValueError):
            spectrum_points(100, 1)


# each kind's fields and documented ranges, written out here rather than
# read from the kind table: the oracle for which values a spec accepts
DOCUMENTED_RANGES = {
    "complete": (("node_count",), lambda n: n >= 1),
    "star": (("node_count",), lambda n: n >= 2),
    "ring": (("node_count",), lambda n: n >= 3),
    "core-periphery": (("node_count", "core_size"), lambda n, c: 1 <= c <= n),
    "ring-core-star": (("node_count", "hub_count"), lambda n, h: 1 <= h <= n),
    "multi-ring": (("node_count", "ring_levels"), lambda n, r: n >= 3 and 1 <= r <= n // 2),
    "von-neumann": (("rows", "cols"), lambda rows, cols: rows >= 3 and cols >= 3),
    "scale-free": (
        ("node_count", "attach_count", "seed"), lambda n, m, seed: 1 <= m < n and seed >= 0
    ),
    "random": (
        ("node_count", "edge_prob", "seed"),
        lambda n, p, seed: n >= 1 and 0 <= p <= 1 and seed >= 0,
    ),
    "small-world": (
        ("node_count", "degree", "rewire_prob", "seed"),
        lambda n, k, p, seed: n >= 3 and k % 2 == 0 and 2 <= k < n and 0 <= p <= 1 and seed >= 0,
    ),
}
FLOAT_FIELDS = {"edge_prob", "rewire_prob"}
# values straddling every bound, and values of a type the field refuses
INTEGERS = st.integers(-2, 13)
NUMBERS = st.floats(-0.5, 1.5) | st.sampled_from([0, 1, float("nan"), float("inf")])
WRONG_TYPE = {
    int: st.sampled_from([2.5, 3.0, True, False, "3"]),
    float: st.sampled_from([True, "0.5"]),
}


class TestTopologySpec:
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_constructs_exactly_the_documented_ranges(self, data):
        kind = data.draw(st.sampled_from(TOPOLOGY_KINDS))
        fields, in_range = DOCUMENTED_RANGES[kind]
        assert set(fields) == set(KINDS[kind].parameters)
        values = {
            name: data.draw(NUMBERS if name in FLOAT_FIELDS else INTEGERS) for name in fields
        }
        wrong = data.draw(st.none() | st.sampled_from(fields))
        if wrong is not None:
            values[wrong] = data.draw(WRONG_TYPE[float if wrong in FLOAT_FIELDS else int])
        accepted = wrong is None and in_range(*(values[name] for name in fields))
        try:
            spec = TopologySpec(kind, **values)
        except ValueError:
            assert not accepted, values
            return
        assert accepted, values
        n = values["rows"] * values["cols"] if kind == "von-neumann" else values["node_count"]
        assert build_topology(spec).node_count == n

    @pytest.mark.parametrize("kind, fields, message", [
        ("complete", {"node_count": 0}, "node_count must be >= 1"),
        ("core-periphery", {"node_count": 0, "core_size": 1}, "node_count must be >= 1"),
        ("ring-core-star", {"node_count": 9, "hub_count": 10},
         "hub_count must be in [1, 9], got 10"),
        ("scale-free", {"node_count": 1, "attach_count": 1, "seed": 0}, "node_count must be >= 2"),
        ("small-world", {"node_count": 2, "degree": 2, "rewire_prob": 0.1, "seed": 0},
         "node_count must be >= 3"),
        ("small-world", {"node_count": 20, "degree": 20, "rewire_prob": 0.1, "seed": 0},
         "degree must be in [2, 19], got 20"),
        ("small-world", {"node_count": 20, "degree": 4, "rewire_prob": 1.5, "seed": 0},
         "rewire_prob must be in [0, 1], got 1.5"),
        # types and seeds, checked by field name before the kind's ranges
        ("ring", {"node_count": 2.5}, "node_count must be an integer, got 2.5"),
        ("ring", {"node_count": True}, "node_count must be an integer, got True"),
        ("random", {"node_count": 5, "edge_prob": True, "seed": 0},
         "edge_prob must be a number, got True"),
        ("random", {"node_count": 5, "edge_prob": 0.5, "seed": 1.0},
         "seed must be an integer, got 1.0"),
        ("small-world", {"node_count": 20, "degree": 4, "rewire_prob": 0.1, "seed": -1},
         "seed must be >= 0, got -1"),
    ])
    def test_rejection_messages(self, kind, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TopologySpec(kind, **fields)

    def test_build_matches_constructor(self):
        spec = TopologySpec(kind="multi-ring", node_count=12, ring_levels=3)
        assert build_topology(spec) == _reference_multi_ring(12, 3)

    def test_randomized_kind_requires_seed(self):
        with pytest.raises(ValueError, match="random requires seed"):
            TopologySpec(kind="random", node_count=10, edge_prob=0.5)

    def test_rejects_extra_fields(self):
        with pytest.raises(ValueError, match="ring does not take hub_count"):
            TopologySpec(kind="ring", node_count=10, hub_count=2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology kind 'mystery'"):
            TopologySpec(kind="mystery", node_count=5)

    def test_replace_checks_the_new_spec(self):
        spec = TopologySpec(kind="ring", node_count=10)
        with pytest.raises(ValueError, match="ring requires node_count"):
            replace(spec, node_count=None)
        with pytest.raises(ValueError, match="label must be ASCII"):
            replace(spec, label="ring\u00e9")
        assert not hasattr(spec, "validate")

    def test_von_neumann_uses_grid_fields(self):
        spec = TopologySpec(kind="von-neumann", rows=4, cols=5)
        assert build_topology(spec).node_count == 20

    def test_ids_unique_across_kinds(self):
        specs = [
            TopologySpec(kind="complete", node_count=100),
            TopologySpec(kind="star", node_count=100),
            TopologySpec(kind="ring", node_count=100),
            TopologySpec(kind="core-periphery", node_count=100, core_size=10),
            TopologySpec(kind="ring-core-star", node_count=100, hub_count=8),
            TopologySpec(kind="multi-ring", node_count=100, ring_levels=9),
            TopologySpec(kind="von-neumann", rows=10, cols=10),
            TopologySpec(kind="scale-free", node_count=100, attach_count=2, seed=7),
            TopologySpec(kind="random", node_count=100, edge_prob=0.1, seed=7),
            TopologySpec(kind="small-world", node_count=100, degree=10, rewire_prob=0.1, seed=7),
        ]
        ids = [s.topology_id() for s in specs]
        assert len(set(ids)) == len(ids)

    def test_label_overrides_id(self):
        spec = TopologySpec(kind="ring", node_count=10, label="my-ring")
        assert spec.topology_id() == "my-ring"

    @settings(max_examples=300, deadline=None)
    @given(
        spec=topology_specs(),
        label=st.none() | st.text(string.ascii_letters + string.digits + "-_.=#", min_size=1),
    )
    def test_spec_round_trips_through_plan_line(self, spec, label):
        spec = replace(spec, label=label)
        (parsed,) = parse_topology_line(_topology_line(spec))
        assert parsed == spec
        assert parsed.topology_id() == spec.topology_id()

    def test_float_ids_are_exact(self):
        def ids(*probs):
            return [
                TopologySpec(kind="random", node_count=10, edge_prob=p, seed=1).topology_id()
                for p in probs
            ]

        assert ids(0.1, 0.5, 1.0, 0.0) == [
            "random-n10-p0.1-s1", "random-n10-p0.5-s1", "random-n10-p1-s1", "random-n10-p0-s1"
        ]
        assert ids(0.1234567, 0.1234568) == [
            "random-n10-p0.1234567-s1", "random-n10-p0.1234568-s1"
        ]

    def test_rejects_labels_a_plan_line_cannot_hold(self):
        for label in ("", "two words", "tab\there", "ringé"):
            with pytest.raises(ValueError, match="label"):
                TopologySpec(kind="ring", node_count=10, label=label)

    def test_rejects_labels_that_cannot_name_a_file(self):
        for label in ("a/b", "/abs", "a\\b", "trailing/"):
            with pytest.raises(ValueError, match="label must be free of path separators"):
                TopologySpec(kind="ring", node_count=10, label=label)
        TopologySpec(kind="ring", node_count=10, label="a.b-c_d=e#f")


class TestEdgeLists:
    def test_text_round_trip(self):
        g = graph_of("ring-core-star", node_count=9, hub_count=4)
        assert parse_edge_list(edge_list_text(g)) == g

    def test_text_format(self):
        g = Graph.from_edges(3, [(0, 2), (0, 1)])
        assert edge_list_text(g) == "n 3\n0 1\n0 2\n"

    def test_file_round_trip(self, tmp_path):
        g = graph_of("small-world", node_count=40, degree=6, rewire_prob=0.3, seed=2)
        path = tmp_path / "g.txt"
        path.write_text(edge_list_text(g), encoding="ascii")
        assert parse_edge_list(path.read_text(encoding="ascii")) == g

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_edge_list("not a header\n")
        with pytest.raises(ValueError):
            parse_edge_list("n 3\n2 1\n")  # needs i < j
        with pytest.raises(ValueError):
            parse_edge_list("n 3\n0 1\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("n 3\n0 5\n")
