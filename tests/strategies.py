"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from swarmtopo.topology import TOPOLOGY_KINDS, TopologySpec


@st.composite
def topology_specs(draw):
    """A valid spec of any kind, at most 40 nodes."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    if kind == "von-neumann":
        return TopologySpec(kind, rows=draw(st.integers(3, 6)), cols=draw(st.integers(3, 6)))
    smallest = {"star": 2, "ring": 3, "multi-ring": 3, "scale-free": 2, "small-world": 3}
    n = draw(st.integers(smallest.get(kind, 1), 40))
    seed = draw(st.integers(0, 2**16))
    params = {
        "core-periphery": lambda: {"core_size": draw(st.integers(1, n))},
        "ring-core-star": lambda: {"hub_count": draw(st.integers(1, n))},
        "multi-ring": lambda: {"ring_levels": draw(st.integers(1, n // 2))},
        "scale-free": lambda: {"attach_count": draw(st.integers(1, n - 1)), "seed": seed},
        "random": lambda: {"edge_prob": draw(st.floats(0.0, 1.0)), "seed": seed},
        "small-world": lambda: {
            "degree": 2 * draw(st.integers(1, (n - 1) // 2)),
            "rewire_prob": draw(st.floats(0.0, 1.0)),
            "seed": seed,
        },
    }.get(kind, dict)()
    return TopologySpec(kind, node_count=n, **params)

