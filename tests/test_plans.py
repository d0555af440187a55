"""Plan-file parsing, serialization, and the built-in sweep plans."""

import re
from dataclasses import replace

import pytest

from swarmtopo.harness import SuccessCriterion
from swarmtopo.objectives import default_spec
from swarmtopo.plans import (
    BUILTIN_PLAN_NAMES,
    builtin_plan_text,
    parse_plan,
    parse_topology_line,
    plan_to_text,
)

MINIMAL = """
version = 1
base_seed = 42
objectives = shekel
death_fractions = 0, 0.15, 0.30
topology = ring n=100
"""


class TestTopologyLine:
    def test_single_spec(self):
        (spec,) = parse_topology_line("small-world n=100 degree=10 rewire_prob=0.1 seed=7")
        assert spec.kind == "small-world"
        assert spec.node_count == 100
        assert spec.degree == 10
        assert spec.rewire_prob == 0.1
        assert spec.seed == 7

    def test_label(self):
        (spec,) = parse_topology_line("ring n=10 label=my-ring")
        assert spec.label == "my-ring" and spec.topology_id() == "my-ring"

    def test_label_with_path_separator_rejected(self):
        for line in ("ring n=10 label=a/b", "ring n=10 label=a\\b"):
            with pytest.raises(ValueError, match="path separators"):
                parse_topology_line(line)
        with pytest.raises(ValueError, match="path separators"):
            parse_plan(MINIMAL.replace("ring n=100", "ring n=100 label=runs/ring"))

    def test_spectrum_expands(self):
        specs = parse_topology_line("spectrum n=12 per_segment=4")
        assert len(specs) == 12
        assert specs[0].kind == "core-periphery"
        assert specs[-1].kind == "multi-ring"

    def test_errors_name_the_problem(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            parse_topology_line("pentagon n=5")
        with pytest.raises(ValueError, match="degree"):
            parse_topology_line("small-world n=10 degree=abc rewire_prob=0.1 seed=1")
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_topology_line("ring n=10 hubs=3")
        with pytest.raises(ValueError, match="duplicate"):
            parse_topology_line("ring n=10 n=12")


class TestParsePlan:
    def test_minimal_plan_defaults(self):
        plan = parse_plan(MINIMAL)
        assert plan.base_seed == 42
        assert plan.repetitions == 50
        assert plan.alpha == 0.7
        assert plan.death_horizon == 500
        assert plan.max_iters == 1000
        assert plan.death_fractions == (0.0, 0.15, 0.30)
        assert [t.kind for t in plan.topologies] == ["ring"]
        assert [o.name for o in plan.objectives] == ["shekel"]
        assert plan.success == SuccessCriterion()

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + MINIMAL + "\n# trailing\n"
        assert parse_plan(text) == parse_plan(MINIMAL)

    def test_round_trip(self):
        # spectrum-full repeats multi-ring levels: only its labels keep
        # the ids apart
        for name in BUILTIN_PLAN_NAMES:
            plan = parse_plan(builtin_plan_text(name))
            assert parse_plan(plan_to_text(plan)) == plan, name

    def test_round_trip_keeps_exact_floats(self):
        line = "topology = random n=10 edge_prob=0.1234567 seed=1"
        text = MINIMAL.replace("topology = ring n=100", line) + "alpha = 0.123456789\n"
        plan = parse_plan(text)
        written = plan_to_text(plan)
        assert "edge_prob=0.1234567 " in written and "alpha = 0.123456789\n" in written
        assert parse_plan(written) == plan

    def test_non_default_dimension_is_not_written(self):
        # the format has no dimension field: writing rastrigin-10 as
        # "rastrigin" would parse back as rastrigin-2
        plan = parse_plan(builtin_plan_text("reference-grid"))
        plan = replace(plan, objectives=(default_spec("rastrigin", 10),))
        with pytest.raises(ValueError, match="'rastrigin' has dimension 10"):
            plan_to_text(plan)

    def test_success_settings(self):
        text = MINIMAL + "success_mode = value-gap\nsuccess_tolerance = 0.01\n"
        plan = parse_plan(text)
        assert plan.success == SuccessCriterion(mode="value-gap", tolerance=0.01)
        text2 = MINIMAL + "success_tolerance = default\n"
        assert parse_plan(text2).success == SuccessCriterion()

    def test_rejected_inputs_name_the_key(self):
        with pytest.raises(ValueError, match="version"):
            parse_plan(MINIMAL.replace("version = 1", "version = 2"))
        with pytest.raises(ValueError, match="base_seed"):
            parse_plan(MINIMAL.replace("base_seed = 42", ""))
        with pytest.raises(ValueError, match="unknown key 'cadence'"):
            parse_plan(MINIMAL + "cadence = 9\n")
        with pytest.raises(ValueError, match="duplicate key"):
            parse_plan(MINIMAL + "base_seed = 43\n")
        with pytest.raises(ValueError, match="topology"):
            parse_plan(
                "version = 1\nbase_seed = 1\nobjectives = shekel\ndeath_fractions = 0\n"
            )
        with pytest.raises(ValueError, match="objective"):
            parse_plan(MINIMAL.replace("shekel", "banana"))

    def test_bad_topology_line_names_its_line(self):
        # line 6 of MINIMAL, counting its leading blank line; the spec
        # rejects the value before any graph is built
        for line, message in (
            ("ring n=2", "topology 'ring': a ring needs at least 3 nodes"),
            ("ring n=2.5", "topology 'ring': n must be an integer, got '2.5'"),
            (
                "small-world n=10 degree=4 rewire_prob=0.1 seed=-1",
                "topology 'small-world': seed must be >= 0, got -1",
            ),
            ("spectrum n=2 per_segment=3", "spectrum needs node_count >= 3"),
        ):
            with pytest.raises(ValueError, match=f"^line 6: {re.escape(message)}$"):
                parse_plan(MINIMAL.replace("ring n=100", line))

    def test_non_finite_success_tolerance_rejected(self):
        # an infinite tolerance would count every run converged at iteration 1
        for raw, value in (("inf", "inf"), ("1e400", "inf"), ("-inf", "-inf"), ("nan", "nan")):
            with pytest.raises(ValueError, match=f"tolerance must be finite and > 0, got {value}"):
                parse_plan(MINIMAL + f"success_tolerance = {raw}\n")

    def test_duplicate_death_fractions_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate death fractions in plan: \[0\.0\]"):
            parse_plan(MINIMAL.replace("0, 0.15, 0.30", "0, 0, -0"))

    def test_multiple_topology_lines_accumulate(self):
        text = MINIMAL + "topology = star n=100\ntopology = complete n=100\n"
        plan = parse_plan(text)
        assert [t.kind for t in plan.topologies] == ["ring", "star", "complete"]


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_PLAN_NAMES == ("reference-grid", "spectrum-full")
        with pytest.raises(ValueError):
            builtin_plan_text("spectrum-partial")

    def test_spectrum_plan_shape(self):
        plan = parse_plan(builtin_plan_text("spectrum-full"))
        assert len(plan.topologies) == 240
        assert [o.name for o in plan.objectives] == ["shekel"]
        assert plan.death_fractions == (0.0, 0.15, 0.30)
        assert plan.repetitions == 50
        assert plan.base_seed == 42
        # spectrum ids are unique and ordered by position
        ids = [t.topology_id() for t in plan.topologies]
        assert len(set(ids)) == 240
        assert ids[0].startswith("s000-") and ids[-1].startswith("s239-")

    def test_reference_grid_shape(self):
        plan = parse_plan(builtin_plan_text("reference-grid"))
        kinds = [t.kind for t in plan.topologies]
        assert kinds == [
            "complete",
            "star",
            "ring",
            "ring-core-star",
            "multi-ring",
            "von-neumann",
            "scale-free",
            "random",
            "small-world",
        ]
        assert [o.name for o in plan.objectives] == [
            "ackley",
            "griewank",
            "schwefel",
            "rastrigin",
        ]
        hub = plan.topologies[3]
        assert hub.hub_count == 8
        rings = plan.topologies[4]
        assert rings.ring_levels == 9
        grid = plan.topologies[5]
        assert (grid.rows, grid.cols) == (10, 10)
        sw = plan.topologies[8]
        assert (sw.degree, sw.rewire_prob) == (10, 0.1)
        # all nine graphs carry 100 nodes
        from swarmtopo.topology import build_topology

        for spec in plan.topologies:
            assert build_topology(spec).node_count == 100
