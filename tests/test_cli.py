"""End-to-end command-line behavior through main(argv)."""

import json

import pytest

from swarmtopo import cli
from swarmtopo.cli import main
from swarmtopo.harness import parse_results_csv
from swarmtopo.topology import (
    TopologySpec,
    build_topology,
    edge_list_text,
    parse_edge_list,
)

from strategies import graph_of

TINY_PLAN = """\
version = 1
base_seed = 5
repetitions = 2
max_iters = 50
objectives = shekel
death_fractions = 0, 0.3
topology = complete n=10
topology = ring n=10
"""


def _invoke(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "tiny.plan"
    path.write_text(TINY_PLAN, encoding="ascii")
    return path


class TestGenTopology:
    def test_single_graph(self, tmp_path):
        out = tmp_path / "ring.txt"
        assert _invoke(["gen-topology", "--kind", "ring", "--n", "12", "--out", str(out)]) == 0
        assert parse_edge_list(out.read_text(encoding="ascii")) == graph_of("ring", node_count=12)

    def test_seeded_kind(self, tmp_path):
        out = tmp_path / "sf.txt"
        code = _invoke(
            ["gen-topology", "--kind", "scale-free", "--n", "30",
             "--attach-count", "2", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert parse_edge_list(out.read_text(encoding="ascii")).edge_count == 2 * 28

    def test_rewire_flag(self, tmp_path):
        out = tmp_path / "sw.txt"
        code = _invoke(
            ["gen-topology", "--kind", "small-world", "--n", "20", "--degree", "4",
             "--rewire", "0.2", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        spec = TopologySpec(
            kind="small-world", node_count=20, degree=4, rewire_prob=0.2, seed=3
        )
        assert out.read_text(encoding="ascii") == edge_list_text(build_topology(spec))

    def test_spectrum_directory(self, tmp_path):
        out_dir = tmp_path / "family"
        code = _invoke(
            ["gen-topology", "--kind", "spectrum", "--n", "10",
             "--per-segment", "3", "--out-dir", str(out_dir)]
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert len(files) == 9
        assert files[0].startswith("s000-core-periphery")

    def test_usage_errors_exit_1(self, tmp_path):
        assert _invoke(["gen-topology", "--kind", "heptagon", "--n", "5",
                        "--out", str(tmp_path / "x.txt")]) == 1
        assert _invoke(["gen-topology", "--kind", "ring", "--n", "12"]) == 1
        assert _invoke(["gen-topology"]) == 1
        # seeded family without a seed
        assert _invoke(["gen-topology", "--kind", "random", "--n", "10",
                        "--edge-prob", "0.2", "--out", str(tmp_path / "y.txt")]) == 1

    def test_out_of_range_value_exits_1_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "ring.txt"
        assert _invoke(["gen-topology", "--kind", "ring", "--n", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: topology 'ring': a ring needs at least 3 nodes\n"
        assert not out.exists()


class TestMetrics:
    def test_csv_to_stdout(self, tmp_path, capsys):
        ring = tmp_path / "ring9.txt"
        _invoke(["gen-topology", "--kind", "ring", "--n", "9", "--out", str(ring)])
        capsys.readouterr()
        assert _invoke(["metrics", str(ring)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "topology_id,n,edges,L,natural_connectivity,clustering,omega,connected"
        cells = lines[1].split(",")
        assert cells[0] == "ring9"
        assert cells[1] == "9" and cells[2] == "9"
        assert cells[6] == ""  # omega undefined for a plain ring
        assert cells[7] == "true"

    def test_csv_to_file(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        _invoke(["gen-topology", "--kind", "complete", "--n", "6", "--out", str(a)])
        _invoke(["gen-topology", "--kind", "star", "--n", "6", "--out", str(b)])
        out = tmp_path / "metrics.csv"
        assert _invoke(["metrics", str(a), str(b), "--out", str(out)]) == 0
        lines = out.read_text("ascii").splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a,6,15,1.0,")

    def test_parse_failure_names_the_file(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        _invoke(["gen-topology", "--kind", "ring", "--n", "5", "--out", str(good)])
        bad = tmp_path / "bad.txt"
        text = edge_list_text(graph_of("ring", node_count=5))
        bad.write_text(text.replace("0 1", "1 x"), encoding="ascii")
        capsys.readouterr()
        assert _invoke(["metrics", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line ")
        assert "non-integer endpoint in '1 x'" in err

    def test_non_ascii_file_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 2\n0 1 \u00e9\n", encoding="utf-8")
        assert _invoke(["metrics", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_missing_file_exits_2(self, tmp_path):
        assert _invoke(["metrics", str(tmp_path / "ghost.txt")]) == 2


@pytest.fixture
def no_run(monkeypatch):
    """Make any call of ``run_plan`` through the CLI fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("run_plan called")

    monkeypatch.setattr(cli, "run_plan", never)


class TestRunAndSweep:
    def test_run_writes_csv_and_json(self, plan_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _invoke(["run", str(plan_file), "--out-prefix", "out/res"]) == 0
        rows = parse_results_csv((tmp_path / "out" / "res.csv").read_text("ascii"))
        assert len(rows) == 4
        payload = json.loads((tmp_path / "out" / "res.json").read_text("ascii"))
        assert len(payload["results"]) == 4

    def test_out_prefix_keeps_text_after_a_dot(self, plan_file, tmp_path):
        prefix = tmp_path / "sweep-0.3"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(prefix)]) == 0
        names = sorted(path.name for path in tmp_path.iterdir() if path != plan_file)
        assert names == ["sweep-0.3.csv", "sweep-0.3.json"]

    @pytest.mark.parametrize("prefix", [".", "/", "..", "out/.."])
    def test_out_prefix_without_a_name_exits_1_before_running(
        self, plan_file, tmp_path, monkeypatch, capsys, no_run, prefix
    ):
        monkeypatch.chdir(tmp_path)
        assert _invoke(["run", str(plan_file), "--out-prefix", prefix]) == 1
        assert "has no file name" in capsys.readouterr().err

    def test_out_prefix_directory_is_made_before_running(self, plan_file, tmp_path, no_run):
        # a file where the prefix's directory should go: mkdir fails
        # (exit 2) without the plan running
        (tmp_path / "taken").write_text("", encoding="ascii")
        assert _invoke(["run", str(plan_file), "--out-prefix", str(tmp_path / "taken" / "r")]) == 2

    def test_run_deterministic_across_invocations(self, plan_file, tmp_path):
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(first)]) == 0
        assert _invoke(["run", str(plan_file), "--out-prefix", str(second)]) == 0
        assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()

    def test_workers_flag_matches_serial(self, plan_file, tmp_path):
        serial = tmp_path / "s"
        parallel = tmp_path / "p"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(serial)]) == 0
        assert _invoke(["run", str(plan_file), "--out-prefix", str(parallel),
                        "--workers", "2"]) == 0
        assert serial.with_suffix(".csv").read_bytes() == parallel.with_suffix(".csv").read_bytes()

    def test_trace_dir(self, plan_file, tmp_path):
        traces = tmp_path / "traces"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(tmp_path / "t"),
                        "--trace-dir", str(traces)]) == 0
        names = sorted(p.name for p in traces.iterdir())
        # 4 cells x 2 repetitions
        assert len(names) == 8
        assert "complete-n10--shekel--f0--rep000.csv" in names
        assert "ring-n10--shekel--f0.3--rep001.csv" in names
        header = (traces / names[0]).read_text("ascii").splitlines()[0]
        assert header == "iteration,alive_count,best_score"

    def test_trace_names_keep_close_fractions_apart(self, tmp_path):
        plan = tmp_path / "close.plan"
        plan.write_text(
            TINY_PLAN.replace("death_fractions = 0, 0.3", "death_fractions = 0.1234567, 0.1234568")
            .replace("repetitions = 2", "repetitions = 1")
            .replace("topology = complete n=10\n", ""),
            encoding="ascii",
        )
        traces = tmp_path / "traces"
        assert _invoke(["run", str(plan), "--out-prefix", str(tmp_path / "t"),
                        "--trace-dir", str(traces)]) == 0
        assert sorted(p.name for p in traces.iterdir()) == [
            "ring-n10--shekel--f0.1234567--rep000.csv",
            "ring-n10--shekel--f0.1234568--rep000.csv",
        ]

    def test_label_with_path_separator_exits_1_before_running(self, tmp_path):
        plan = tmp_path / "slash.plan"
        plan.write_text(TINY_PLAN.replace("ring n=10", "ring n=10 label=a/b"), encoding="ascii")
        traces = tmp_path / "traces"
        code = _invoke(["run", str(plan), "--out-prefix", str(tmp_path / "t"),
                        "--trace-dir", str(traces)])
        assert code == 1
        assert not (tmp_path / "t.csv").exists()

    def test_out_of_range_topology_exits_1_naming_its_line(self, tmp_path, capsys, no_run):
        plan = tmp_path / "small.plan"
        plan.write_text(TINY_PLAN.replace("ring n=10", "ring n=2"), encoding="ascii")
        assert _invoke(["run", str(plan), "--out-prefix", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 8: topology 'ring': a ring needs at least 3 nodes\n"

    def test_non_ascii_label_exits_1_naming_it(self, tmp_path, capsys):
        plan = tmp_path / "accent.plan"
        plan.write_text(TINY_PLAN.replace("ring n=10", "ring n=10 label=ringé"), encoding="utf-8")
        code = _invoke(["run", str(plan), "--out-prefix", str(tmp_path / "t")])
        assert code == 1
        assert "ringé" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unwritable_trace_exits_2_without_results(self, plan_file, tmp_path, workers):
        traces = tmp_path / "traces"
        # a directory where a trace file should go: writing it fails
        (traces / "ring-n10--shekel--f0.3--rep001.csv").mkdir(parents=True)
        code = _invoke(["run", str(plan_file), "--out-prefix", str(tmp_path / "x"),
                        "--trace-dir", str(traces), "--workers", workers])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_env_seed_override(self, plan_file, tmp_path, monkeypatch):
        base = tmp_path / "b"
        _invoke(["run", str(plan_file), "--out-prefix", str(base)])
        monkeypatch.setenv("SWARMTOPO_BASE_SEED", "777")
        changed = tmp_path / "c"
        _invoke(["run", str(plan_file), "--out-prefix", str(changed)])
        assert base.with_suffix(".csv").read_bytes() != changed.with_suffix(".csv").read_bytes()
        monkeypatch.setenv("SWARMTOPO_BASE_SEED", "not-a-number")
        assert _invoke(["run", str(plan_file), "--out-prefix", str(tmp_path / "d")]) == 1

    def test_env_workers_default(self, plan_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARMTOPO_WORKERS", "2")
        out = tmp_path / "w"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(out)]) == 0
        monkeypatch.setenv("SWARMTOPO_WORKERS", "0")
        assert _invoke(["run", str(plan_file), "--out-prefix", str(tmp_path / "w2")]) == 1

    def test_missing_plan_exits_1(self, tmp_path):
        assert _invoke(["run", str(tmp_path / "ghost.plan")]) == 1

    def test_malformed_plan_exits_1(self, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("version = 9\n", encoding="ascii")
        assert _invoke(["run", str(bad)]) == 1

    def test_sweep_rejects_unknown_name(self):
        assert _invoke(["sweep", "spectrum-partial"]) == 1

    def test_sweep_rejects_zero_repetitions(self, tmp_path, capsys):
        prefix = tmp_path / "res"
        code = _invoke(
            ["sweep", "reference-grid", "--repetitions", "0", "--out-prefix", str(prefix)]
        )
        assert code == 1
        assert "repetitions must be >= 1" in capsys.readouterr().err
        assert not prefix.with_name("res.csv").exists()

    def test_infinite_success_tolerance_exits_1(self, plan_file, tmp_path, capsys):
        plan_file.write_text(TINY_PLAN + "success_tolerance = inf\n", encoding="ascii")
        prefix = tmp_path / "res"
        assert _invoke(["run", str(plan_file), "--out-prefix", str(prefix)]) == 1
        assert "tolerance must be finite and > 0, got inf" in capsys.readouterr().err
        assert not prefix.with_name("res.csv").exists()


class TestPlot:
    def test_svg_output(self, plan_file, tmp_path):
        prefix = tmp_path / "res"
        _invoke(["run", str(plan_file), "--out-prefix", str(prefix)])
        svg = tmp_path / "fig.svg"
        code = _invoke(["plot", str(prefix.with_suffix(".csv")),
                        "--x", "topology-index", "--y", "gsr,winners,trade-off",
                        "--title", "tiny sweep", "--out", str(svg)])
        assert code == 0
        text = svg.read_text("utf-8")
        assert text.startswith("<svg")
        assert "tiny sweep" in text

    def test_geodesic_axis(self, plan_file, tmp_path):
        prefix = tmp_path / "res"
        _invoke(["run", str(plan_file), "--out-prefix", str(prefix)])
        svg = tmp_path / "fig2.svg"
        assert _invoke(["plot", str(prefix.with_suffix(".csv")),
                        "--x", "avg-path-length", "--y", "gs-time",
                        "--out", str(svg)]) == 0

    def test_bad_axis_exits_1(self, plan_file, tmp_path):
        prefix = tmp_path / "res"
        _invoke(["run", str(plan_file), "--out-prefix", str(prefix)])
        assert _invoke(["plot", str(prefix.with_suffix(".csv")),
                        "--x", "vibes", "--out", str(tmp_path / "no.svg")]) == 1

    def test_missing_results_exits_1(self, tmp_path):
        assert _invoke(["plot", str(tmp_path / "none.csv"),
                        "--out", str(tmp_path / "no.svg")]) == 1


class TestTopLevel:
    def test_version_exits_0(self):
        assert _invoke(["--version"]) == 0

    def test_no_command_exits_1(self):
        assert _invoke([]) == 1
