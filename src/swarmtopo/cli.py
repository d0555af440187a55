"""Command-line surface.

Subcommands: gen-topology (edge-list files), metrics (graph metrics
CSV), run (execute a plan file), sweep (run a built-in plan), plot
(results CSV to SVG).  Exit codes: 0 success, 1 usage or validation
error, 2 runtime failure.

Environment overrides: SWARMTOPO_BASE_SEED replaces the plan's base
seed, SWARMTOPO_WORKERS supplies the default worker count.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .graph_metrics import compute_metrics
from .harness import results_to_csv, results_to_json, run_plan
from .plans import (
    BUILTIN_PLAN_NAMES,
    builtin_plan_text,
    parse_plan,
    parse_topology_line,
)
from .svgplot import PlotSpec, X_AXES, Y_AXES, render_results_svg
from .topology import (
    PARAMETERS,
    TOPOLOGY_KINDS,
    build_topology,
    edge_list_text,
    format_number,
    parse_edge_list,
)
from .harness import parse_results_csv

__all__ = ["main"]

ENV_BASE_SEED = "SWARMTOPO_BASE_SEED"
ENV_WORKERS = "SWARMTOPO_WORKERS"

METRICS_COLUMNS = (
    "topology_id",
    "n",
    "edges",
    "L",
    "natural_connectivity",
    "clustering",
    "omega",
    "connected",
)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _optional_float(value) -> str:
    return "" if value is None else repr(float(value))


def _default_workers() -> int:
    raw = os.environ.get(ENV_WORKERS)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_WORKERS} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{ENV_WORKERS} must be >= 1, got {workers}")
    return workers


def _apply_env_base_seed(plan):
    raw = os.environ.get(ENV_BASE_SEED)
    if raw is None:
        return plan
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_BASE_SEED} must be an integer, got {raw!r}") from None
    return replace(plan, base_seed=seed)


def _cmd_gen_topology(args) -> int:
    pieces = [args.kind]
    keys = [p.key for p in PARAMETERS.values()] + ["per_segment"]
    pieces.extend(
        f"{key}={getattr(args, key)}" for key in keys if getattr(args, key) is not None
    )
    specs = parse_topology_line(" ".join(pieces))
    if args.kind == "spectrum":
        if args.out_dir is None:
            raise ValueError("spectrum generation requires --out-dir")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"{spec.topology_id()}.txt" for spec in specs]
    elif args.out is None:
        raise ValueError("single-topology generation requires --out")
    else:
        paths = [args.out]
    for spec, path in zip(specs, paths):
        graph = build_topology(spec)
        Path(path).write_text(edge_list_text(graph), encoding="ascii")
        print(
            f"{spec.topology_id()} nodes={graph.node_count} "
            f"edges={graph.edge_count} -> {path}"
        )
    return 0


def _cmd_metrics(args) -> int:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for path in args.paths:
        try:
            graph = parse_edge_list(Path(path).read_text(encoding="ascii"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        metrics = compute_metrics(graph, rng=args.seed, omega_samples=args.omega_samples)
        writer.writerow(
            [
                Path(path).stem,
                str(metrics.node_count),
                str(metrics.edge_count),
                _optional_float(metrics.average_path_length),
                repr(metrics.natural_connectivity),
                repr(metrics.clustering_coefficient),
                _optional_float(metrics.small_world_ness),
                "true" if metrics.connected else "false",
            ]
        )
    text = buffer.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote metrics for {len(args.paths)} graphs -> {args.out}")
    return 0


def _trace_writer(trace_dir: str):
    """``run_plan``'s trace callback: one CSV per run in ``trace_dir``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)

    def write(topology_id, objective_name, death_fraction, repetition, trace):
        name = (
            f"{topology_id}--{objective_name}--f{format_number(death_fraction)}"
            f"--rep{repetition:03d}.csv"
        )
        alive_counts, best_scores = trace
        with open(directory / name, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iteration", "alive_count", "best_score"])
            for iteration, (count, score) in enumerate(zip(alive_counts, best_scores), 1):
                writer.writerow([iteration, count, repr(score)])

    return write


def _execute_plan(plan, args) -> int:
    plan = _apply_env_base_seed(plan)
    workers = args.workers if args.workers is not None else _default_workers()
    # the prefix is checked and its directory made before the plan runs,
    # so a bad prefix costs no results
    prefix = Path(args.out_prefix)
    if prefix.name in ("", ".."):
        raise ValueError(f"--out-prefix {args.out_prefix!r} has no file name")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    # appended, not substituted: a dot in the prefix is part of the name
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    on_trace = _trace_writer(args.trace_dir) if args.trace_dir else None
    rows = run_plan(plan, workers=workers, on_trace=on_trace)
    csv_path.write_text(results_to_csv(rows), encoding="ascii")
    json_path.write_text(results_to_json(rows), encoding="ascii")
    print(f"wrote {len(rows)} rows -> {csv_path} and {json_path}")
    return 0


def _cmd_run(args) -> int:
    try:
        text = Path(args.plan).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read plan file: {exc}") from None
    plan = parse_plan(text)
    return _execute_plan(plan, args)


def _cmd_sweep(args) -> int:
    plan = parse_plan(builtin_plan_text(args.name))
    if args.repetitions is not None:
        plan = replace(plan, repetitions=args.repetitions)
    return _execute_plan(plan, args)


def _cmd_plot(args) -> int:
    try:
        text = Path(args.results).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read results file: {exc}") from None
    rows = parse_results_csv(text)
    spec = PlotSpec(
        x_axis=args.x,
        y_axes=tuple(part.strip() for part in args.y.split(",") if part.strip()),
        title=args.title,
    )
    svg = render_results_svg(rows, spec)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"plotted {len(rows)} rows -> {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="swarmtopo",
        description="Swarm optimization over explicit communication topologies.",
    )
    parser.add_argument("--version", action="version", version=f"swarmtopo {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = commands.add_parser("gen-topology", help="write topology edge-list files")
    gen.add_argument(
        "--kind",
        required=True,
        help="topology kind (" + ", ".join(TOPOLOGY_KINDS + ("spectrum",)) + ")",
    )
    for name, param in PARAMETERS.items():
        # rewire_prob keeps its historical short flag
        flag = "--rewire" if name == "rewire_prob" else "--" + param.key.replace("_", "-")
        gen.add_argument(flag, dest=param.key, type=param.type)
    gen.add_argument("--per-segment", dest="per_segment", type=int)
    gen.add_argument("--out", help="output edge-list path (single topology)")
    gen.add_argument("--out-dir", dest="out_dir", help="output directory (spectrum)")
    gen.set_defaults(func=_cmd_gen_topology)

    met = commands.add_parser("metrics", help="compute graph metrics as CSV")
    met.add_argument("paths", nargs="+", help="edge-list files")
    met.add_argument("--out", help="output CSV path (default stdout)")
    met.add_argument(
        "--omega-samples",
        dest="omega_samples",
        type=int,
        default=10,
        help="random reference graphs for small-world-ness (default 10)",
    )
    met.add_argument("--seed", type=int, default=0, help="seed for the omega sampler")
    met.set_defaults(func=_cmd_metrics)

    run_cmd = commands.add_parser("run", help="execute a plan file")
    run_cmd.add_argument("plan", help="plan file path")
    sweep = commands.add_parser(
        "sweep", help="run a built-in plan: " + ", ".join(BUILTIN_PLAN_NAMES)
    )
    sweep.add_argument("name", choices=BUILTIN_PLAN_NAMES)
    sweep.add_argument(
        "--repetitions", type=int, help="override the plan's repetition count"
    )
    for sub in (run_cmd, sweep):
        sub.add_argument(
            "--out-prefix",
            dest="out_prefix",
            default="results",
            help="output prefix; writes <prefix>.csv and <prefix>.json",
        )
        sub.add_argument(
            "--workers",
            type=int,
            help=f"parallel worker processes (default 1, or {ENV_WORKERS})",
        )
        sub.add_argument(
            "--trace-dir",
            dest="trace_dir",
            help="write per-repetition iteration traces into this directory",
        )
    run_cmd.set_defaults(func=_cmd_run)
    sweep.set_defaults(func=_cmd_sweep)

    plot = commands.add_parser("plot", help="render a results CSV as an SVG scatter")
    plot.add_argument("results", help="results CSV path")
    plot.add_argument("--x", default="topology-index", help=f"one of {X_AXES}")
    plot.add_argument(
        "--y", default="gsr", help=f"comma-separated panels from {Y_AXES}"
    )
    plot.add_argument("--title")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # runtime failure contract: exit 2
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
