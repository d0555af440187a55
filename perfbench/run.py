"""swarmtopo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the workload's pass is repeated
for ``--seconds`` and the end-to-end metrics are reported; with
``--trace 1`` a traced set-up is followed by traced passes alternating
with untraced ones for ``--seconds`` (at least two traced passes), and
the per-layer metrics are reported.  Every pass's output digest is checked: against the pinned
golden digest at the default seed, against the run's first pass at any
other seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  Spans and the run record are written
under ``perfbench/out/``.  Exit codes: 0 correct, 1 a pass failed or
its output differed, 2 the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import hostinfo  # noqa: E402  (imports nothing of numpy)

# One BLAS thread, set before numpy loads: the workloads run with
# workers=1, and on a 2-core host a second BLAS thread only competes
# with whatever else runs there.
for _var in hostinfo.BLAS_THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUP_PROBES = 4
TRACED_PASSES = 2  # at least; their counters must agree

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def import_program() -> None:
    """Import swarmtopo from this checkout's ``src`` and nowhere else."""
    import swarmtopo

    origin = Path(swarmtopo.__file__).resolve()
    if (ROOT / "src").resolve() not in origin.parents:
        raise ImportError(f"swarmtopo imported from {origin}, not from this checkout")


def timed_setup(workload, seed: int):
    start = time.perf_counter()
    import_program()
    inputs = workload.setup(seed)
    return inputs, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up seconds of a fresh interpreter, as the main process pays them."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def run_pass(workload, inputs) -> dict:
    start = time.perf_counter()
    try:
        digest, items = workload.run_pass(inputs)
        error = None
    except Exception as exc:  # a raising pass is counted as failed; the run goes on
        digest, items, error = None, 0, f"{type(exc).__name__}: {exc}"
    return {"wall_s": time.perf_counter() - start, "digest": digest,
            "items": items, "error": error}


def run_passes(workload, inputs, seconds: float) -> list[dict]:
    """Passes for ``seconds``, at least two so that they can be compared."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, inputs))
    return passes


def mark_correct(passes: list[dict], reference: str | None) -> None:
    """Flag each pass ``ok``: no error and the reference digest (the
    first pass's when there is no golden one)."""
    if reference is None:
        reference = passes[0]["digest"]
    for p in passes:
        p["ok"] = p["error"] is None and p["digest"] == reference


def untraced_metrics(args, workload, inputs, setup_s: float) -> tuple[dict, list[dict]]:
    """End-to-end values by metric name, and every pass made."""
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = run_passes(workload, inputs, args.seconds)
    mark_correct(passes, golden_digest(args))
    good = [p for p in passes if p["ok"]] or passes
    wall = statistics.median(p["wall_s"] for p in good)
    attempted = len(passes)
    failed = sum(not p["ok"] for p in passes)
    values = {
        "wall_s": wall,
        "items_per_s": good[0]["items"] / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return values, passes


def traced_pass(workload, inputs, trace_id: str) -> tuple[Tracer, dict]:
    tracer = Tracer(trace_id)
    with layers.instrumented(tracer):
        root = tracer.begin(layers.ROOT_SPAN)
        try:
            result = run_pass(workload, inputs)
        finally:
            tracer.end(root)
    return tracer, result


def check_self_time_sum(spans) -> str | None:
    """The layers' self times must add up to the pass's traced wall time."""
    totals = self_times(spans)
    unreported = sorted(set(totals) - set(layers.SELF_TIME_METRICS))
    if unreported:
        return f"spans without a self-time metric: {unreported}"
    wall = spans[0][2] - spans[0][1]
    if abs(sum(totals.values()) - wall) > 1e-6 * max(1.0, wall):
        return f"self times add up to {sum(totals.values())}, traced wall is {wall}"
    return None


def traced_metrics(args, workload, inputs) -> tuple[dict, list[dict]]:
    """Per-layer values by metric name, and every pass made."""
    setup_tracer = Tracer("setup")
    with layers.instrumented(setup_tracer):
        inputs = workload.setup(args.seed)
    # traced and untraced passes alternate (T U T U T ...), so a drift in
    # host speed biases neither side of the overhead
    untraced, tracers, traced = [], [], []
    start = time.perf_counter()
    while True:
        tracer, result = traced_pass(workload, inputs, f"pass-{len(tracers)}")
        tracers.append(tracer)
        traced.append(result)
        if len(traced) >= TRACED_PASSES and time.perf_counter() - start >= args.seconds:
            break
        untraced.append(run_pass(workload, inputs))
    passes = untraced + traced
    mark_correct(passes, golden_digest(args))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}.spans.jsonl", "w", encoding="ascii") as fh:
        for tracer in [setup_tracer] + tracers:
            tracer.write_jsonl(fh)

    per_pass = []
    for tracer, result in zip(tracers, traced):
        problem = check_self_time_sum(tracer.spans)
        if problem is not None and result["ok"]:
            result["ok"], result["error"] = False, problem
        if result["ok"]:
            per_pass.append(layers.pass_metrics(tracer.spans))
    for name in layers.COUNTERS:
        seen = {m[name] for m in per_pass}
        if len(seen) > 1:
            for result in traced:
                result["ok"] = False
                result["error"] = f"counter {name} differs between traced passes: {sorted(seen)}"
            per_pass = []
            break

    values = layers.setup_metrics(setup_tracer.spans)
    if per_pass:
        for name in per_pass[0]:
            if name in layers.COUNTERS:
                values[name] = per_pass[0][name]
            else:
                values[name] = statistics.fmean(m[name] for m in per_pass)
        untraced_wall = statistics.fmean(p["wall_s"] for p in untraced)
        overhead = values["trace.wall_s"] - untraced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / untraced_wall
    return values, passes


def golden_digest(args) -> str | None:
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        return workloads.GOLDEN[args.workload]
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for smoke tests; no golden digest applies",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    steal_before = hostinfo.steal_ticks()
    try:
        inputs, setup_s = timed_setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import swarmtopo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        values, passes = traced_metrics(args, workload, inputs)
        units = layers.PER_LAYER_UNITS
    else:
        values, passes = untraced_metrics(args, workload, inputs, setup_s)
        units = END_TO_END_UNITS
    steal = hostinfo.steal_frac(steal_before, hostinfo.steal_ticks())
    values["host.steal_frac"] = steal or 0.0

    failed = sum(not p["ok"] for p in passes)
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "env": hostinfo.environment(ROOT, args.seed),
        "host_steal_frac": steal,
        "passes": passes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.run.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in passes:
        if not p["ok"]:
            print(f"pass failed: digest {p['digest']} error {p['error']}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "host_steal_frac": steal}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
