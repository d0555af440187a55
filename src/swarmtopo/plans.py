"""Plan files: a line-oriented key=value format for experiment plans.

Example::

    version = 1
    base_seed = 42
    repetitions = 50
    objectives = shekel
    death_fractions = 0, 0.15, 0.30
    topology = small-world n=100 degree=10 rewire_prob=0.1 seed=7
    topology = spectrum n=100 per_segment=80

Scalar keys appear once; ``topology`` repeats, one graph per line (a
``spectrum`` line expands to its full graph family).  A topology
line's kinds, keys and value types come from the kind table in
:mod:`swarmtopo.topology`; ``label=`` sets the spec's label, which is
its topology id.  Blank lines and ``#`` comments are ignored.  Unknown
keys and missing required keys are rejected by name.

:func:`plan_to_text` writes every graph on its own line, labels
included, and floats in their shortest exact text, so parsing its
output gives back an equal plan.
"""

from __future__ import annotations

from .harness import ExperimentPlan, SuccessCriterion
from .objectives import default_spec
from .topology import (
    KINDS,
    PARAMETERS,
    TOPOLOGY_KINDS,
    TopologySpec,
    format_number,
    spectrum_points,
)

__all__ = [
    "PLAN_VERSION",
    "parse_topology_line",
    "parse_plan",
    "plan_to_text",
    "BUILTIN_PLAN_NAMES",
    "builtin_plan_text",
]

PLAN_VERSION = 1

# plan-line key -> (spec field, type)
_TOPOLOGY_KEYS = {p.key: (name, p.type) for name, p in PARAMETERS.items()}
_TOPOLOGY_KEYS["label"] = ("label", str)
_SPECTRUM_KEYS = {"n": ("node_count", int), "per_segment": ("per_segment", int)}

_SCALAR_KEYS = {
    "version", "base_seed", "repetitions", "alpha", "death_horizon",
    "max_iters", "success_mode", "success_tolerance",
    "objectives", "death_fractions",
}
_REQUIRED_KEYS = ("version", "base_seed", "objectives", "death_fractions")
# optional numeric keys, each named after its ExperimentPlan field
_OPTIONAL_NUMBERS = {"repetitions": int, "alpha": float, "death_horizon": int, "max_iters": int}


def _parse_params(parts: list[str], context: str, keys: dict) -> dict:
    params = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"{context}: expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in keys:
            raise ValueError(f"{context}: unknown parameter {key!r}")
        field, convert = keys[key]
        if field in params:
            raise ValueError(f"{context}: duplicate parameter {key!r}")
        try:
            params[field] = convert(raw)
        except ValueError:
            expected = "an integer" if convert is int else "a number"
            raise ValueError(f"{context}: {key} must be {expected}, got {raw!r}") from None
    return params


def parse_topology_line(text: str) -> list[TopologySpec]:
    """Parse one ``topology`` value into specs.

    ``<kind> key=value ...`` yields one spec; kind ``spectrum`` (keys
    ``n`` and ``per_segment``) expands into the whole family.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty topology line")
    kind = parts[0]
    context = f"topology {kind!r}"
    if kind == "spectrum":
        params = _parse_params(parts[1:], context, _SPECTRUM_KEYS)
        if len(params) != len(_SPECTRUM_KEYS):
            raise ValueError("topology 'spectrum' requires n and per_segment")
        return [p.spec for p in spectrum_points(**params)]
    if kind not in KINDS:
        raise ValueError(
            f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS + ('spectrum',)}"
        )
    return [TopologySpec(kind=kind, **_parse_params(parts[1:], context, _TOPOLOGY_KEYS))]


def parse_plan(text: str) -> ExperimentPlan:
    """Parse plan text into a validated :class:`ExperimentPlan`."""
    scalars: dict[str, str] = {}
    topology_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "topology":
            topology_lines.append(value)
            continue
        if key not in _SCALAR_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in scalars:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"line {lineno}: empty value for {key!r}")
        scalars[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in scalars]
    if missing:
        raise ValueError(f"plan is missing required keys: {missing}")
    if not topology_lines:
        raise ValueError("plan is missing required keys: ['topology']")

    def _number(key: str, convert):
        try:
            return convert(scalars[key])
        except ValueError:
            expected = "an integer" if convert is int else "a number"
            raise ValueError(f"{key} must be {expected}, got {scalars[key]!r}") from None

    version = _number("version", int)
    if version != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {version}; expected {PLAN_VERSION}")

    topologies: list[TopologySpec] = []
    for line in topology_lines:
        topologies.extend(parse_topology_line(line))

    objectives = []
    for name in (part.strip() for part in scalars["objectives"].split(",")):
        if not name:
            raise ValueError("objectives: empty entry")
        objectives.append(default_spec(name))

    fractions = []
    for part in (p.strip() for p in scalars["death_fractions"].split(",")):
        if not part:
            raise ValueError("death_fractions: empty entry")
        try:
            fractions.append(float(part))
        except ValueError:
            raise ValueError(f"death_fractions: not a number: {part!r}") from None

    # only the keys the plan sets: the dataclasses own every default
    success = {}
    if "success_mode" in scalars:
        success["mode"] = scalars["success_mode"]
    tolerance_raw = scalars.get("success_tolerance", "default")
    if tolerance_raw != "default":
        try:
            success["tolerance"] = float(tolerance_raw)
        except ValueError:
            raise ValueError(
                f"success_tolerance must be a number or 'default', got {tolerance_raw!r}"
            ) from None
    settings = {
        key: _number(key, convert)
        for key, convert in _OPTIONAL_NUMBERS.items()
        if key in scalars
    }
    return ExperimentPlan(
        topologies=tuple(topologies),
        objectives=tuple(objectives),
        death_fractions=tuple(fractions),
        base_seed=_number("base_seed", int),
        success=SuccessCriterion(**success),
        **settings,
    )


def _topology_line(spec: TopologySpec) -> str:
    parts = [spec.kind]
    parts.extend(
        f"{PARAMETERS[name].key}={format_number(getattr(spec, name))}"
        for name in KINDS[spec.kind].parameters
    )
    if spec.label is not None:
        parts.append(f"label={spec.label}")
    return " ".join(parts)


def plan_to_text(plan: ExperimentPlan) -> str:
    """Serialize a plan back to the file format.

    Spectrum expansions are written out graph by graph, labels
    included, so parsing the output reproduces the plan exactly.  The
    format names objectives only, so an objective whose dimension is
    not its name's default is rejected rather than dropped.
    """
    for objective in plan.objectives:
        if objective.dimension != default_spec(objective.name).dimension:
            raise ValueError(
                f"objective {objective.name!r} has dimension {objective.dimension}; "
                "a plan file holds only each objective's default dimension"
            )
    lines = [
        f"version = {PLAN_VERSION}",
        f"base_seed = {plan.base_seed}",
        f"repetitions = {plan.repetitions}",
        f"alpha = {format_number(plan.alpha)}",
        f"death_horizon = {plan.death_horizon}",
        f"max_iters = {plan.max_iters}",
        f"success_mode = {plan.success.mode}",
        "success_tolerance = "
        + ("default" if plan.success.tolerance is None else repr(plan.success.tolerance)),
        "objectives = " + ", ".join(obj.name for obj in plan.objectives),
        "death_fractions = " + ", ".join(repr(f) for f in plan.death_fractions),
    ]
    lines.extend(f"topology = {_topology_line(spec)}" for spec in plan.topologies)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in sweeps

_SPECTRUM_PLAN = """\
# Full spectrum sweep: 240 graphs, 4-D Shekel, three hostility levels.
version = 1
base_seed = 42
repetitions = 50
objectives = shekel
death_fractions = 0, 0.15, 0.30
topology = spectrum n=100 per_segment=80
"""

_REFERENCE_PLAN = """\
# Nine reference topologies, four minimization objectives, three
# hostility levels.
version = 1
base_seed = 42
repetitions = 50
objectives = ackley, griewank, schwefel, rastrigin
death_fractions = 0, 0.15, 0.30
topology = complete n=100
topology = star n=100
topology = ring n=100
topology = ring-core-star n=100 hub_count=8
topology = multi-ring n=100 ring_levels=9
topology = von-neumann rows=10 cols=10
topology = scale-free n=100 attach_count=2 seed=7
topology = random n=100 edge_prob=0.1 seed=7
topology = small-world n=100 degree=10 rewire_prob=0.1 seed=7
"""

_BUILTIN_PLANS = {
    "spectrum-full": _SPECTRUM_PLAN,
    "reference-grid": _REFERENCE_PLAN,
}

BUILTIN_PLAN_NAMES = tuple(sorted(_BUILTIN_PLANS))


def builtin_plan_text(name: str) -> str:
    """Text of a named built-in sweep plan."""
    if name not in _BUILTIN_PLANS:
        raise ValueError(
            f"unknown built-in plan {name!r}; expected one of {BUILTIN_PLAN_NAMES}"
        )
    return _BUILTIN_PLANS[name]
