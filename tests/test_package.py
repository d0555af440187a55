"""The package's public surface, and the names the benchmark wraps."""

import importlib
from pathlib import Path
import pkgutil
from types import SimpleNamespace

import pytest

import swarmtopo

MODULES = ["swarmtopo"] + [
    f"swarmtopo.{info.name}" for info in pkgutil.iter_modules(swarmtopo.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # raises on a name that does not resolve
    public = importlib.import_module(module).__all__
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(public)


def test_benchmark_wraps_and_restores_its_names(monkeypatch):
    # the traced benchmark run patches swarmtopo names by attribute; a
    # renamed or removed one fails here with an AttributeError
    from swarmtopo import engine, graph_metrics, harness, objectives, plans, topology

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    owners = (engine, graph_metrics, harness, objectives, objectives.ObjectiveSpec,
              plans, topology)
    before = [dict(vars(owner)) for owner in owners]
    tracer = SimpleNamespace(wrap=lambda name, function, attrs=None: function)
    with layers.instrumented(tracer):
        assert engine.make_rand_source is not before[0]["make_rand_source"]
    for owner, saved in zip(owners, before):
        assert vars(owner).keys() == saved.keys()
        for attr, original in saved.items():
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
