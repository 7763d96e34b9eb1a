"""Guard for the names the benchmark tracer wraps: ``perfbench/tracing.py``
looks floqnet's public functions up by name, so deleting or renaming one
breaks the benchmark.  The tracer must install on this checkout and
restore every reference it patched, and a traced model must compute what
the model does."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import floqnet
import floqnet.cli  # noqa: F401  (the tracer patches the CLI module too)
from floqnet.models import MODEL_NAMES, get_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "floqnet_bench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def floqnet_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "floqnet" or name.startswith("floqnet.")}


def test_tracer_installs_and_restores_every_name():
    before = floqnet_namespaces()
    tracer = load_tracing().Tracer()
    tracer.install(floqnet)
    patched = list(tracer._patches)
    try:
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    after = floqnet_namespaces()
    for name, namespace in before.items():
        assert all(after[name][attr] is value
                   for attr, value in namespace.items()), name


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_traced_model_returns_what_the_model_does(name):
    # The tracer swaps a model's per-state field and Jacobian through
    # dataclasses.replace; the batch forms must come through untouched.
    model = get_model(name)
    tracer = load_tracing().Tracer()
    traced = tracer.model(model)
    x = model.default_initial
    assert np.array_equal(traced.field(x), model.field(x))
    assert np.array_equal(traced.jacobian(x), model.jacobian(x))
    assert traced.node_field is model.node_field
    assert traced.node_jacobian is model.node_jacobian
    assert tracer.counts["models.field_calls"] == 1
    assert tracer.counts["models.jacobian_calls"] == 1
