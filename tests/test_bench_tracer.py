"""Guard for the names the benchmark tracer wraps: ``perfbench/tracing.py``
looks floqnet's public functions up by name, so deleting or renaming one
breaks the benchmark.  The tracer must install on this checkout and
restore every reference it patched."""
import importlib.util
import sys
from pathlib import Path

import floqnet
import floqnet.cli  # noqa: F401  (the tracer patches the CLI module too)

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
