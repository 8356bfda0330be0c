"""Every exported name resolves, and so does every function the benchmark's
layer trace wraps, so that a deleted name fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import nfdof

MODULES = sorted(m.name for m in pkgutil.iter_modules(nfdof.__path__))
LAYER_TRACE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layer_trace.py"


@pytest.mark.parametrize("name", ["nfdof"] + [f"nfdof.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    assert layer_trace.TRACED
    missing = [f"{module}.{function}" for module, function, _ in layer_trace.TRACED
               if not callable(getattr(importlib.import_module(f"nfdof.{module}"),
                                       function, None))]
    assert not missing, f"the layer trace wraps what nfdof lacks: {missing}"
