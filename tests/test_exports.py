"""Every exported name resolves, and so does every function the benchmark's
layer trace wraps, so that a deleted name fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

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


# a sweep, then the same sweep with every traced function wrapped
_TRACED_SWEEP = """
import importlib.util, pathlib, sys
from nfdof import cli
spec = importlib.util.spec_from_file_location("layer_trace", sys.argv[1])
layer_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_trace)
argv = ["sweep", "--config", sys.argv[2], "--out", sys.argv[3]]
codes, out = [cli.main(argv)], pathlib.Path(sys.argv[3])
untraced = out.read_bytes()
with layer_trace.Tracer().installed() as tracer:
    codes.append(cli.main(argv))
print(codes, out.read_bytes() == untraced, len(tracer.spans))
"""


def test_traced_sweep_writes_the_same_bytes(tmp_path):
    """The layer trace finds each traced module in ``sys.modules``, whether
    its body has run or not: in a fresh process that has run nothing but a
    sweep, the same sweep inside ``Tracer().installed()`` exits 0 and
    writes the same bytes."""
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": {
        "parameter": "theta_T", "start": -3.14, "stop": 3.14, "steps": 721}}))
    src = str(pathlib.Path(nfdof.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SWEEP, str(LAYER_TRACE), str(config),
         str(tmp_path / "sweep.csv")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[0, 0] True 1\n")
