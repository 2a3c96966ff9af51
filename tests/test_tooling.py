"""Benchmark tooling: the tracer's layer targets must exist in the package.

``perfbench/run.py --trace 1`` patches these functions by name; a renamed
or deleted target would otherwise only show as a missing layer count.
"""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = [t for group in tracer.LAYERS.values() for t in group]
    targets += list(tracer.LOCAL_LAYERS.values())
    assert ("rydtherm.radial", "RadialSolver.j0_average") in targets
    assert ("rydtherm.radial", "legendre_moment") in targets
    for module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"
