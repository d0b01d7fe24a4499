"""The benchmark's span tracer patches package functions by name; every
name it lists must still exist, so a rename fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for module_name, func_name, _ in traced:
        module = importlib.import_module(f"cubicmaps.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
