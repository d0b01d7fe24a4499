"""The benchmark's span tracer patches package functions by name; every
name it lists must still exist, so a rename fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import cubicmaps.growth as growth
from cubicmaps.fixtures import cube_map, cube_seed

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = _tracing().TRACED
    assert traced
    for module_name, func_name, _ in traced:
        module = importlib.import_module(f"cubicmaps.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_grow_call_counts():
    # The benchmark's expected-call contract for one growth run: one closure,
    # labelling and Hamiltonian filter per map, one insertion, rewrite and
    # compatible-cover draw per step, every draw accepted.  ``grow`` is
    # called through its module, whose attribute the tracer patches.
    with _tracing().Tracer() as tracer:
        growth.grow(cube_map(), cube_seed(), 20, 42)
    per_fn, counters = tracer.take()
    calls = {name: rec["calls"] for name, rec in per_fn.items()}
    for name in ("closure.cover_closure", "labelling.closure_labellings",
                 "labelling.hamiltonian_covers"):
        assert calls[name] == 21, name
    for name in ("growth.insert_edge", "growth.rewrite_cover", "growth.compatible_cover"):
        assert calls[name] == 20, name
    assert counters["growth.draws"] == counters["growth.insertions"] == 20
