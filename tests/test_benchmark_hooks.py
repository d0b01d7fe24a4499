"""Tier-1 makes the checks of a traced benchmark run, with the benchmark's
own workloads, tracer and pins: every pinned output of each workload's pool
holds, one pass's call counts equal ``expected_calls()``, and a second pass
repeats the first's calls and counters.  ``test_grow_call_counts`` adds
the one growth invariant that contract does not hold.  The tracer patches
package functions by name, so a rename fails
``test_traced_functions_resolve`` by name and not only here or in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cubicmaps.growth as growth
from cubicmaps.fixtures import cube_map, cube_seed, theta_map, theta_seed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    """Load ``perfbench/<name>.py``, registered before it runs so that its
    dataclasses can find their module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = _perfbench("tracing").TRACED
    assert traced
    for module_name, func_name, _ in traced:
        module = importlib.import_module(f"cubicmaps.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


@pytest.mark.parametrize("name", ("grow_cube", "corpus_check", "insert_walk"))
def test_workload_contract(name, tmp_path):
    workload = _perfbench("workloads").load(name, tmp_path)
    tracer = _perfbench("tracing").Tracer()
    takes = []
    for _ in range(2):
        with tracer:
            result = workload.run_pass(workload.pool)
        assert result.failed == 0, result.problems
        per_fn, counters = tracer.take()
        takes.append(({fn: rec["calls"] for fn, rec in per_fn.items()}, counters))
    calls = takes[0][0]
    expected = workload.expected_calls()
    assert {fn: calls.get(fn, 0) for fn in expected} == expected
    assert takes[1] == takes[0]


def test_grow_call_counts():
    # The one growth invariant that ``expected_calls()`` does not hold: every
    # draw finds a host, and ``rewrite_cover`` makes the only 2-factor
    # decomposition, so each insertion makes one of each.  ``grow`` is
    # called through its module, whose attribute the tracer patches.
    for m, seed, insertions, rng_seed in ((cube_map(), cube_seed(), 20, 42),
                                          (theta_map(), theta_seed(), 14, 11)):
        with _perfbench("tracing").Tracer() as tracer:
            growth.grow(m, seed, insertions, rng_seed)
        per_fn, counters = tracer.take()
        calls = {fn: rec["calls"] for fn, rec in per_fn.items()}
        assert (calls["growth.compatible_cover"] == calls["incidence.decompose_two_factor"]
                == calls["growth.insert_edge"] == counters["growth.draws"]
                == counters["growth.insertions"] == insertions)
