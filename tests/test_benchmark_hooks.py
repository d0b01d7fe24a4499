"""The benchmark's span tracer patches package functions by name; every
name it lists must still exist, so a rename fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import cubicmaps.cli as cli
import cubicmaps.fourcolour as fourcolour
import cubicmaps.growth as growth
import cubicmaps.oracles as oracles
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


def test_grow_call_counts():
    # The benchmark's expected-call contract for one growth run: one closure,
    # labelling and Hamiltonian filter per map, one insertion, rewrite and
    # compatible-cover draw per step, every draw accepted.  ``grow`` is
    # called through its module, whose attribute the tracer patches.
    with _perfbench("tracing").Tracer() as tracer:
        growth.grow(cube_map(), cube_seed(), 20, 42)
    per_fn, counters = tracer.take()
    calls = {name: rec["calls"] for name, rec in per_fn.items()}
    for name in ("closure.cover_closure", "labelling.closure_labellings",
                 "labelling.hamiltonian_covers"):
        assert calls[name] == 21, name
    for name in ("growth.insert_edge", "growth.rewrite_cover", "growth.compatible_cover"):
        assert calls[name] == 20, name
    assert counters["growth.draws"] == counters["growth.insertions"] == 20


def test_grow_cube_cli_call_counts(tmp_path):
    # The traced grow_cube pass enters through ``cli.main``: every call count
    # of its expected-call contract holds on that path, and the trace byte
    # counter reads the path that ``write_trace`` was given.
    workload = _perfbench("workloads").GrowCube(
        {"pool": [42], "warmup": 42, "iterations": 3, "trace_sha256": {}}, tmp_path)
    trace = tmp_path / "trace.jsonl"
    argv = ["grow", "--input", workload.cube_path, "--iterations", str(workload.iterations),
            "--seed", "42", "--trace", str(trace)]
    with _perfbench("tracing").Tracer() as tracer:
        assert cli.main(argv) == 0
    per_fn, counters = tracer.take()
    for name, calls in workload.expected_calls().items():
        assert per_fn[name]["calls"] == calls, name
    assert counters["serialize.bytes"] == trace.stat().st_size


def test_corpus_call_counts():
    # The corpus path's contract for one theta run: one matching enumeration
    # per even-cover enumeration, and no 2-factor decomposition or
    # compatible-cover scan beyond growth's own, one per insertion.
    # Library calls go through their modules, whose attributes the tracer
    # patches.
    insertions = 14
    with _perfbench("tracing").Tracer() as tracer:
        steps = growth.grow(theta_map(), theta_seed(), insertions, 11)
        labellings = 0
        for st in steps:
            covers = oracles.all_even_cycle_covers(st.map)
            oracles.compare_cover_sets(st.map, st.covers, covers)
            oracles.check_shared_cycle(st.map, covers=covers)
            for lab in oracles.all_proper_labellings(st.map):
                labellings += 1
                fourcolour.validate_face_colouring(
                    st.map, fourcolour.face_colouring_from_labelling(st.map, lab))
    per_fn, counters = tracer.take()
    calls = {name: rec["calls"] for name, rec in per_fn.items()}
    maps = insertions + 1
    assert calls["oracles.all_even_cycle_covers"] == maps
    assert calls["oracles.all_perfect_matchings"] == calls["oracles.all_even_cycle_covers"]
    assert calls["incidence.decompose_two_factor"] == insertions
    assert calls["growth.compatible_cover"] == insertions
    assert counters["growth.insertions"] == insertions
    for name in ("fourcolour.face_colouring_from_labelling",
                 "fourcolour.validate_face_colouring"):
        assert calls[name] == labellings, name
