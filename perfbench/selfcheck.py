"""Checks of the benchmark itself; prints one PASS/FAIL line per check.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Exits non-zero if any check fails.
Covers what the benchmark's numbers rest on: the tracer patches every
binding and restores it, records calls that raise, splits self time from
child time, gives identical counters on repeated passes, and a wrong pinned
output makes the benchmark command exit non-zero.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import cubicmaps  # noqa: E402
import cubicmaps.growth as growth  # noqa: E402
import cubicmaps.labelling as labelling  # noqa: E402
from cubicmaps.fixtures import theta_map, theta_seed  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[bool] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{' — ' + detail if detail else ''}")


def _cubicmaps_modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "cubicmaps" or k.startswith("cubicmaps."))]


def originals():
    return {
        (module, func): getattr(sys.modules[f"cubicmaps.{module}"], func)
        for module, func, _ in tracing.TRACED
    }


def check_patching() -> None:
    before = originals()
    with tracing.Tracer():
        leftover = [
            f"{mod.__name__}.{attr}"
            for mod in _cubicmaps_modules()
            for attr, value in vars(mod).items()
            if any(value is fn for fn in before.values())
        ]
        wrapped = cubicmaps.cover_closure is not before[("closure", "cover_closure")]
    check("every binding of a traced function is patched", not leftover and wrapped,
          f"unpatched: {leftover}" if leftover else "")
    check("uninstall restores every binding", originals() == before
          and cubicmaps.cover_closure is before[("closure", "cover_closure")])


def check_spans() -> None:
    tracer = tracing.Tracer()
    with tracer:
        growth.grow(theta_map(), theta_seed(), iterations=3, rng_seed=1)
        try:
            labelling.hamiltonian_covers(theta_map(), [])
        except cubicmaps.NoHamiltonian:
            pass
    spans = list(tracer.spans)
    per_fn, counters = tracer.take()
    check("a raising call is recorded", per_fn["labelling.hamiltonian_covers"]["calls"] == 5
          and counters.get("labelling.hamiltonian_covers.raised") == 1,
          f"{per_fn['labelling.hamiltonian_covers']['calls']} calls, "
          f"{counters.get('labelling.hamiltonian_covers.raised')} raised")
    grow_span = next(s for s in spans if s[0] == "growth.grow")
    root = spans.index(grow_span)
    children = sum(e - s for _, s, e, parent in spans if parent == root)
    own = per_fn["growth.grow"]["s"]
    total = grow_span[2] - grow_span[1]
    check("self time is span minus direct children",
          abs(own - (total - children)) < 1e-9 and 0 < own < total,
          f"self {own:.6f} s of {total:.6f} s")


def check_counters_repeat() -> None:
    for name in run.WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
            wl = workloads.load(name, Path(tmp))
            tracer = tracing.Tracer()
            takes = []
            for _ in range(2):
                with tracer:
                    result = wl.warm_up()
                per_fn, counters = tracer.take()
                calls = {fn: rec["calls"] for fn, rec in per_fn.items()}
                takes.append((calls, counters, result.failed))
        same = takes[0] == takes[1]
        check(f"{name}: two traced passes give identical calls and counters",
              same and takes[0][2] == 0, "" if same else f"{takes[0]} vs {takes[1]}")


def check_pin_gate() -> None:
    """A corrupted pin for one pool input must fail the whole command."""
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        pins = json.loads(workloads.PINS_PATH.read_text())
        walk = str(pins["insert_walk"]["pool"][0])
        pins["insert_walk"]["fingerprints"][walk] = "0" * 64
        bad = Path(tmp) / "pins.json"
        bad.write_text(json.dumps(pins))
        saved, workloads.PINS_PATH = workloads.PINS_PATH, bad
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = run.main(["--workload", "insert_walk", "--seed", "1",
                               "--seconds", "0", "--trace", "0"])
        finally:
            workloads.PINS_PATH = saved
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    check("a corrupted pinned digest makes the command exit non-zero",
          rc != 0 and not last["correct"] and last["failed"] > 0,
          f"exit {rc}, failed {last['failed']} of {last['attempted']}")


def main() -> int:
    check_patching()
    check_spans()
    check_counters_repeat()
    check_pin_gate()
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
