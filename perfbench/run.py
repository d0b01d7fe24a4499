"""cubicmaps benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload grow_cube --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, in this one process, on one thread.  See
``perfbench/README.md`` for the workloads, the metrics and how to read them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  The exit code is 0 only when every output
matched its pin and, in a traced run, every tracing self-check held.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS pool is sized when numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grow_cube", "corpus_check", "insert_walk")

SETUP_SAMPLES = 7      # this process plus six fresh interpreters
MIN_PASSES = 3         # untraced run
MIN_TRACED_PASSES = 2  # traced run, each of traced and untraced
REF_ITERATIONS = 200_000
REF_INTERVAL_S = 0.01        # process CPU time between two speed samples
REF_CHUNK_NOMINAL_S = 0.0004  # reference_chunk time that wall_s is scaled to


def reference_loop() -> float:
    """Seconds for a fixed pure-Python dict loop: the traced run's
    machine-speed yardstick, timed next to every pass, so drift can be told
    from regression."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        d[i & 1023] = d.get(i & 1023, 0) ^ i
    return time.perf_counter() - t0


_REF_TABLE = [tuple(range(i % 7, i % 7 + 3)) for i in range(20_000)]


def reference_chunk() -> None:
    """A fixed slice of pure-Python work, independent of cubicmaps: dict
    updates, then scattered lookups in a large table and frozenset builds."""
    d: dict[int, int] = {}
    for i in range(1500):
        d[i & 1023] = d.get(i & 1023, 0) ^ i
    x = 0
    out = set()
    for _ in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.add(frozenset(_REF_TABLE[x % 20_000]))


class SpeedSampler:
    """Times ``reference_chunk`` every ``REF_INTERVAL_S`` of process CPU time,
    from a SIGPROF handler, while a pass runs.  The machine's speed is thus
    sampled throughout the pass rather than next to it; a shared host's speed
    changes within a second by a third or more."""

    def __enter__(self):
        self.chunk_s = 0.0
        self.chunks = 0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_chunk()
        self.chunk_s += time.perf_counter() - t0
        self.chunks += 1


def setup(workload: str, tmpdir: Path):
    """Import cubicmaps from the checkout, load pins and fixtures, and run the
    warm-up item.  Returns (workload, seconds, warm-up result)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cubicmaps

    if Path(cubicmaps.__file__).resolve().parent != SRC / "cubicmaps":
        raise RuntimeError(f"imported cubicmaps from {cubicmaps.__file__}, not {SRC}")
    import workloads

    wl = workloads.load(workload, tmpdir)
    warm = wl.warm_up()
    return wl, time.perf_counter() - t0, warm


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    """Repeated passes over one workload's pool, in seed-drawn orders."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.refs: list[float] = []
        self.chunks: list[float] = []
        self.raw: list[float] = []

    def _run(self):
        order = list(self.wl.pool)
        self.rng.shuffle(order)
        gc.collect()
        t0 = time.perf_counter()
        result = self.wl.run_pass(order)
        elapsed = time.perf_counter() - t0
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(result.problems)
        return elapsed

    def one_pass(self) -> float:
        """Seconds of one pass, with ``reference_loop`` timed next to it."""
        self.refs.append(reference_loop())
        return self._run()

    def one_scaled_pass(self) -> float:
        """Seconds of one pass, less the speed samples taken during it,
        scaled to the speed at which ``reference_chunk`` takes
        ``REF_CHUNK_NOMINAL_S``."""
        with SpeedSampler() as sampler:
            elapsed = self._run()
        if sampler.chunks == 0:
            raise RuntimeError("no speed sample in a pass; the pass is too short")
        chunk = sampler.chunk_s / sampler.chunks
        self.chunks.append(chunk)
        self.raw.append(elapsed)
        return (elapsed - sampler.chunk_s) * REF_CHUNK_NOMINAL_S / chunk


def measure(runner: Runner, seconds: float, args, samples: list[float]) -> list[float]:
    """Timed passes for ``seconds`` of pass time.  Set-up probes run between
    the first passes, outside that time, so they sample the machine's speed
    across the run rather than at one moment."""
    passes: list[float] = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent < seconds:
        t0 = time.perf_counter()
        passes.append(runner.one_scaled_pass())
        spent += time.perf_counter() - t0
        if len(samples) < SETUP_SAMPLES:
            samples.append(setup_probe(args))
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_probe(args))
    return passes


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes so machine drift hits both."""
    from tracing import Tracer

    untraced: list[float] = []
    traced: list[float] = []
    takes = []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(runner.one_pass())
        with tracer:
            traced.append(runner.one_pass())
        takes.append(tracer.take())
    return untraced, traced, takes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(untraced, traced, takes, refs) -> tuple[dict, list[str]]:
    """Per-layer metric values and the list of determinism failures."""
    from tracing import TRACED

    problems = []
    counters = takes[0][1]
    for _, other in takes[1:]:
        if other != counters:
            problems.append(f"counters differ between traced passes: {counters} vs {other}")
    values: dict[str, float] = {}
    for module, func, _ in TRACED:
        name = f"{module}.{func}"
        calls = [per_fn.get(name, {}).get("calls", 0) for per_fn, _ in takes]
        if len(set(calls)) != 1:
            problems.append(f"{name} call count differs between traced passes: {calls}")
        values[f"{name}.calls"] = calls[0]
        values[f"{name}.s"] = statistics.median(
            per_fn.get(name, {}).get("s", 0.0) for per_fn, _ in takes)
    get = counters.get
    values.update({
        "closure.covers": get("closure.covers", 0),
        "closure.selections": get("closure.selections", 0),
        "closure.yield": _ratio(get("closure.covers", 0), get("closure.selections", 0)),
        "labelling.labellings": get("labelling.labellings", 0),
        "labelling.hamiltonian": get("labelling.hamiltonian", 0),
        "labelling.no_hamiltonian": get("labelling.hamiltonian_covers.raised", 0),
        "growth.draw_yield": _ratio(get("growth.insertions", 0), get("growth.draws", 0)),
        "oracles.matchings": get("oracles.matchings", 0),
        "oracles.even_yield": _ratio(get("oracles.even_covers", 0), get("oracles.matchings", 0)),
        "serialize.bytes": get("serialize.bytes", 0),
        "machine.ref_s": statistics.median(refs),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
    })
    return values, problems


def check_calls(wl, takes) -> list[str]:
    """Self-test: traced call counts equal what the pool implies, so no
    binding was missed and no raising call was dropped."""
    problems = []
    for name, want in wl.expected_calls().items():
        got = takes[0][0].get(name, {}).get("calls", 0)
        if got != want:
            problems.append(f"traced {name} calls {got} per pass, expected {want}")
    return problems


def layer_shares(takes, traced) -> list[str]:
    """Share of the traced pass time per module (self time) and per
    function (self and inclusive time), medians over the traced passes."""
    lines = []
    by_module: dict[str, list[float]] = {}
    by_fn: dict[str, tuple[list[float], list[float]]] = {}
    for (per_fn, _), wall in zip(takes, traced):
        sums: dict[str, float] = {}
        for name, rec in per_fn.items():
            module = name.split(".")[0]
            sums[module] = sums.get(module, 0.0) + rec["s"]
            own, total = by_fn.setdefault(name, ([], []))
            own.append(rec["s"] / wall)
            total.append(rec["total_s"] / wall)
        for module, s in sums.items():
            by_module.setdefault(module, []).append(s / wall)
    for module, shares in sorted(by_module.items(), key=lambda kv: -statistics.median(kv[1])):
        lines.append(f"share {module:<10} {100 * statistics.median(shares):6.2f} % self")
    harness = 1 - sum(statistics.median(s) for s in by_module.values())
    lines.append(f"share {'(harness)':<10} {100 * harness:6.2f} % (benchmark code, untraced callees)")
    for name, (own, total) in sorted(by_fn.items(), key=lambda kv: -statistics.median(kv[1][1])):
        lines.append(f"share {name:<44} {100 * statistics.median(own):6.2f} % self "
                     f"{100 * statistics.median(total):6.2f} % inclusive")
    return lines


def declared_metrics(section: str) -> list[dict]:
    """Metric names and units that BENCHMARK.json declares for ``section``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def context_lines(args, runner) -> list[str]:
    import numpy

    load1, load5, load15 = os.getloadavg()
    if args.trace:
        name, refs = "machine.ref_s", runner.refs
    else:
        name, refs = "reference_chunk s (per-pass means)", runner.chunks
    return [
        f"context python {platform.python_version()} numpy {numpy.__version__} "
        f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
        f"loadavg {load1:.2f} {load5:.2f} {load15:.2f}",
        f"context {name} median {statistics.median(refs):.6f} "
        f"min {min(refs):.6f} max {max(refs):.6f} n {len(refs)}",
        f"context workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="sets the pass orders")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubicmaps" / "__init__.py").is_file():
        print(f"perfbench: no cubicmaps package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl, setup_s, warm = setup(args.workload, Path(tmp))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "warmup_failed": warm.failed}))
            return 0 if warm.failed == 0 else 1
        return run(args, wl, setup_s, warm)


def run(args, wl, setup_s, warm) -> int:
    runner = Runner(wl, args.seed)
    # A wrong warm-up output is a wrong output.
    runner.attempted, runner.failed = warm.attempted, warm.failed
    runner.problems.extend(warm.problems)
    report: list[str] = []
    if args.trace:
        untraced, traced, takes = measure_traced(runner, args.seconds)
        values, problems = layer_values(untraced, traced, takes, runner.refs)
        problems += check_calls(wl, takes)
        runner.problems.extend(problems)
        self_test_ok = not problems
        q1, med, q3 = quartiles(untraced)
        report.append(f"wall_s untraced median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(untraced)}")
        q1, med, q3 = quartiles(traced)
        report.append(f"wall_s traced   median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(traced)}")
        report.append(f"trace.overhead {values['trace.overhead']:.4f} (traced / untraced median pass)")
        report.extend(layer_shares(takes, traced))
        section = "per_layer"
    else:
        samples = [setup_s]
        passes = measure(runner, args.seconds, args, samples)
        self_test_ok = True
        q1, med, q3 = quartiles(passes)
        values = {
            "setup_s": statistics.median(samples),
            "wall_s": med,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.append(f"wall_s median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(passes)} "
                      f"(scaled to a {REF_CHUNK_NOMINAL_S * 1e3:g} ms reference_chunk)")
        q1, med, q3 = quartiles(runner.raw)
        report.append(f"wall unscaled median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(passes)}")
        report.append("setup_s samples " + " ".join(f"{s:.4f}" for s in samples))
        section = "end_to_end"
    attempted, failed = runner.attempted, runner.failed
    values["ok_ratio"] = (attempted - failed) / attempted
    report.append(f"operations attempted {attempted} failed {failed} "
                  f"failed_ratio {failed / attempted:.6f}")
    if wl.name == "corpus_check":
        report.append(f"corpus findings per pass (pinned map by map) {wl.findings()}")

    for line in context_lines(args, runner) + report:
        print(line)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {}
    for m in declared_metrics(section):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]} {m['unit']}")
    correct = failed == 0 and self_test_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
