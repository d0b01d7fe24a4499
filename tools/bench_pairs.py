"""Alternating parent/change benchmark pairs, written to one BENCH JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_10.json

Each side runs from its own temporary directory, removed afterwards: the
parent side is the committed tree of ``--parent``, exported with ``git
archive``, and the change side is a copy of this checkout's working tree
(tracked and untracked files that git does not ignore).  Both are fresh
copies, so neither side runs among the other's build and run leftovers.
For every workload that BENCHMARK.json lists and pair i = 1..N, each side
runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with S the file's ``run_seconds``, from its own tree, one run at a time;
odd pairs run the parent first, even pairs the change.  Then each
workload gets one traced run per side (``--seed 3 --seconds 15 --trace
1``) for the per-layer metrics, the two sides back to back.

The output keeps every run's exit code and result line (the last line
``perfbench/run.py`` prints), each traced run's exit code, ``correct`` and
``failed`` next to its metrics, and each traced layer time (``*.s``)
divided by that run's ``machine.ref_s`` (``per_ref_s``), so that two
traced runs made at different machine speeds can be compared.  Last
comes a summary per workload and end-to-end
metric: medians, interquartile ranges (``statistics.quantiles``, exclusive
method), ranges, the number of pairs in which the change was better, and
whether the change's median is worse than the parent's by more than the
metric's ``bound`` times the parent median (``regressed``).
A workload's summary is ``correct`` only if every run of it, paired or
traced, exited 0 and reported ``correct: true``.  The file is rewritten
after every run, so an interrupted run keeps what it measured.  A
``--claim`` that names no workload and end-to-end metric of BENCHMARK.json
exits 2 before any run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED, TRACE_SECONDS = 3, 15


def export_tree(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns the
    full commit hash.  ``git archive`` leaves no worktree registered in the
    repository, so an interrupted run leaves nothing behind in ``.git``."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy the files of the working tree that git tracks or would add."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[int, dict]:
    """One ``perfbench/run.py`` run from ``tree``: its exit code, and its
    result line or an ``error`` entry when it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, {"error": proc.stderr.strip()[-2000:]}


def traced_entry(exit_code: int, result: dict) -> dict:
    """A traced run as the output keeps it: its exit code, ``correct`` and
    ``failed``, then each metric's value (or the ``error`` entry), and, when
    the run measured a positive ``machine.ref_s``, ``per_ref_s``: each
    ``*.s`` metric divided by it."""
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    entry = {"exit": exit_code, "correct": result.get("correct"), "failed": result.get("failed"),
             **(metrics or {"error": result.get("error")})}
    ref = metrics.get("machine.ref_s")
    if ref:
        entry["per_ref_s"] = {name: round(value / ref, 4) for name, value in metrics.items()
                              if name.endswith(".s")}
    return entry


def _passed(exit_code: int, result: dict) -> bool:
    return exit_code == 0 and result.get("correct") is True


def _value(run: dict, metric: str):
    return run["result"].get("metrics", {}).get(metric, {}).get("value")


def summarise(runs: list[dict], metrics: list[dict], trace: dict | None = None) -> dict:
    """Per workload: the pair count, and per end-to-end metric the medians,
    the interquartile ranges, the ranges, the pairs the change won and
    whether the change's median is worse than the parent's by more than
    ``bound`` times the parent median.  ``metrics`` are BENCHMARK.json
    ``end_to_end`` entries (``name``, ``better`` and ``bound``); ``trace``
    maps side -> workload -> traced entry."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry: dict = {"pairs": len(complete)}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [_value(p[side], name) for p in complete]
                      for side in ("parent", "change")}
            if not complete or None in values["parent"] + values["change"]:
                continue
            stats, medians = {}, {}
            for side, vs in values.items():
                q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
                medians[side] = statistics.median(vs)
                stats[f"{side}_median"] = round(medians[side], 4)
                stats[f"{side}_iqr"] = round(q3 - q1, 4)
            stats["change_better"] = sum(
                (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            for side, vs in values.items():
                stats[f"{side}_range"] = [round(min(vs), 4), round(max(vs), 4)]
            worse = medians["change"] - medians["parent"]
            worse = worse if lower else -worse
            stats["regressed"] = worse > metric["bound"] * abs(medians["parent"])
            entry[name] = stats
        entry["failed"] = {side: sum(p[side]["result"].get("failed", 0) for p in complete)
                           for side in ("parent", "change")}
        traced = [trace[side][workload] for side in ("parent", "change")
                  if workload in (trace or {}).get(side, {})]
        entry["correct"] = (
            all(_passed(run["exit"], run["result"]) for run in runs if run["workload"] == workload)
            and all(_passed(t["exit"], t) for t in traced))
        summary[workload] = entry
    return summary


def claim_error(claim: str, benchmark: dict) -> str | None:
    """Why ``claim`` cannot be judged, or None: it must be "workload.metric"
    with a workload and an end-to-end metric that ``benchmark`` (the
    parsed BENCHMARK.json) lists."""
    workload, dot, name = claim.partition(".")
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    if dot and workload in workloads and name in metrics:
        return None
    return (f'claim {claim!r} is not "workload.metric" with a workload of {workloads} '
            f"and an end-to-end metric of {metrics}")


def judge_claim(summary: dict, claim: str, metrics: list[dict]) -> dict:
    """Whether ``claim`` ("workload.metric") holds: the change won at least
    nine of ten pairs (scaled to the pair count) and its median beats the
    parent's by more than the parent's interquartile range.  None until a
    pair of the workload is complete."""
    workload, name = claim.split(".", 1)
    stats = summary.get(workload, {}).get(name)
    if stats is None:
        return None
    pairs = summary[workload]["pairs"]
    lower = next(m["better"] for m in metrics if m["name"] == name) == "lower"
    gap = stats["parent_median"] - stats["change_median"]
    gap = round(gap if lower else -gap, 4)
    holds = stats["change_better"] * 10 >= 9 * pairs and gap > stats["parent_iqr"]
    return {"workload": workload, "metric": name, "pairs": pairs,
            "pairs_won": stats["change_better"], "median_gain": gap,
            "parent_iqr": stats["parent_iqr"], "holds": holds}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_10.json")
    parser.add_argument("--claim", help='claimed metric, "workload.metric", judged in the output')
    parser.add_argument("--description", default="", help="free text stored in the output")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.claim and (error := claim_error(args.claim, benchmark)):
        print(f"bench_pairs: {error}", file=sys.stderr)
        return 2
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        commit = export_tree(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        doc = {
            "description": args.description,
            "parent_commit": commit,
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds} --trace 0",
            "host": f"{platform.system()}, nproc {os.cpu_count()}, "
                    f"python {platform.python_version()}, one run at a time",
            "claim": None,
            "trace": None,
            "summary": {},
            "runs": [],
        }
        out = Path(args.out)

        def save():
            doc["summary"] = summarise(doc["runs"], metrics, doc["trace"])
            if args.claim:
                doc["claim"] = judge_claim(doc["summary"], args.claim, metrics)
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    code, result = run_once(trees[side], workload, pair, seconds, 0)
                    doc["runs"].append({"side": side, "workload": workload, "seed": pair,
                                        "pair": pair, "first": order[0], "exit": code,
                                        "result": result})
                    print(f"{workload} pair {pair} {side}: "
                          f"wall_s {result.get('metrics', {}).get('wall_s', {}).get('value')}",
                          flush=True)
                    save()
        doc["trace"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                       f"--seconds {TRACE_SECONDS} --trace 1",
            "note": "one traced run per side and workload, the sides back to back; "
                    "per-pass layer metrics, single samples; per_ref_s: each *.s "
                    "metric divided by the run's machine.ref_s",
            "parent": {}, "change": {},
        }
        for workload in workloads:
            for side in ("parent", "change"):
                code, result = run_once(trees[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
                doc["trace"][side][workload] = traced_entry(code, result)
                save()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
