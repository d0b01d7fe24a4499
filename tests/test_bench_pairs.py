"""The summary arithmetic of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "ok_ratio", "better": "higher", "bound": 0.01}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, wall, ok=1.0, failed=0, exit=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ok_ratio": {"value": ok, "unit": "ratio"}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"side": side, "workload": "grow_cube", "seed": pair, "pair": pair,
            "first": "parent", "exit": exit, "result": result}


PARENT = [0.50, 0.40, 0.45, 0.48, 0.42]
CHANGE = [0.40, 0.41, 0.35, 0.36, 0.37]


def _runs():
    runs = [_run("parent", i, w) for i, w in enumerate(PARENT, start=1)]
    runs += [_run("change", i, w) for i, w in enumerate(CHANGE, start=1)]
    runs.append(_run("parent", 6, 0.1))  # an unpaired run is left out
    return runs


def test_summary_of_fixed_pairs(tool):
    summary = tool.summarise(_runs(), METRICS)["grow_cube"]
    assert summary["pairs"] == 5
    wall = summary["wall_s"]
    # sorted parent 0.40 0.42 0.45 0.48 0.50: exclusive quartiles at
    # positions 1.5 and 4.5, so q1 = 0.41 and q3 = 0.49
    assert wall["parent_median"] == 0.45 and wall["parent_iqr"] == 0.08
    # sorted change 0.35 0.36 0.37 0.40 0.41: q1 = 0.355, q3 = 0.405
    assert wall["change_median"] == 0.37 and wall["change_iqr"] == 0.05
    assert wall["change_better"] == 4  # pair 2: 0.41 > 0.40
    assert wall["parent_range"] == [0.4, 0.5] and wall["change_range"] == [0.35, 0.41]
    assert summary["ok_ratio"]["change_better"] == 0  # ties are not wins
    assert wall["regressed"] is False and summary["ok_ratio"]["regressed"] is False
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["correct"] is True


def test_failed_runs_are_counted(tool):
    runs = _runs()
    runs[5] = _run("change", 1, 0.40, ok=0.9, failed=1)
    summary = tool.summarise(runs, METRICS)["grow_cube"]
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] is False
    assert summary["ok_ratio"]["change_median"] == 1.0


def test_a_run_that_exits_non_zero_is_not_correct(tool):
    # each run printed a correct result line and then exited 1
    runs = _runs()
    runs[5] = _run("change", 1, 0.40, exit=1)
    summary = tool.summarise(runs, METRICS)["grow_cube"]
    assert summary["correct"] is False
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["wall_s"]["change_median"] == 0.37
    traced = {"exit": 1, "correct": True, "failed": 0, "wall_s": 0.4}
    trace = {"parent": {"grow_cube": {**traced, "exit": 0}}, "change": {"grow_cube": traced}}
    assert tool.summarise(_runs(), METRICS, trace)["grow_cube"]["correct"] is False
    trace["change"]["grow_cube"]["exit"] = 0
    assert tool.summarise(_runs(), METRICS, trace)["grow_cube"]["correct"] is True


@pytest.mark.parametrize("change_wall, change_ok, regressed", [
    # parent medians: wall_s 0.45 (bound 0.25: worse by more than 0.1125),
    # ok_ratio 1.0 (bound 0.01: worse by more than 0.01)
    (0.57, 1.0, {"wall_s": True, "ok_ratio": False}),
    (0.56, 1.0, {"wall_s": False, "ok_ratio": False}),
    (0.45, 0.98, {"wall_s": False, "ok_ratio": True}),
    (0.45, 0.995, {"wall_s": False, "ok_ratio": False}),
])
def test_regression_is_a_median_worse_by_more_than_the_bound(
        tool, change_wall, change_ok, regressed):
    runs = [_run("parent", i, w) for i, w in enumerate(PARENT, start=1)]
    runs += [_run("change", i, change_wall, ok=change_ok) for i in range(1, 6)]
    summary = tool.summarise(runs, METRICS)["grow_cube"]
    assert {name: summary[name]["regressed"] for name in regressed} == regressed


def test_claim_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr(tool):
    summary = tool.summarise(_runs(), METRICS)
    claim = tool.judge_claim(summary, "grow_cube.wall_s", METRICS)
    # median gain 0.08 is not more than the parent IQR 0.08, and 4/5 < 9/10
    assert claim == {"workload": "grow_cube", "metric": "wall_s", "pairs": 5, "pairs_won": 4,
                     "median_gain": 0.08, "parent_iqr": 0.08, "holds": False}
    runs = _runs()
    runs[6] = _run("change", 2, 0.30)
    claim = tool.judge_claim(tool.summarise(runs, METRICS), "grow_cube.wall_s", METRICS)
    assert claim["pairs_won"] == 5
    assert claim["median_gain"] == 0.09 and claim["holds"] is True
    # before the first pair is complete there is nothing to judge
    unpaired = tool.summarise([_run("parent", 1, 0.5)], METRICS)
    assert tool.judge_claim(unpaired, "grow_cube.wall_s", METRICS) is None


def test_main_alternates_sides_and_writes_every_run(tool, tmp_path, monkeypatch):
    # the workloads and the run length come from BENCHMARK.json, a fourth
    # workload included
    workloads = ["grow_cube", "corpus_check", "insert_walk", "fourth"]
    benchmark = {"run_seconds": 7, "workloads": [{"name": w} for w in workloads],
                 "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        side = tree.name
        calls.append((side, workload, seed, trace))
        assert seconds == (tool.TRACE_SECONDS if trace else 7)
        wall = 0.5 if side == "parent" else 0.4
        metrics = {"wall_s": {"value": wall, "unit": "s"}}
        # the change side's traced insert_walk run prints its line, then exits 1
        code = int((side, workload, trace) == ("change", "insert_walk", 1))
        return code, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(tool, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(tool, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--pairs", "2", "--out", str(out),
                      "--claim", "grow_cube.wall_s"]) == 0
    doc = json.loads(out.read_text())
    untraced = [c for c in calls if c[3] == 0]
    assert untraced[:4] == [("parent", "grow_cube", 1, 0), ("change", "grow_cube", 1, 0),
                            ("change", "grow_cube", 2, 0), ("parent", "grow_cube", 2, 0)]
    assert [c[1] for c in untraced[::4]] == workloads
    assert len(doc["runs"]) == len(untraced) == 2 * 2 * len(workloads)
    # the two sides' traced runs of each workload come back to back
    assert [c for c in calls if c[3] == 1] == [
        (side, w, tool.TRACE_SEED, 1) for w in workloads for side in ("parent", "change")]
    assert "--seconds 7 " in doc["command"]
    assert {run["exit"] for run in doc["runs"]} == {0}
    assert doc["trace"]["change"]["grow_cube"] == {
        "exit": 0, "correct": True, "failed": 0, "wall_s": 0.4}
    assert doc["trace"]["change"]["insert_walk"]["exit"] == 1
    assert {w: s["correct"] for w, s in doc["summary"].items()} == {
        "grow_cube": True, "corpus_check": True, "insert_walk": False, "fourth": True}
    assert doc["claim"]["pairs_won"] == 2 and doc["summary"]["insert_walk"]["pairs"] == 2


def test_traced_entry_divides_layer_times_by_the_reference_time(tool):
    metrics = {"wall_s": 0.3, "closure.cover_closure.s": 0.06, "oracles.matchings": 4804,
               "cli.main.s": 0.0, "machine.ref_s": 0.03}
    result = {"correct": True, "failed": 0,
              "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}
    entry = tool.traced_entry(0, result)
    assert entry == {"exit": 0, "correct": True, "failed": 0, **metrics,
                     "per_ref_s": {"closure.cover_closure.s": 2.0, "cli.main.s": 0.0}}
    # a run that measured no reference time, or printed no metrics, has none
    del result["metrics"]["machine.ref_s"]
    assert "per_ref_s" not in tool.traced_entry(0, result)
    assert tool.traced_entry(1, {"error": "boom"}) == {
        "exit": 1, "correct": None, "failed": None, "error": "boom"}


@pytest.mark.parametrize("claim", [
    "corpus_chek.wall_s",  # unknown workload
    "grow_cube.wall",  # unknown metric
    "grow_cube.closure.covers",  # a per-layer metric is not summarised
    "grow_cube",  # no metric at all
])
def test_a_claim_outside_the_benchmark_exits_2_before_any_run(
        tool, tmp_path, monkeypatch, capsys, claim):
    benchmark = {"run_seconds": 7, "workloads": [{"name": "grow_cube"}], "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))

    def no_run(*args):
        raise AssertionError("ran before the claim was checked")

    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "export_tree", no_run)
    monkeypatch.setattr(tool, "run_once", no_run)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--out", str(out), "--claim", claim]) == 2
    assert not out.exists()
    assert repr(claim) in capsys.readouterr().err
    assert tool.claim_error("grow_cube.ok_ratio", benchmark) is None
