import hashlib
import inspect
import json
import random
import shutil
import sys
from collections import Counter

import pytest

import cubicmaps.cli as cli
import cubicmaps.oracles as oracles
from cubicmaps.cli import main
from cubicmaps.fixtures import fixture_path, theta_map
from cubicmaps.growth import growth_step
from cubicmaps.incidence import check_cover, validate_map
from cubicmaps.serialize import (
    canonical_json,
    load_map,
    map_from_document,
    map_to_document,
    trace_documents,
)

from conftest import _time_limit, prism, random_insertion_walk


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    shutil.copy(fixture_path("cube.json"), path)
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    shutil.copy(fixture_path("theta.json"), path)
    return str(path)


def test_validate_ok(cube_file, capsys):
    assert main(["validate", "--input", cube_file]) == 0
    assert "map is valid" in capsys.readouterr().out


def test_validate_corrupted(tmp_path, cube_file, capsys):
    doc = json.load(open(cube_file))
    doc["vertex_edge"][0][0] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "vertex row 1" in out and "edge column 1" in out


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2


def test_validate_unparseable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--input", str(bad)]) == 2


def test_enumerate_cube(cube_file, capsys, tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--input", cube_file, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "9 cycle covers, 6 Hamiltonian, 4 labellings" in printed
    doc = json.loads(out.read_text())
    assert len(doc["covers"]) == 9
    assert len(doc["hamiltonian"]) == 6
    assert len(doc["labellings"]) == 4


@pytest.mark.parametrize(
    "name", ["cube", "theta", "tetrahedron", "two_kempe_classes", "non_hamiltonian_16"]
)
def test_enumerate_out_is_canonical_json_of_the_trace_subset(name, tmp_path):
    path = fixture_path(f"{name}.json")
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--input", str(path), "--out", str(out)]) == 0
    m, cycles = load_map(path)
    record = json.loads(next(trace_documents([growth_step(m, check_cover(m, cycles))])))
    subset = {key: record[key] for key in ("covers", "labellings", "hamiltonian")}
    assert out.read_bytes() == (canonical_json(subset) + "\n").encode()


def test_enumerate_theta(theta_file, capsys):
    assert main(["enumerate", "--input", theta_file]) == 0
    assert "3 cycle covers, 3 Hamiltonian, 1 labellings" in capsys.readouterr().out


def test_enumerate_requires_cycles(tmp_path):
    doc = map_to_document(theta_map())
    path = tmp_path / "bare.json"
    path.write_text(canonical_json(doc))
    assert main(["enumerate", "--input", str(path)]) == 2


def test_grow_writes_trace(cube_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = main(
        ["grow", "--input", cube_file, "--iterations", "4", "--seed", "11",
         "--trace", str(trace)]
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 5
    last = json.loads(lines[-1])
    assert len(last["map"]["vertex_edge"]) == 16
    assert "step 4:" in capsys.readouterr().out


def test_grow_zero_iterations(theta_file, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["grow", "--input", theta_file, "--trace", str(trace)]) == 0
    assert len(trace.read_text().splitlines()) == 1


def test_grow_rejects_negative_iterations(theta_file):
    assert main(["grow", "--input", theta_file, "--iterations", "-1"]) == 2


@pytest.mark.parametrize("command", ["validate", "grow"])
def test_out_is_unknown_where_nothing_is_written(command, cube_file, tmp_path):
    with pytest.raises(SystemExit) as caught:
        main([command, "--input", cube_file, "--out", str(tmp_path / "x")])
    assert caught.value.code == 2
    assert not (tmp_path / "x").exists()


def test_grow_traces_are_byte_identical(theta_file, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(
            ["grow", "--input", theta_file, "--iterations", "6", "--seed", "5",
             "--trace", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_holds_on_cube(cube_file, capsys):
    assert main(["check", "--input", cube_file]) == 0
    out = capsys.readouterr().out
    assert "conjecture 1: holds" in out
    assert "conjecture 2: holds" in out


def test_check_refutes_on_counterexample(tmp_path, capsys):
    path = tmp_path / "ce.json"
    shutil.copy(fixture_path("two_kempe_classes.json"), path)
    witness = tmp_path / "w.json"
    assert main(["check", "--input", str(path), "--out", str(witness)]) == 1
    assert "conjecture 1: refuted" in capsys.readouterr().out
    reports = json.loads(witness.read_text())
    assert reports[0]["witness"]["missing_from_closure"]


def test_check_cap_exceeded(tmp_path):
    import random

    m, _ = random_insertion_walk(theta_map(), 20, random.Random(1))  # 63 edges
    doc = map_to_document(m, cycles=None)
    doc["cycles"] = [[1, 2]]  # any cycles field; cap triggers before use
    path = tmp_path / "big.json"
    path.write_text(canonical_json(doc))
    assert main(["check", "--input", str(path)]) == 4


def test_check_exits_4_when_the_map_is_too_deep_for_the_oracle(tmp_path, capsys):
    # the matching search takes one frame per matched pair: 200 on the
    # 200-gon prism, under a recursion limit 150 frames above this test
    doc = map_to_document(prism(200), cycles=[range(1, 201), range(201, 401)])
    path = tmp_path / "prism.json"
    path.write_text(canonical_json(doc))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        code = main(["check", "--input", str(path), "--cap", "100000"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: map is too deep for the matching search"]


def test_check_rejects_negative_cap(theta_file, capsys):
    assert main(["check", "--input", theta_file, "--cap", "-3"]) == 2
    assert "--cap" in capsys.readouterr().err
    assert main(["check", "--input", theta_file, "--cap", "0"]) == 4


def test_check_covers_is_unknown(theta_file, tmp_path):
    # conjecture 2 is checked against the oracle covers only
    covers = tmp_path / "covers.json"
    covers.write_text("[]")
    with pytest.raises(SystemExit) as caught:
        main(["check", "--input", theta_file, "--covers", str(covers)])
    assert caught.value.code == 2


def test_check_cap_ignores_the_environment(theta_file, monkeypatch):
    # --cap is the cap's one source: the environment cannot lower it
    monkeypatch.setenv("CCG_ORACLE_CAP", "2")
    assert main(["check", "--input", theta_file]) == 0


def test_check_enumerates_the_oracle_covers_once(cube_file, monkeypatch):
    # both conjectures are checked against one enumeration of the covers
    calls = []
    real = oracles.all_even_cycle_covers

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "all_even_cycle_covers", counted)
    monkeypatch.setattr(cli, "all_even_cycle_covers", counted, raising=False)
    assert main(["check", "--input", cube_file]) == 0
    assert len(calls) == 1


# sha256 of the printed lines and the --out document of ``enumerate`` on
# each bundled map below in turn, pinned before ``enumerate`` reused ``grow``
ENUMERATE_SHA256 = "27bb2763ebca43df7196314e46861a705c70a906071bc14fcd3ddbb2ac8b1204"


def test_enumerate_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for name in ("cube", "theta", "tetrahedron", "two_kempe_classes", "non_hamiltonian_16"):
        out = tmp_path / f"{name}.json"
        path = str(fixture_path(f"{name}.json"))
        assert main(["enumerate", "--input", path, "--out", str(out)]) == 0
        digest.update(capsys.readouterr().out.encode())
        digest.update(out.read_bytes())
    assert digest.hexdigest() == ENUMERATE_SHA256


def test_export_json_round_trip(cube_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["export", "--input", cube_file, "--format", "json", "--out", str(out1)]) == 0
    assert main(["export", "--input", str(out1), "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m, cycles = load_map(out1)
    assert (m.n_vertices, m.n_edges) == (8, 12)
    assert cycles == ((1, 9, 10, 11), (3, 4, 5, 6))


def test_export_json_writes_the_checked_cover(cube_file, tmp_path):
    # cycles listed out of order (edges 10 and 1 are not adjacent on their
    # face) are checked as edge sets and written canonical
    doc = json.load(open(cube_file))
    doc["cycles"] = [[10, 1, 11, 9], [6, 5, 4, 3]]
    given, out1, out2 = (tmp_path / name for name in ("given.json", "a.json", "b.json"))
    given.write_text(json.dumps(doc))
    assert main(["export", "--input", str(given), "--format", "json", "--out", str(out1)]) == 0
    assert json.loads(out1.read_bytes())["cycles"] == [[1, 9, 10, 11], [3, 4, 5, 6]]
    assert main(["export", "--input", str(out1), "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize(
    "command",
    [
        ["grow", "--input", "{cube}", "--iterations", "1", "--trace", "{out}"],
        ["enumerate", "--input", "{cube}", "--out", "{out}"],
        ["export", "--input", "{cube}", "--out", "{out}"],
        ["check", "--input", "{two_classes}", "--out", "{out}"],
    ],
    ids=["grow_trace", "enumerate_out", "export_out", "check_witness"],
)
def test_unwritable_output_exits_2(command, target, tmp_path, monkeypatch, capsys):
    # grow and enumerate check their output path before doing any work
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(cli, "grow", never)
    monkeypatch.setattr(cli, "growth_step", never, raising=False)
    out = tmp_path / "missing" / "out.json" if target == "missing_dir" else tmp_path
    paths = {"cube": fixture_path("cube.json"), "out": out,
             "two_classes": fixture_path("two_kempe_classes.json")}
    assert main([arg.format(**paths) for arg in command]) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_failed_run_keeps_an_existing_output_file(option, tmp_path):
    # the early probe of the output path must not empty it: this cover
    # fails check_cover, after the probe, and the command exits 1
    doc = _mutated_cube("cycles_not_a_cover")
    given, out = tmp_path / "given.json", tmp_path / "out.json"
    given.write_text(json.dumps(doc))
    out.write_text("precious\n")
    command = "enumerate" if option == "--out" else "grow"
    assert main([command, "--input", str(given), option, str(out)]) == 1
    assert out.read_text() == "precious\n"


def test_export_dot(theta_file, capsys):
    assert main(["export", "--input", theta_file, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("v1 -- v2") == 3
    assert "class=" in dot  # labelling derived from the seed cover


def _add_third_endpoint(doc):
    # first vertex row not on edge 1 gains it: edge 1 now has 3 endpoints
    row = next(r for r in doc["vertex_edge"] if r[0] == 0)
    row[0] = 1


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _stray_face_one(doc):
    row = doc["face_edge"][0]
    row[row.index(0)] = 1


def _wider_face_edge(doc):
    for row in doc["face_edge"]:
        row.append(0)


# name -> (mutation of the bundled cube document, expected exit code of
# validate, enumerate, grow, check, export --format json, export --format dot)
MUTATIONS = {
    "edge_with_three_endpoints": (_add_third_endpoint, (1, 1, 1, 1, 1, 1)),
    "vertex_edge_entry_two": (lambda d: d["vertex_edge"][0].__setitem__(0, 2), (1, 1, 1, 1, 1, 1)),
    "vertex_edge_entry_256": (lambda d: d["vertex_edge"][0].__setitem__(0, 256), (1, 1, 1, 1, 1, 1)),
    "negative_entry": (lambda d: d["vertex_edge"][0].__setitem__(0, -1), (2, 2, 2, 2, 2, 2)),
    "ragged_rows": (lambda d: d["vertex_edge"][0].pop(), (2, 2, 2, 2, 2, 2)),
    "stray_face_one": (_stray_face_one, (1, 1, 1, 1, 1, 1)),
    "dropped_face_row": (lambda d: d["face_edge"].pop(), (1, 1, 1, 1, 1, 1)),
    "empty_matrices": (lambda d: d.update(vertex_edge=[[]], face_edge=[[]]), (1, 1, 1, 1, 1, 1)),
    "missing_key": (lambda d: d.pop("face_edge"), (2, 2, 2, 2, 2, 2)),
    "unknown_cycle_edge": (lambda d: d["cycles"][0].__setitem__(0, 99), (0, 1, 1, 1, 1, 1)),
    "cycles_not_a_cover": (_set("cycles", [[1, 9, 10, 11]]), (0, 1, 1, 1, 1, 1)),
    "empty_cycle": (_set("cycles", [[]]), (0, 1, 1, 1, 1, 1)),
    "cycles_not_lists": (_set("cycles", 5), (2, 2, 2, 2, 2, 2)),
    "no_cycles": (_set("cycles", []), (0, 2, 2, 2, 0, 0)),
    "face_edge_entry_two": (lambda d: d["face_edge"][1].__setitem__(0, 2), (1, 1, 1, 1, 1, 1)),
    "wider_face_edge": (_wider_face_edge, (1, 1, 1, 1, 1, 1)),
    # JSON values that are not integers must not be coerced into entries or ids
    "float_entry": (lambda d: d["vertex_edge"][0].__setitem__(0, 1.5), (2, 2, 2, 2, 2, 2)),
    "string_entry": (lambda d: d["vertex_edge"][0].__setitem__(0, "1"), (2, 2, 2, 2, 2, 2)),
    "bool_entry": (lambda d: d["vertex_edge"][0].__setitem__(0, True), (2, 2, 2, 2, 2, 2)),
    "float_cycle_edge": (lambda d: d["cycles"][0].__setitem__(0, 1.5), (2, 2, 2, 2, 2, 2)),
    # falsy non-lists are malformed cycles, not "no cycles"
    "cycles_null": (_set("cycles", None), (2, 2, 2, 2, 2, 2)),
    "cycles_empty_object": (_set("cycles", {}), (2, 2, 2, 2, 2, 2)),
    "cycles_zero": (_set("cycles", 0), (2, 2, 2, 2, 2, 2)),
    "cycles_empty_string": (_set("cycles", ""), (2, 2, 2, 2, 2, 2)),
}

# name -> the exact validate_map report of every document of MUTATIONS that loads
REPORTS = {
    "cycles_not_a_cover": [],
    "dropped_face_row": [
        "edge column 12 has 0 ones in face-edge (expected 1 or 2)",
        "Euler check failed: V=8 - E=12 + F=4+1 != 2",
    ],
    "edge_with_three_endpoints": [
        "vertex row 3 has 4 ones (expected 3)",
        "edge column 1 has 3 ones in vertex-edge (expected 2)",
    ],
    "empty_cycle": [],
    "empty_matrices": ["incidence matrices must be non-empty"],
    "face_edge_entry_two": ["face-edge matrix has entries outside {0,1}"],
    "no_cycles": [],
    "stray_face_one": ["face 1 edges do not form one closed boundary"],
    "unknown_cycle_edge": [],
    "vertex_edge_entry_256": ["vertex-edge matrix has entries outside {0,1}"],
    "vertex_edge_entry_two": ["vertex-edge matrix has entries outside {0,1}"],
    "wider_face_edge": [
        "edge column 13 has 0 ones in vertex-edge (expected 2)",
        "edge column 13 has 0 ones in face-edge (expected 1 or 2)",
        "Euler check failed: V=8 - E=13 + F=5+1 != 2",
    ],
}

# relative --out paths land in the test's working directory
COMMANDS = (
    ["validate"],
    ["enumerate", "--out", "out"],
    ["grow", "--iterations", "2"],
    ["check", "--out", "out"],
    ["export", "--format", "json", "--out", "out"],
    ["export", "--format", "dot", "--out", "out"],
)


def _mutated_cube(name):
    doc = json.loads(fixture_path("cube.json").read_text())
    MUTATIONS[name][0](doc)
    return doc


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_mutated_documents_report_lines(name):
    m, _ = map_from_document(_mutated_cube(name))
    assert validate_map(m) == REPORTS[name]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_documents_keep_exit_code_contract(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(_mutated_cube(name)))
    monkeypatch.chdir(tmp_path)  # witness files default to the working directory
    got = tuple(main([*command, "--input", str(path)]) for command in COMMANDS)
    assert got == MUTATIONS[name][1]
    assert "Traceback" not in "".join(capsys.readouterr())


NON_CUBIC_DOCUMENTS = {
    "four_cycle": {
        "vertex_edge": [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
        "face_edge": [[1, 1, 1, 1]],
        "cycles": [[1, 2, 3, 4]],
    },
    "quadruple_edge": {
        "vertex_edge": [[1, 1, 1, 1], [1, 1, 1, 1]],
        "face_edge": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
        "cycles": [[1, 2]],
    },
}


@pytest.mark.parametrize("name", NON_CUBIC_DOCUMENTS)
def test_non_cubic_documents_exit_1_on_their_row_counts(name, tmp_path, monkeypatch, capsys):
    """Walking such a map raises NotTwoRegular, but every command rejects
    it on ``validate_map``'s row counts before any walk."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(NON_CUBIC_DOCUMENTS[name]))
    monkeypatch.chdir(tmp_path)
    assert [main([*command, "--input", str(path)]) for command in COMMANDS] == [1] * len(COMMANDS)
    out, err = capsys.readouterr()
    assert (out + err).count("vertex row 1 has") == len(COMMANDS)
    assert "Traceback" not in out + err


# ``json.dumps`` of a value this deep recurses too, so the text is written directly
DEEP = "[" * 100_000 + "]" * 100_000


def _deep_cycles_cube():
    doc = json.loads(fixture_path("cube.json").read_text())
    doc["cycles"] = "deep"
    return json.dumps(doc).replace('"deep"', DEEP)


@pytest.mark.parametrize("text", [lambda: DEEP, _deep_cycles_cube], ids=["document", "cycles"])
def test_deeply_nested_documents_exit_2(text, tmp_path, monkeypatch, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text())
    monkeypatch.chdir(tmp_path)
    assert [main([*command, "--input", str(path)]) for command in COMMANDS] == [2] * len(COMMANDS)
    out, err = capsys.readouterr()
    assert err.count("cannot read map document") == len(COMMANDS)
    assert "Traceback" not in out + err


def _edit_matrix(doc, rng):
    """One seeded edit of one matrix: flip a bit, append or drop a column,
    add or drop a row, or set an entry to a value that is not 0 or 1."""
    rows = doc[rng.choice(("vertex_edge", "face_edge"))]
    width = len(rows[0]) if rows else 0
    kind = rng.choice(("flip", "column", "row", "entry"))
    if kind == "column" and rng.random() < 0.5:
        for row in rows:
            row.append(rng.randrange(2))
    elif kind == "column" and width:
        j = rng.randrange(width)
        for row in rows:
            del row[j]
    elif kind == "row" and rng.random() < 0.5:
        rows.insert(rng.randrange(len(rows) + 1), [rng.randrange(2) for _ in range(width)])
    elif kind == "row" and rows:
        del rows[rng.randrange(len(rows))]
    elif kind in ("flip", "entry") and width:
        row, j = rng.choice(rows), rng.randrange(width)
        row[j] = int(row[j] != 1) if kind == "flip" else rng.choice((2, 256, -1, 1.5, True))


def _edit_cycles(doc, rng):
    """One seeded edit of a ``cycles`` id: drop, repeat or replace it."""
    cycle = rng.choice(doc["cycles"])
    if cycle:
        i, kind = rng.randrange(len(cycle)), rng.choice(("drop", "repeat", "replace"))
        if kind == "drop":
            del cycle[i]
        elif kind == "repeat":
            cycle.insert(i, cycle[i])
        else:
            cycle[i] = rng.choice((99, -1, 1.5))


def test_seeded_document_mutations_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    """200 bundled map documents with 1-3 seeded edits each, through every
    command: each exit is 0, 1, 2 or 4, nothing escapes ``main`` and no
    traceback is printed.  The exit counts are pinned."""
    texts = [
        path.read_text()
        for path in sorted(fixture_path("cube.json").parent.glob("*.json"))
        if "vertex_edge" in json.loads(path.read_text())
    ]
    rng = random.Random(37)
    path = tmp_path / "mutated.json"
    monkeypatch.chdir(tmp_path)
    exits = Counter()
    with _time_limit(20):
        for _ in range(200):
            doc = json.loads(rng.choice(texts))
            for _ in range(rng.randint(1, 3)):
                (_edit_cycles if rng.random() < 0.25 else _edit_matrix)(doc, rng)
            path.write_text(json.dumps(doc))
            exits.update(main([*command, "--input", str(path)]) for command in COMMANDS)
    assert "Traceback" not in "".join(capsys.readouterr())
    assert set(exits) <= {0, 1, 2, 4}
    assert exits == {0: 17, 1: 871, 2: 312}
