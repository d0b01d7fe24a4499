"""The three benchmark workloads and their pinned outputs.

Each workload is a fixed pool of inputs whose outputs were pinned from the
code at the commit that introduced this benchmark (``pins.json``).  A pass
visits the whole pool, in an order drawn from the run's ``--seed``, and
checks every output against its pin; an operation fails when its check
fails or it raises.  The pools are fixed rather than drawn from the seed
because growth time from the cube spans 0.15 s to 7 s per growth seed, so
seed-drawn pools would make the timings meaningless and the pins
impossible.

Library calls go through module attributes (``growth.grow``, ``cli.main``),
never through names bound here, so the tracer's patches see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import cubicmaps.cli as cli
import cubicmaps.fixtures as fixtures
import cubicmaps.fourcolour as fourcolour
import cubicmaps.growth as growth
import cubicmaps.incidence as incidence
import cubicmaps.oracles as oracles
import cubicmaps.serialize as serialize

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ops: int, failed: int, problem: str | None = None) -> None:
        self.attempted += ops
        self.failed += failed
        if problem:
            self.problems.append(problem)


def _raised(label: str) -> str:
    exc_type, exc, _ = sys.exc_info()
    return f"{label}: raised {exc_type.__name__}: {exc}\n{traceback.format_exc(limit=3)}"


class Workload:
    """Common pass logic; subclasses define one operation group per input."""

    name: str
    ops_per_item: int

    def __init__(self, pins: dict, tmpdir: Path):
        self.pins = pins
        self.tmpdir = tmpdir
        self.pool = list(pins["pool"])
        self.warmup_item = pins["warmup"]

    def run_item(self, item, result: PassResult) -> None:
        raise NotImplementedError

    def run_pass(self, order) -> PassResult:
        result = PassResult()
        for item in order:
            try:
                self.run_item(item, result)
            except Exception:
                result.add(self.ops_per_item, self.ops_per_item, _raised(f"{self.name} {item}"))
        return result

    def warm_up(self) -> PassResult:
        return self.run_pass([self.warmup_item])

    def expected_calls(self) -> dict[str, int]:
        """Traced call counts one pass over the pool must produce."""
        raise NotImplementedError


class GrowCube(Workload):
    """``cubicmaps grow --trace`` from the bundled cube, via ``cli.main``."""

    name = "grow_cube"
    ops_per_item = 1

    def __init__(self, pins, tmpdir):
        super().__init__(pins, tmpdir)
        self.iterations = pins["iterations"]
        self.cube_path = str(fixtures.fixture_path("cube.json"))

    def run_item(self, seed, result):
        path = self.tmpdir / f"grow-{seed}.jsonl"
        argv = ["grow", "--input", self.cube_path, "--iterations", str(self.iterations),
                "--seed", str(seed), "--trace", str(path)]
        with redirect_stdout(StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            result.add(1, 1, f"grow seed {seed}: exit code {rc}")
            return
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        os.remove(path)
        want = self.pins["trace_sha256"][str(seed)]
        if digest != want:
            result.add(1, 1, f"grow seed {seed}: trace sha256 {digest} != pinned {want}")
        else:
            result.add(1, 0)

    def expected_calls(self):
        runs = len(self.pool)
        maps = runs * (self.iterations + 1)
        return {
            "cli.main": runs,
            "growth.grow": runs,
            "serialize.write_trace": runs,
            "serialize.trace_documents": runs,
            "closure.cover_closure": maps,
            "labelling.closure_labellings": maps,
            "labelling.hamiltonian_covers": maps,
            "growth.insert_edge": runs * self.iterations,
            "growth.rewrite_cover": runs * self.iterations,
        }


# Per-map summary fields of the corpus pins, in order.
CORPUS_FIELDS = (
    "step", "fingerprint16", "closure_covers", "oracle_covers", "closure_labellings",
    "oracle_labellings", "hamiltonian", "closure_equals_oracle", "shared_cycle_holds",
    "colourings_valid",
)


class CorpusCheck(Workload):
    """Acceptance-corpus path: theta growth, both oracles, conjecture checks
    and four-colouring of every oracle labelling."""

    name = "corpus_check"

    def __init__(self, pins, tmpdir):
        super().__init__(pins, tmpdir)
        self.iterations = pins["iterations"]
        self.ops_per_item = self.iterations + 1

    @staticmethod
    def summarise(seed: int, iterations: int) -> list[list]:
        steps = growth.grow(fixtures.theta_map(), fixtures.theta_seed(),
                            iterations=iterations, rng_seed=seed)
        rows = []
        for i, st in enumerate(steps):
            oracle_covers = oracles.all_even_cycle_covers(st.map)
            oracle_labellings = oracles.all_proper_labellings(st.map)
            completeness = oracles.compare_cover_sets(st.map, st.covers, oracle_covers)
            shared = oracles.check_shared_cycle(st.map, covers=oracle_covers)
            colourings_valid = all(
                fourcolour.validate_face_colouring(
                    st.map, fourcolour.face_colouring_from_labelling(st.map, lab))
                for lab in oracle_labellings
            )
            rows.append([
                i, completeness.fingerprint[:16], len(st.covers), len(oracle_covers),
                len(st.labellings), len(oracle_labellings), len(st.hamiltonian),
                completeness.holds, shared.holds, colourings_valid,
            ])
        return rows

    def run_item(self, seed, result):
        rows = self.summarise(seed, self.iterations)
        pinned = self.pins["maps"][str(seed)]
        if len(rows) != len(pinned):
            result.add(self.ops_per_item, self.ops_per_item,
                       f"corpus seed {seed}: {len(rows)} maps, pinned {len(pinned)}")
            return
        for got, want in zip(rows, pinned):
            if got != want:
                result.add(1, 1, f"corpus seed {seed} map {want[0]}: {got} != pinned {want}")
            else:
                result.add(1, 0)

    def findings(self) -> dict[str, int]:
        """Finding counts of the pinned maps of one pass."""
        rows = [row for item in self.pool for row in self.pins["maps"][str(item)]]
        col = {name: i for i, name in enumerate(CORPUS_FIELDS)}
        return {
            "maps": len(rows),
            "closure_ne_oracle": sum(not r[col["closure_equals_oracle"]] for r in rows),
            "non_hamiltonian": sum(r[col["hamiltonian"]] == 0 for r in rows),
            "shared_cycle_witnesses": sum(not r[col["shared_cycle_holds"]] for r in rows),
        }

    def expected_calls(self):
        runs = len(self.pool)
        maps = runs * (self.iterations + 1)
        oracle_labellings = sum(
            row[CORPUS_FIELDS.index("oracle_labellings")]
            for item in self.pool for row in self.pins["maps"][str(item)]
        )
        return {
            "growth.grow": runs,
            "closure.cover_closure": maps,
            "labelling.closure_labellings": maps,
            "labelling.hamiltonian_covers": maps,
            "growth.insert_edge": runs * self.iterations,
            "growth.rewrite_cover": runs * self.iterations,
            "oracles.all_even_cycle_covers": maps,
            "oracles.all_perfect_matchings": maps,
            "oracles.all_proper_labellings": maps,
            "oracles.compare_cover_sets": maps,
            "oracles.check_shared_cycle": maps,
            "fourcolour.face_colouring_from_labelling": oracle_labellings,
            "fourcolour.validate_face_colouring": oracle_labellings,
        }


class InsertWalk(Workload):
    """Random insertion walks from theta or the cube without cover
    bookkeeping, validating the map after every insertion."""

    name = "insert_walk"

    def __init__(self, pins, tmpdir):
        super().__init__(pins, tmpdir)
        self.steps = pins["steps"]
        self.ops_per_item = self.steps

    @staticmethod
    def walk(seed: int, steps: int) -> tuple[object, int]:
        """The final map of walk ``seed`` and how many insertions broke an
        invariant (size deltas, ``validate_map``, ``euler_check``)."""
        rng = random.Random(seed)
        m = fixtures.theta_map() if rng.random() < 0.5 else fixtures.cube_map()
        bad = 0
        for _ in range(steps):
            face, e1, e2 = growth.choose_insertion(m, rng)
            m2, _ = growth.insert_edge(m, face, e1, e2)
            ok = (
                m2.n_vertices == m.n_vertices + 2
                and m2.n_edges == m.n_edges + 3
                and m2.n_internal_faces == m.n_internal_faces + 1
                and incidence.validate_map(m2) == []
                and incidence.euler_check(m2)
            )
            bad += not ok
            m = m2
        return m, bad

    def run_item(self, seed, result):
        m, bad = self.walk(seed, self.steps)
        fingerprint = serialize.map_fingerprint(m)
        want = self.pins["fingerprints"][str(seed)]
        if fingerprint != want:
            # The final map is wrong, so no insertion of the walk is trusted.
            result.add(self.steps, self.steps,
                       f"walk {seed}: fingerprint {fingerprint} != pinned {want}")
        elif bad:
            result.add(self.steps, bad, f"walk {seed}: {bad} insertions broke an invariant")
        else:
            result.add(self.steps, 0)

    def expected_calls(self):
        insertions = len(self.pool) * self.steps
        return {"growth.insert_edge": insertions, "incidence.validate_map": insertions}


WORKLOADS = {cls.name: cls for cls in (GrowCube, CorpusCheck, InsertWalk)}


def load(name: str, tmpdir: Path) -> Workload:
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    return WORKLOADS[name](pins[name], tmpdir)
