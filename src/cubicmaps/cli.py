"""Command-line surface: validate, enumerate, grow, check, export.

Exit codes are a stable contract for CI: 0 success, 1 domain failure
(invalid map, refuted conjecture), 2 parse/I-O failure or bad argument
(a negative ``--iterations`` or oracle cap), 3 no compatible
insertion found during growth (a shared-cycle conjecture witness), 4
oracle cap exceeded.  A closure without a Hamiltonian cycle is not a
failure: ``enumerate`` and ``grow`` print a warning and exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapExceeded, MapError, NoCompatibleInsertion
from .growth import grow
from .incidence import check_cover, validate_map
from .labelling import labelling_from_cover
from .oracles import (
    DEFAULT_ORACLE_CAP,
    check_closure_completeness,
    check_shared_cycle,
)
from .serialize import (
    canonical_json,
    cycles_from_json,
    load_map,
    map_to_document,
    step_to_document,
    to_dot,
    write_trace,
)

CAP_ENV_VAR = "CCG_ORACLE_CAP"


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(args):
    try:
        return load_map(args.input)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise _CliFailure(2, f"cannot read map document: {exc}") from exc


def _load_valid(args):
    """Load the map and its seed cycles; an invalid map fails with exit 1
    and its validation report, before any derived adjacency is used."""
    m, cycles = _load(args)
    report = validate_map(m)
    if report:
        raise _CliFailure(1, "invalid map:\n" + "\n".join(report))
    return m, cycles


def _resolve_cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get(CAP_ENV_VAR)
        try:
            cap = int(env) if env else DEFAULT_ORACLE_CAP
        except ValueError:
            raise _CliFailure(2, f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
        source = CAP_ENV_VAR
    if cap < 0:
        raise _CliFailure(2, f"{source} must be >= 0, got {cap}")
    return cap


def cmd_validate(args) -> int:
    m, _ = _load(args)
    report = validate_map(m)
    if report:
        for line in report:
            print(line)
        return 1
    print(f"map is valid: V={m.n_vertices}, E={m.n_edges}, F_internal={m.n_internal_faces}")
    return 0


def cmd_enumerate(args) -> int:
    m, cycles = _load_valid(args)
    if not cycles:
        raise _CliFailure(2, "input document has no seed cycles")
    step = grow(m, cycles, iterations=0, rng_seed=0)[0]
    if not step.hamiltonian:
        print("warning: no Hamiltonian cycle among the covers")
    print(
        f"{len(step.covers)} cycle covers, {len(step.hamiltonian)} Hamiltonian, "
        f"{len(step.labellings)} labellings"
    )
    if args.out:
        doc = step_to_document(0, step)
        doc = {key: doc[key] for key in ("covers", "labellings", "hamiltonian")}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc) + "\n")
    return 0


def cmd_grow(args) -> int:
    m, cycles = _load_valid(args)
    if not cycles:
        raise _CliFailure(2, "input document has no seed cycles")
    if args.iterations < 0:
        raise _CliFailure(2, "--iterations must be >= 0")
    cover = check_cover(m, cycles)
    try:
        steps = grow(m, cover, iterations=args.iterations, rng_seed=args.seed)
    except NoCompatibleInsertion as exc:
        witness_path = args.out or "shared_cycle_witness.json"
        with open(witness_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(exc.witness) + "\n")
        print(f"no compatible insertion exists; witness written to {witness_path}")
        return 3
    for i, step in enumerate(steps):
        print(
            f"step {i}: V={step.map.n_vertices} E={step.map.n_edges} "
            f"covers={len(step.covers)} labellings={len(step.labellings)} "
            f"hamiltonian={len(step.hamiltonian)}"
        )
        if not step.hamiltonian:
            print(f"warning: step {i} found no Hamiltonian cycle in the closure")
    if args.trace:
        write_trace(steps, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def cmd_check(args) -> int:
    m, cycles = _load_valid(args)
    if not cycles:
        raise _CliFailure(2, "input document has no seed cycles")
    cap = _resolve_cap(args)
    if m.n_edges > cap:
        raise CapExceeded(f"map has {m.n_edges} edges, oracle cap is {cap}")
    cover = check_cover(m, cycles)
    injected = None
    if args.covers:
        try:
            with open(args.covers, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, list):
                raise ValueError("covers file must be a list of covers")
            covers = [cycles_from_json(c) for c in doc]
        except (OSError, ValueError) as exc:
            raise _CliFailure(2, f"cannot read covers file: {exc}") from exc
        injected = tuple(check_cover(m, c) for c in covers)
    reports = [
        check_closure_completeness(m, cover, cap=cap),
        check_shared_cycle(m, cap=cap, covers=injected),
    ]
    for rep in reports:
        print(f"conjecture {rep.conjecture}: {rep.verdict}")
    refuted = [rep for rep in reports if not rep.holds]
    if refuted:
        witness_path = args.out or "conjecture_witnesses.json"
        with open(witness_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json([rep.to_document() for rep in refuted]) + "\n")
        print(f"witnesses written to {witness_path}")
        return 1
    return 0


def cmd_export(args) -> int:
    m, cycles = _load_valid(args)
    cover = check_cover(m, cycles) if cycles else None
    if args.format == "json":
        payload = canonical_json(map_to_document(m, cycles=cycles or None)) + "\n"
    else:
        labelling = labelling_from_cover(m, cover) if cover else None
        payload = to_dot(m, labelling=labelling, cover=cover)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicmaps",
        description="cubic planar maps: even cycle covers, labellings, growth, conjecture checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="map document (JSON)")
        p.add_argument("--out", help="output artifact path")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the structural invariants of a map")
    add("enumerate", cmd_enumerate, "cycle covers, labellings and Hamiltonian cycles")

    p = add("grow", cmd_grow, "insert random edges, re-enumerating after each")
    p.add_argument("--iterations", type=int, default=0, help="number of edge insertions")
    p.add_argument("--seed", type=int, default=0, help="random generator seed")
    p.add_argument("--trace", help="write a JSON-lines growth trace here")

    p = add("check", cmd_check, "machine-check both conjectures against the oracles")
    p.add_argument("--cap", type=int, help=f"oracle edge cap (default {DEFAULT_ORACLE_CAP}, env {CAP_ENV_VAR})")
    p.add_argument("--covers", help="JSON cover list overriding the oracle (regression use)")

    p = add("export", cmd_export, "write the canonical JSON document or DOT source")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
