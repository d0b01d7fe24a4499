"""Command-line surface: validate, enumerate, grow, check, export.

Exit codes are a stable contract for CI: 0 success, 1 domain failure
(invalid map, refuted conjecture), 2 parse/I-O failure or bad argument
(an unreadable or too deeply nested document, an unwritable output path,
a negative ``--iterations`` or ``--cap``), 3 reserved (growth cannot get
stuck: every closure has a host for a pair of equal edges), 4 oracle cap
exceeded or a map too deep for the oracle search.  A closure without a
Hamiltonian cycle is not a failure: ``enumerate`` and ``grow`` warn and
exit 0.  ``check`` tests both conjectures on one oracle cover enumeration.
"""

from __future__ import annotations

import argparse
import sys

from .closure import cover_closure
from .errors import CapExceeded, MapError
from .growth import grow, growth_step
from .incidence import check_cover, validate_map
from .labelling import labelling_from_cover
from .oracles import (
    DEFAULT_ORACLE_CAP,
    all_even_cycle_covers,
    check_shared_cycle,
    compare_cover_sets,
)
from .serialize import (
    _record_json,
    canonical_json,
    load_map,
    map_to_document,
    to_dot,
    trace_documents,
    write_trace,
)


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(args):
    """The one reader of outside JSON: any failure to read or parse the map
    document, deep nesting included, exits 2."""
    try:
        return load_map(args.input)
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliFailure(2, f"cannot read map document: {exc}") from exc


def _load_valid(args, seeded: bool = False):
    """Load the map and its seed cycles; an invalid map fails with exit 1
    and its validation report, before any derived adjacency is used.  A
    ``seeded`` command also fails with exit 2 when there are no cycles."""
    m, cycles = _load(args)
    report = validate_map(m)
    if report:
        raise _CliFailure(1, "invalid map:\n" + "\n".join(report))
    if seeded and not cycles:
        raise _CliFailure(2, "input document has no seed cycles")
    return m, cycles


def _write(path, text: str = "", steps=None) -> None:
    """Write ``text``, or the trace of ``steps``; any OSError exits 2.  With
    neither, probe the path: append nothing, so an existing file is kept."""
    try:
        if steps is not None:
            write_trace(steps, path)
        else:
            with open(path, "w" if text else "a", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise _CliFailure(2, f"cannot write {path}: {exc}") from exc


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
    m, cycles = _load_valid(args, seeded=True)
    if args.out:
        _write(args.out)  # fail on an unwritable path before the closure runs
    step = growth_step(m, check_cover(m, cycles))
    if not step.hamiltonian:
        print("warning: no Hamiltonian cycle among the covers")
    print(
        f"{len(step.covers)} cycle covers, {len(step.hamiltonian)} Hamiltonian, "
        f"{len(step.labellings)} labellings"
    )
    if args.out:
        doc = trace_documents([step])[0]
        doc = {key: doc[key] for key in ("covers", "labellings", "hamiltonian")}
        _write(args.out, _record_json(doc) + "\n")
    return 0


def cmd_grow(args) -> int:
    m, cycles = _load_valid(args, seeded=True)
    if args.iterations < 0:
        raise _CliFailure(2, "--iterations must be >= 0")
    if args.trace:
        _write(args.trace)  # fail on an unwritable path before growth runs
    steps = grow(m, cycles, iterations=args.iterations, rng_seed=args.seed)
    for i, step in enumerate(steps):
        print(
            f"step {i}: V={step.map.n_vertices} E={step.map.n_edges} "
            f"covers={len(step.covers)} labellings={len(step.labellings)} "
            f"hamiltonian={len(step.hamiltonian)}"
        )
        if not step.hamiltonian:
            print(f"warning: step {i} found no Hamiltonian cycle in the closure")
    if args.trace:
        _write(args.trace, steps=steps)
        print(f"trace written to {args.trace}")
    return 0


def cmd_check(args) -> int:
    m, cycles = _load_valid(args, seeded=True)
    if args.cap < 0:
        raise _CliFailure(2, f"--cap must be >= 0, got {args.cap}")
    # one oracle enumeration serves both conjectures; its cap check (exit 4)
    # comes before the closure's cover check (exit 1)
    oracle = all_even_cycle_covers(m, args.cap)
    reports = [
        compare_cover_sets(m, cover_closure(m, cycles), oracle),
        check_shared_cycle(m, covers=oracle),
    ]
    for rep in reports:
        print(f"conjecture {rep.conjecture}: {rep.verdict}")
    refuted = [rep for rep in reports if not rep.holds]
    if refuted:
        witness_path = args.out or "conjecture_witnesses.json"
        _write(witness_path, canonical_json([rep.to_document() for rep in refuted]) + "\n")
        print(f"witnesses written to {witness_path}")
        return 1
    return 0


def cmd_export(args) -> int:
    m, cycles = _load_valid(args)
    cover = check_cover(m, cycles) if cycles else None
    if args.format == "json":
        payload = canonical_json(map_to_document(m, cycles=cover)) + "\n"
    else:
        labelling = labelling_from_cover(m, cover) if cover else None
        payload = to_dot(m, labelling=labelling, cover=cover)
    if args.out:
        _write(args.out, payload)
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
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the structural invariants of a map")
    p = add("enumerate", cmd_enumerate, "cycle covers, labellings and Hamiltonian cycles")
    p.add_argument("--out", help="write the covers, labellings and Hamiltonian cycles here (JSON)")

    p = add("grow", cmd_grow, "insert random edges, re-enumerating after each")
    p.add_argument("--iterations", type=int, default=0, help="number of edge insertions")
    p.add_argument("--seed", type=int, default=0, help="random generator seed")
    p.add_argument("--trace", help="write a JSON-lines growth trace here")

    p = add("check", cmd_check, "machine-check both conjectures against the oracles")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                   help=f"oracle edge cap (default {DEFAULT_ORACLE_CAP})")
    p.add_argument("--out", help="write the refuted conjectures' witnesses here "
                   "(default conjecture_witnesses.json)")

    p = add("export", cmd_export, "write the canonical JSON document or DOT source")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="write the document here instead of to standard output")
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
