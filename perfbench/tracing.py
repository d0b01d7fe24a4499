"""In-memory span tracing of cubicmaps layers, applied from outside the package.

Every traced function is replaced by a wrapper at *every* module of the
``cubicmaps`` package that binds it (``growth.cover_closure``,
``cli.cover_closure``, ``oracles.cover_closure`` and the defining module
itself), so calls are seen whichever import path they take.  Intra-module
calls resolve through module globals at call time and are seen too.

A span is ``(name, start, end, parent)``; it is recorded in ``finally`` so a
call that raises (``hamiltonian_covers`` raising ``NoHamiltonian``) still
counts, and adds one to the counter ``<name>.raised``.  A span's self time is its duration minus the durations of its
direct children; calls run on one thread and nest, so children never
overlap.

Counters are computed from each call's *output* (covers returned, matchings
returned, bytes written), so they depend only on the inputs and repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _closure_counters(args, kwargs, result, add):
    # Selections: the worklist expands every cover of the closure exactly
    # once, trying all 2**n(C) half-selections of it.
    add("closure.covers", len(result))
    add("closure.selections", sum(2 ** len(cover) for cover in result))


def _labelling_counters(args, kwargs, result, add):
    add("labelling.labellings", len(result))


def _hamiltonian_counters(args, kwargs, result, add):
    add("labelling.hamiltonian", len(result))


def _matching_counters(args, kwargs, result, add):
    add("oracles.matchings", len(result))


def _even_cover_counters(args, kwargs, result, add):
    add("oracles.even_covers", len(result))


def _trace_bytes(args, kwargs, result, add):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    add("serialize.bytes", os.path.getsize(path))


# (module, function, counter hook or None).  Hooks run on normal returns.
TRACED = (
    ("closure", "cover_closure", _closure_counters),
    ("labelling", "closure_labellings", _labelling_counters),
    ("labelling", "hamiltonian_covers", _hamiltonian_counters),
    ("growth", "grow", None),
    ("growth", "insert_edge", None),
    ("growth", "rewrite_cover", None),
    ("growth", "compatible_cover", None),
    ("incidence", "validate_map", None),
    ("incidence", "check_cover", None),
    ("incidence", "decompose_two_factor", None),
    ("oracles", "all_perfect_matchings", _matching_counters),
    ("oracles", "all_even_cycle_covers", _even_cover_counters),
    ("oracles", "all_proper_labellings", None),
    ("oracles", "check_shared_cycle", None),
    ("oracles", "compare_cover_sets", None),
    ("fourcolour", "face_colouring_from_labelling", None),
    ("fourcolour", "validate_face_colouring", None),
    ("serialize", "write_trace", _trace_bytes),
    ("serialize", "trace_documents", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _add(self, name: str, value: int) -> None:
        self.counters[name] += value

    def _wrap(self, name: str, fn, hook):
        spans, stack, add = self.spans, self._stack, self._add
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                add(f"{name}.raised", 1)
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, add)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cubicmaps" or key.startswith("cubicmaps."))
        ]
        for module_name, func_name, hook in TRACED:
            original = getattr(sys.modules[f"cubicmaps.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per-function ``{calls, s (self), total_s}`` and the counters since
        the last take; clears the in-memory spans."""
        if self._stack:
            raise RuntimeError("take() called while a traced call is open")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_fn: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = per_fn.setdefault(name, {"calls": 0, "s": 0.0, "total_s": 0.0})
            rec["calls"] += 1
            rec["s"] += (end - start) - child_time[i]
            rec["total_s"] += end - start
        # Draw yield needs to know which calls were growth's own draws.
        draws = inserts = 0
        for name, _, _, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == "growth.grow":
                draws += name == "growth.compatible_cover"
                inserts += name == "growth.insert_edge"
        counters = dict(self.counters)
        counters["growth.draws"] = draws
        counters["growth.insertions"] = inserts
        self.spans.clear()
        self.counters.clear()
        return per_fn, counters

