"""Spans around the library's public functions, installed from outside.

The tracer replaces functions and methods with timing wrappers: module
functions in every ``detmld`` module that holds them (modules import each
other's functions by name), class methods on the class.  Each span records a
name, start, end and parent id in flat in-memory arrays; self times are
computed after the pass, as duration minus the time covered by child spans.
The process is single-threaded, so child spans never overlap and their
coverage is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

ROOT = "bench.pass"

# (span name, module, attribute path).  run.py sums the orbits.* and mld.*
# spans into one metric per layer.
TRACED = [
    ("linalg.build", "detmld.linalg", "PreparedSolver.__init__"),
    ("linalg.solve", "detmld.linalg", "PreparedSolver.solve"),
    ("forms.verify_nash", "detmld.forms", "verify_nash"),
    ("forms.reduce_top_form", "detmld.forms", "reduce_top_form"),
    ("forms.verify_chart_transition", "detmld.forms", "verify_chart_transition"),
    ("tableaux.standard_coordinates", "detmld.tableaux", "standard_coordinates"),
    ("tableaux.bideterminant", "detmld.tableaux", "bideterminant"),
    ("tableaux.enumerate_standard_basis", "detmld.tableaux", "enumerate_standard_basis"),
    ("polynomials.mul", "detmld.polynomials", "MultiPoly.__mul__"),
    ("polynomials.minor_poly", "detmld.polynomials", "minor_poly"),
    ("polynomials.substitute_series", "detmld.polynomials", "substitute_series"),
    ("oracle.minimize_objective", "detmld.oracle", "minimize_objective"),
    ("oracle.discrepancy_objective", "detmld.oracle", "discrepancy_objective"),
    ("oracle.series_minor_order", "detmld.oracle", "series_minor_order"),
    ("core.alpha_prefix", "detmld.core", "DeterminantalPair.alpha_prefix"),
    ("cli.main", "detmld.cli", "main"),
] + [
    (f"orbits.{fn}", "detmld.orbits", fn)
    for fn in (
        "orbit_in_jet_space", "orbit_has_finite_codim", "orbit_meets_point_fiber",
        "contact_order_subvariety", "nash_contact_order", "orbit_codim", "orbit_codim_point",
    )
] + [
    (f"mld.{fn}", "detmld.mld", fn)
    for fn in (
        "beta_coefficients", "first_lc_violation", "is_lc_at_rank", "mld_at_rank",
        "is_lc_along", "mld_along", "is_terminal", "semicontinuity_profile",
    )
]

# A solver build is classified by its parent span: content blocks are built
# under standard_coordinates, division solvers directly under the reduction.
BUILD_BLOCK = "linalg.build.block"
BUILD_DIVISION = "linalg.build.division"


class Tracer:
    def __init__(self):
        self.names = [ROOT, BUILD_BLOCK, BUILD_DIVISION]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.counters = {
            "build_cells": 0, "build_nonzeros": 0, "build_n_max": 0,
            "solve_inconsistent": 0, "denominator_power_max": 0,
            "tails": 0, "prefix_unbounded": 0,
        }
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_end.append(0)
        self.current = sid
        self.span_start.append(time.perf_counter_ns())
        return sid

    def exit(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self.current = self.span_parent[sid]

    @contextlib.contextmanager
    def root(self):
        sid = self.enter(self._ids[ROOT])
        try:
            yield
        finally:
            self.exit(sid)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TRACED:
            owner_name, _, attr = path.rpartition(".")
            module = sys.modules[module_name]
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if owner_name:
                # Class method: every alias on the class (e.g. __rmul__).
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "detmld" or mod_name.startswith("detmld."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
        self._patch(sys.modules["detmld.oracle"], "iter_tails",
                    self._count_tails(sys.modules["detmld.oracle"].iter_tails))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        enter, exit_, counters = self.enter, self.exit, self.counters
        if name == "linalg.build":
            block_id, division_id = self._ids[BUILD_BLOCK], self._ids[BUILD_DIVISION]
            parent_id = self._name_id("tableaux.standard_coordinates")
            names = self.span_name

            def build(solver, columns):
                cur = self.current
                nid = block_id if cur >= 0 and names[cur] == parent_id else division_id
                if columns:
                    rows = len(columns[0])
                    counters["build_cells"] += rows * len(columns)
                    counters["build_nonzeros"] += sum(1 for col in columns for v in col if v != 0)
                    counters["build_n_max"] = max(counters["build_n_max"], rows, len(columns))
                sid = enter(nid)
                try:
                    return fn(solver, columns)
                finally:
                    exit_(sid)

            return build

        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid)
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def _count_tails(self, fn):
        counters = self.counters

        def iter_tails(*args, **kwargs):
            for tail in fn(*args, **kwargs):
                counters["tails"] += 1
                yield tail

        return iter_tails

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name span count, self time and total time, in nanoseconds."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        stats = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration[i] - covered[i]
            entry[2] += duration[i]
        return {"spans": stats, "counters": dict(self.counters), "span_count": n}

    def write(self, path) -> None:
        """Spans as tab-separated id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )


def _observe_solve(counters, result):
    if result is None:
        counters["solve_inconsistent"] += 1


def _observe_reduction(counters, result):
    counters["denominator_power_max"] = max(counters["denominator_power_max"], result.denominator_power)


def _observe_minimize(counters, result):
    if result.prefix_unbounded:
        counters["prefix_unbounded"] += 1


_OBSERVERS = {
    "linalg.solve": _observe_solve,
    "forms.reduce_top_form": _observe_reduction,
    "oracle.minimize_objective": _observe_minimize,
}
