"""Span tracer installed from outside the package, for the traced pass only.

Every wrapped public callable records one span per call.  A span's self time
is its duration minus the time covered by the spans it directly encloses; the
tracer keeps one accumulator per open span, so nothing but aggregates is
stored.  Work the tracer itself does after a call (coefficient sizes, cell
counts) is booked as child time of the enclosing span, so it shows up as
tracing overhead and not as any layer's self time.

Ratios describe the program's own reuse during the workload's tasks, so they
are counted only while ``phase == "task"``; calls and self times cover the
whole traced pass, correctness gate included.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import lattice_gf.circulant
import lattice_gf.cli
import lattice_gf.loops
import lattice_gf.oracle
import lattice_gf.series
import lattice_gf.system

# Metric name -> (owner, attribute) pairs that all refer to one callable.
_SERIES = lattice_gf.series.TruncatedSeries
_SPANS = {
    "series.mul": [(_SERIES, "__mul__"), (_SERIES, "__rmul__")],
    "series.inverse": [(_SERIES, "inverse")],
    "series.addsub": [(_SERIES, "__add__"), (_SERIES, "__sub__"), (_SERIES, "__neg__")],
    "series.multisection": [(_SERIES, "multisection")],
    "loops.primitive_excursion_gf": [(lattice_gf.loops.LoopModel, "primitive_excursion_gf")],
    "loops.escaping_gf": [(lattice_gf.loops.LoopModel, "escaping_gf")],
    "system.build_system": [(lattice_gf.system, "build_system")],
    "system.solve_linear_system": [(lattice_gf.system, "solve_linear_system")],
    "system.solve_restricted": [(lattice_gf.system, "solve_restricted")],
    "circulant.series_determinant": [(lattice_gf.circulant, "series_determinant")],
    "circulant.restriction_circulant": [(lattice_gf.circulant, "restriction_circulant")],
    "circulant.escaping_circulant": [(lattice_gf.circulant, "escaping_circulant")],
    "circulant.quarter": [(lattice_gf.circulant, "quarter")],
    "cli.main": [(lattice_gf.cli, "main")],
}
_ORACLE_COUNTERS = (
    "count_restricted",
    "count_loops",
    "count_simple_loops",
    "count_escaping",
    "count_odd_length",
)
for _name in _ORACLE_COUNTERS:
    _SPANS.setdefault("oracle.count", []).append((lattice_gf.oracle, _name))
    if hasattr(lattice_gf.cli, _name):
        _SPANS["oracle.count"].append((lattice_gf.cli, _name))

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
REPORTED_SPANS = tuple(name for name in _SPANS if name != "system.solve_restricted")


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        num = getattr(c, "numerator", c)
        den = getattr(c, "denominator", 1)
        best = max(best, abs(num).bit_length(), den.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.phase = "task"
        self.max_coeff_bits = 0
        self.cell_steps = 0
        self.output_bytes = 0
        self.loop_series_built = 0
        self.loop_series_keys: set = set()
        self.solve_calls = 0
        self.solve_hits = 0
        self._open: list[float] = []
        self._build_seen = False

    # -- span bookkeeping ------------------------------------------------------

    def _wrap(self, name, original, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = tracer._open.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - covered
                if tracer._open:
                    tracer._open[-1] += elapsed
            if after is not None:
                start = time.perf_counter()
                after(result)
                if tracer._open:
                    tracer._open[-1] += time.perf_counter() - start
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "series.mul": (None, self._record_bits),
            "series.inverse": (None, self._record_bits),
            "loops.primitive_excursion_gf": (self._record_loop_series("excursion"), None),
            "loops.escaping_gf": (self._record_loop_series("escaping"), None),
            "system.build_system": (self._record_build, None),
            "system.solve_restricted": (self._start_solve, self._end_solve),
            "oracle.count": (None, self._record_cells),
        }
        for name, places in _SPANS.items():
            before, after = hooks.get(name, (None, None))
            wrappers = {}
            for owner, attr in places:
                original = getattr(owner, attr, None)
                if original is None:  # renamed or removed: report zero calls
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, before, after)
                setattr(owner, attr, wrappers[id(original)])

    # -- layer counters --------------------------------------------------------

    def _record_bits(self, result) -> None:
        if isinstance(result, _SERIES):
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))

    def _record_loop_series(self, kind):
        def before(args, kwargs):
            if self.phase == "task":
                model = args[0]
                self.loop_series_built += 1
                self.loop_series_keys.add((kind, model.dim, model.order))

        return before

    def _record_build(self, args, kwargs) -> None:
        self._build_seen = True

    def _start_solve(self, args, kwargs) -> None:
        self._build_seen = False

    def _end_solve(self, result) -> None:
        if self.phase == "task":
            self.solve_calls += 1
            self.solve_hits += not self._build_seen

    def _record_cells(self, table) -> None:
        half_len = len(table) - 1
        self.cell_steps += (4 * half_len + 3) ** table.dim * (2 * half_len + 1)

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        out = {}
        for name in REPORTED_SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["series.max_coeff_bits"] = self.max_coeff_bits
        out["oracle.cell_steps"] = self.cell_steps
        out["cli.output_bytes"] = self.output_bytes
        out["loops.series_built"] = self.loop_series_built
        out["loops.distinct_series"] = len(self.loop_series_keys)
        out["system.solve_calls"] = self.solve_calls
        out["system.solve_hits"] = self.solve_hits
        return out
