"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of the traced spliths modules
and rebinds each wrapper at every binding site: the defining module and
every spliths module that imported the function by name.  Nothing inside
`src/` knows about tracing.  Each wrapper keeps calls, inclusive seconds and
the seconds spent in wrapped callees, so self time is inclusive minus child
time.  A few functions also feed counters (LP size, SOC decision grid).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("analysis", "cones", "lp", "toric", "lattice", "linalg", "flat",
           "induced", "cli")


class Stat:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(int)
        self.soc_systems = set()
        self.active = False
        self._stack = []
        self._rebound = []
        # qualname -> (before(args, kwargs) -> state, after(state, result))
        self._hooks = {
            "lp.solve_lp": (self._lp_before, self._lp_after),
            "cones.soc_feasible": (self._soc_before, self._soc_after),
            "cones.boundary_meet": (self._lp_calls, self._boundary_meet_after),
        }
        self._soc_signature = None

    def reset(self):
        self.stats.clear()
        self.counts.clear()
        self.soc_systems.clear()

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module("spliths." + short)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap("%s.%s" % (short, name), fn)
        self._soc_signature = inspect.signature(
            importlib.import_module("spliths.cones").soc_feasible)
        for module in self._program_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._rebound.append((module, name, value))
        # a module outside the program that imported a function by name
        # (the benchmark's own, say) would call past the tracer
        leftover = [(m.__name__, name) for m in list(sys.modules.values())
                    if m is not None
                    for name, value in list(vars(m).items())
                    if inspect.isfunction(value) and value in wrappers]
        if leftover:
            raise RuntimeError("unwrapped binding sites: %s" % leftover)
        self.active = True

    def uninstall(self):
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound.clear()
        self.active = False

    @staticmethod
    def _program_modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "spliths"
                                      or name.startswith("spliths."))]

    def _wrap(self, qualname, fn):
        stat = self.stats  # reset() clears it in place
        stack = self._stack
        before, after = self._hooks.get(qualname, (None, None))

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            state = before(args, kwargs) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stat[qualname]
                entry.calls += 1
                entry.total_s += elapsed
                entry.child_s += frame[0]
            if after:
                after(state, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters ------------------------------------------------------------

    def _lp_before(self, args, kwargs):
        nvars = args[0] if args else kwargs["nvars"]
        rows = len(args[1] if len(args) > 1 else kwargs["constraints"])
        self.counts["lp.rows_max"] = max(self.counts["lp.rows_max"], rows)
        self.counts["lp.cells"] += rows * nvars

    def _lp_after(self, state, result):
        if result.status == "infeasible":
            self.counts["lp.infeasible"] += 1

    def _soc_before(self, args, kwargs):
        bound = self._soc_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        system = bound.arguments["sys"]
        self.soc_systems.add((
            system.nvars,
            tuple((e.coeffs, e.const) for e in system.eqs),
            tuple((h.coeffs, h.const) for h in system.ineqs),
            tuple((c.l0.coeffs, c.l0.const, c.l1.coeffs, c.l1.const,
                   c.l2.coeffs, c.l2.const) for c in system.cones),
            bound.arguments["resolution"], bound.arguments["allow_numeric"]))

    def _soc_after(self, state, result):
        if result.status == "unknown":
            self.counts["soc.unknown"] += 1
        elif result.method == "numeric-polish":
            self.counts["soc.numeric_polish"] += 1
        else:
            self.counts["soc.decided_at_%s" % result.resolution] += 1

    def _lp_calls(self, args, kwargs):
        return self.stats["lp.solve_lp"].calls

    def _boundary_meet_after(self, lp_calls_before, result):
        self.counts["boundary_meet.lp_calls"] += (
            self.stats["lp.solve_lp"].calls - lp_calls_before)


class Suspended:
    """Context manager: run untraced code (checks) while installed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.was = False

    def __enter__(self):
        if self.tracer is not None:
            self.was = self.tracer.active
            self.tracer.active = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = self.was
        return False


# (metric, unit, source): source is (qualname, field) for wrapper stats or
# a counter name.  The order and names match BENCHMARK.json's per_layer.
def _stat(qualname, field):
    return ("stat", qualname, field)


def _count(name):
    return ("count", name, None)


PER_LAYER = (
    ("lp.solve_lp.calls", "count", _stat("lp.solve_lp", "calls")),
    ("lp.solve_lp.self_s", "s", _stat("lp.solve_lp", "self_s")),
    ("lp.solve_lp.rows_max", "rows", _count("lp.rows_max")),
    ("lp.solve_lp.cells", "cells", _count("lp.cells")),
    ("lp.solve_lp.infeasible", "count", _count("lp.infeasible")),
    ("lp.verify_farkas.calls", "count", _stat("lp.verify_farkas", "calls")),
    ("lp.verify_farkas.s", "s", _stat("lp.verify_farkas", "total_s")),
    ("cones.soc_feasible.calls", "count", _stat("cones.soc_feasible", "calls")),
    ("cones.soc_feasible.s", "s", _stat("cones.soc_feasible", "total_s")),
    ("cones.soc_feasible.distinct_ratio", "ratio", ("distinct", None, None)),
    ("cones.soc_feasible.decided_at_2", "count", _count("soc.decided_at_2")),
    ("cones.soc_feasible.decided_at_12", "count", _count("soc.decided_at_12")),
    ("cones.soc_feasible.decided_at_60", "count", _count("soc.decided_at_60")),
    ("cones.soc_feasible.numeric_polish", "count", _count("soc.numeric_polish")),
    ("cones.soc_feasible.unknown", "count", _count("soc.unknown")),
    ("cones.boundary_meet.calls", "count", _stat("cones.boundary_meet", "calls")),
    ("cones.boundary_meet.s", "s", _stat("cones.boundary_meet", "total_s")),
    ("cones.boundary_meet.lp_calls", "count", _count("boundary_meet.lp_calls")),
    ("cones.wall_exclusion_certificate.calls", "count",
     _stat("cones.wall_exclusion_certificate", "calls")),
    ("cones.wall_exclusion_certificate.s", "s",
     _stat("cones.wall_exclusion_certificate", "total_s")),
    ("cones.strict_interior_point.calls", "count",
     _stat("cones.strict_interior_point", "calls")),
    ("cones.strict_interior_point.s", "s",
     _stat("cones.strict_interior_point", "total_s")),
    ("cones.positively_spanning.s", "s", _stat("cones.positively_spanning", "total_s")),
    ("analysis.k_is_empty.calls", "count", _stat("analysis.k_is_empty", "calls")),
    ("analysis.k_is_empty.s", "s", _stat("analysis.k_is_empty", "total_s")),
    ("analysis.connectedness_test.self_s", "s",
     _stat("analysis.connectedness_test", "self_s")),
    ("analysis.freeness_test.self_s", "s", _stat("analysis.freeness_test", "self_s")),
    ("analysis.degeneracy_test.self_s", "s", _stat("analysis.degeneracy_test", "self_s")),
    ("analysis.cint_probe.self_s", "s", _stat("analysis.cint_probe", "self_s")),
    ("analysis.sample_points.s", "s", _stat("analysis.sample_points", "total_s")),
    ("analysis.smoothness_test.s", "s", _stat("analysis.smoothness_test", "total_s")),
    ("analysis.analyze.self_s", "s", _stat("analysis.analyze", "self_s")),
    ("toric.cone_system.calls", "count", _stat("toric.cone_system", "calls")),
    ("toric.incidence.calls", "count", _stat("toric.incidence", "calls")),
    ("toric.incidence.s", "s", _stat("toric.incidence", "total_s")),
    ("toric.fiber_enumerate.s", "s", _stat("toric.fiber_enumerate", "total_s")),
    ("lattice.extends_to_lattice_basis.calls", "count",
     _stat("lattice.extends_to_lattice_basis", "calls")),
    ("lattice.extends_to_lattice_basis.s", "s",
     _stat("lattice.extends_to_lattice_basis", "total_s")),
    ("linalg.mat_vec.calls", "count", _stat("linalg.mat_vec", "calls")),
    ("linalg.mat_vec.s", "s", _stat("linalg.mat_vec", "total_s")),
    ("linalg.kernel_basis.s", "s", _stat("linalg.kernel_basis", "total_s")),
    ("linalg.mat_mul.s", "s", _stat("linalg.mat_mul", "total_s")),
    ("linalg.endomorphism_from_forms.s", "s",
     _stat("linalg.endomorphism_from_forms", "total_s")),
    ("flat.flat_structure.calls", "count", _stat("flat.flat_structure", "calls")),
    ("flat.flat_structure.s", "s", _stat("flat.flat_structure", "total_s")),
    ("induced.induced_structure.calls", "count",
     _stat("induced.induced_structure", "calls")),
    ("induced.induced_structure.self_s", "s",
     _stat("induced.induced_structure", "self_s")),
    ("cli.config_from_dict.s", "s", _stat("cli.config_from_dict", "total_s")),
    ("cli.report_to_dict.s", "s", _stat("cli.report_to_dict", "total_s")),
    ("cli.emit_report.s", "s", _stat("cli.emit_report", "total_s")),
)


def layer_metrics(tracer, overhead_share):
    """Every per-layer metric, in PER_LAYER order, plus the overhead."""
    out = {}
    for name, unit, (kind, key, field) in PER_LAYER:
        if kind == "stat":
            entry = tracer.stats.get(key) or Stat()
            value = (entry.total_s - entry.child_s if field == "self_s"
                     else getattr(entry, field))
        elif kind == "count":
            value = tracer.counts.get(key, 0)
        else:
            calls = tracer.stats["cones.soc_feasible"].calls
            value = len(tracer.soc_systems) / calls if calls else 0.0
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_share"] = {"value": overhead_share, "unit": "ratio"}
    return out
