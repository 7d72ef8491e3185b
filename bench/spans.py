"""Spans around the program's layer entry points, for the traced run.

``Tracer.install`` replaces each entry point, at the module attribute its
caller looks it up by, with a wrapper that records a span: its name, thread,
start, end, self time (duration minus the child spans on the same thread)
and the work counters of that call.  Spans stay in memory; ``Tracer.totals``
folds one op's spans into raw sums, and ``layer_metrics`` turns the sums of
a run into the per-layer metrics.

A target whose module is not imported yet is wrapped when it is imported.  A
target that no longer exists is skipped and reports 0 calls.
"""

from __future__ import annotations

import importlib.abc
import inspect
import itertools
import math
import sys
import threading
import time

#: (module, attribute, span name).  Spans that share a name share a metric.
TARGETS = (
    ("sheafkit.cli", "model_from_dict", "presheaf.load"),
    ("sheafkit.cli", "check_compatibility", "presheaf.compat"),
    ("sheafkit.cli", "support_of", "presheaf.support"),
    ("sheafkit.cli", "sheaf_check", "gluing.sheaf_check"),
    ("sheafkit.cli", "is_noncontextual", "gluing.lp_build"),
    ("sheafkit.cli", "contextual_fraction", "gluing.lp_build"),
    ("sheafkit.cli", "obstruction_report", "cohomology.report"),
    ("sheafkit.cli", "parse_proposition", "ctxlogic"),
    ("sheafkit.cli", "seven_value_of", "ctxlogic"),
    ("sheafkit.gluing", "build_incidence", "gluing.incidence"),
    ("sheafkit.simplex", "maximize_leq", "simplex.solve"),
    ("sheafkit.simplex", "feasible_eq", "simplex.solve"),
    ("sheafkit.cohomology", "build_coboundary_matrices", "cohomology.coboundary"),
    ("sheafkit.cohomology", "obstruction", "cohomology.obstruction"),
    ("sheafkit.cohomology", "solve", "cohomology.solve"),
    ("sheafkit.cohomology", "cech_invariants", "cohomology.invariants"),
    ("sheafkit.cohomology", "smith_normal_form", "intlinalg.snf"),
    ("sheafkit.intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("sheafkit.dynamics", "evolve", "dynamics.evolve"),
    ("sheafkit.dynamics", "quantum_potential", "dynamics.q"),
    ("sheafkit.dynamics", "compute_observables", "dynamics.observables"),
    ("numpy.fft", "fft", "dynamics.fft"),
    ("numpy.fft", "ifft", "dynamics.fft"),
)

SUBCOMMANDS = ("check", "fraction", "cohomology", "logic", "evolve")
COMBINATORIAL = ("check", "fraction", "cohomology", "logic")

_now = time.perf_counter_ns


# ---------------------------------------------------------------------------
# Work counters read from a call's arguments and result.


def _matrix_rows_cols(mat) -> tuple[int, int]:
    return getattr(mat, "m", 0), getattr(mat, "n", 0)


def _count_incidence(arguments, result) -> dict:
    rows, cols = len(result.rows), len(result.columns)
    return {"incidence_builds": 1, "globals": cols, "incidence_cells": rows * cols}


def _count_lp(arguments, result) -> dict:
    a = arguments["a"]
    m = len(a)
    n = len(a[0]) if m else 0
    return {"simplex_calls": 1, "pivots": result.pivots, "tableau_cells": m * (n + m)}


def _count_coboundary(arguments, result) -> dict:
    rows, cols = _matrix_rows_cols(result.d0)
    return {"d0_cells": rows * cols}


def _count_snf(arguments, result) -> dict:
    rows, cols = _matrix_rows_cols(arguments["mat"])
    return {"snf_calls": 1, "snf_cells": rows * cols}


def _count_obstruction(arguments, result) -> dict:
    return {"sections": 1}


#: span name -> counter(bound arguments, result) for the spans that count work
COUNTERS = {
    "gluing.incidence": _count_incidence,
    "simplex.solve": _count_lp,
    "cohomology.coboundary": _count_coboundary,
    "intlinalg.snf": _count_snf,
    "cohomology.obstruction": _count_obstruction,
}


# ---------------------------------------------------------------------------


class _Frame:
    __slots__ = ("span_id", "child_ns")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_ns = 0


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._pending: dict[str, list[tuple[str, str]]] = {}
        self._hook: _ImportHook | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                self._pending.setdefault(module_name, []).append((attr, span))
            else:
                self._wrap(module, attr, span)
        if self._pending:
            self._hook = _ImportHook(self)
            sys.meta_path.insert(0, self._hook)

    def uninstall(self) -> None:
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        self._pending.clear()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _module_imported(self, module) -> None:
        for attr, span in self._pending.pop(module.__name__, ()):
            self._wrap(module, attr, span)

    def _wrap(self, module, attr: str, span: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return  # removed by a later version of the program: 0 calls
        if span == "dynamics.evolve":
            wrapper = self._evolve_wrapper(original)
        elif span == "dynamics.fft":
            wrapper = self._fft_wrapper(original)
        else:
            wrapper = self._wrapper(original, span, COUNTERS.get(span))
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, extra=None, count=None):
        stack = self._stack()
        parent = stack[-1].span_id if stack else 0
        frame = _Frame(next(self._ids))
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1].child_ns += duration
        counts = dict(extra or {})
        if count is not None:
            counts.update(count(result))
        self.spans.append((self.op_id, frame.span_id, parent, threading.get_ident(), name,
                           start, end, duration - frame.child_ns, counts))
        return result

    def _wrapper(self, fn, name: str, counter):
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            if signature is None:
                return self._call(name, fn, args, kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            return self._call(name, fn, args, kwargs,
                              count=lambda result: counter(arguments, result))

        traced.__wrapped__ = fn
        return traced

    def _evolve_wrapper(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            params, grid = bound.arguments["params"], bound.arguments["grid"]
            steps = int(round(bound.arguments["t_final"] / bound.arguments["dt"]))
            kind = "linear" if params.lam == 1.0 else "nonlinear"
            self._local.evolve_kind = kind
            try:
                return self._call("dynamics.evolve", fn, args, kwargs,
                                  extra={f"steps_{kind}": steps, "grid_n": grid.n_points})
            finally:
                self._local.evolve_kind = None

        traced.__wrapped__ = fn
        return traced

    def _fft_wrapper(self, fn):
        def traced(a, *args, **kwargs):
            kind = getattr(self._local, "evolve_kind", None) or "outside"
            n = len(a)
            counts = {f"fft_calls_{kind}": 1, "fft_flops": 5 * n * math.log2(n) if n > 1 else 0,
                      "fft_bytes": 32 * n}
            return self._call("dynamics.fft", fn, (a,) + args, kwargs, extra=counts)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, main, argv: list[str]) -> int:
        """Run ``main(argv)`` as one op, inside a span named after its subcommand."""
        self.op_id += 1
        sub = argv[0] if argv and argv[0] in SUBCOMMANDS else "other"
        return self._call(f"cli.{sub}", main, (argv,), {})

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict:
        """Fold the recorded spans into raw sums and clear them."""
        out: dict[str, float] = {}
        for _op, _sid, _parent, _thread, name, start, end, self_ns, counts in self.spans:
            out[f"self_ns:{name}"] = out.get(f"self_ns:{name}", 0) + self_ns
            out[f"calls:{name}"] = out.get(f"calls:{name}", 0) + 1
            if name == "dynamics.evolve":
                kind = "linear" if "steps_linear" in counts else "nonlinear"
                key = f"evolve_ns_{kind}"
                out[key] = out.get(key, 0) + (end - start)
            for key, value in counts.items():
                if key != "grid_n":
                    out[key] = out.get(key, 0) + value
        self.spans.clear()
        return out


class _ImportHook(importlib.abc.MetaPathFinder):
    """Wraps pending targets once their module has been executed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.tracer._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None and spec.loader is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_wrap(module):
            exec_module(module)
            tracer._module_imported(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def add_totals(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run.

#: name -> (unit, raw sums it is made of).  ``_ms`` values are self time.
_SELF_MS = {
    "presheaf.load_ms": ("presheaf.load",),
    "presheaf.compat_ms": ("presheaf.compat",),
    "presheaf.support_ms": ("presheaf.support",),
    "gluing.sheaf_check_ms": ("gluing.sheaf_check",),
    "gluing.lp_build_ms": ("gluing.lp_build",),
    "gluing.incidence_ms": ("gluing.incidence",),
    "simplex.solve_ms": ("simplex.solve",),
    "cohomology.coboundary_ms": ("cohomology.coboundary",),
    "cohomology.obstruction_ms": ("cohomology.obstruction", "cohomology.solve"),
    "cohomology.invariants_ms": ("cohomology.invariants",),
    "cohomology.report_ms": ("cohomology.report",),
    "intlinalg.snf_ms": ("intlinalg.snf",),
    "ctxlogic.ms": ("ctxlogic",),
    "dynamics.fft_ms": ("dynamics.fft",),
    "dynamics.q_ms": ("dynamics.q",),
    "dynamics.observables_ms": ("dynamics.observables",),
    "dynamics.evolve_self_ms": ("dynamics.evolve",),
}
_COUNTS = {
    "gluing.incidence_builds": "incidence_builds",
    "gluing.globals": "globals",
    "gluing.incidence_cells": "incidence_cells",
    "simplex.calls": "simplex_calls",
    "simplex.pivots": "pivots",
    "simplex.tableau_cells": "tableau_cells",
    "cohomology.d0_cells": "d0_cells",
    "cohomology.sections": "sections",
    "intlinalg.snf_calls": "snf_calls",
    "intlinalg.snf_cells": "snf_cells",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "cli.interp_start_ms": "ms",
        "cli.import_ms": "ms",
        "cli.numpy_loaded_ops": "count",
    }
    units.update({f"cli.op_ms.{sub}": "ms" for sub in SUBCOMMANDS})
    units.update({name: "ms" for name in _SELF_MS})
    units.update({name: "count" for name in _COUNTS})
    units.update({
        "dynamics.step_us_linear": "us",
        "dynamics.step_us_nonlinear": "us",
        "dynamics.fft_calls_per_step_linear": "count",
        "dynamics.fft_calls_per_step_nonlinear": "count",
        "dynamics.fft_flops_per_step": "flop_computed",
        "dynamics.fft_bytes_per_step": "B_computed",
        "trace.overhead_frac": "fraction",
    })
    return units


def layer_metrics(raw: dict, passes: int, process: dict, overhead_frac: float) -> dict:
    """Per-layer metrics from the raw sums of ``passes`` traced passes.

    Times and counts are per pass (the run's sums divided by the number of
    traced passes), so counts repeat exactly whatever the run length.
    ``process`` carries the interpreter-start, import and numpy figures.
    """
    def get(key):
        return raw.get(key, 0)

    ms = 1e-6
    out = {
        "cli.interp_start_ms": process["interp_start_ns"] * ms,
        "cli.import_ms": process["import_ns"] * ms,
        "cli.numpy_loaded_ops": process["numpy_loaded_ops"],
    }
    for sub in SUBCOMMANDS:
        out[f"cli.op_ms.{sub}"] = get(f"self_ns:cli.{sub}") * ms / passes
    for name, spans in _SELF_MS.items():
        out[name] = sum(get(f"self_ns:{s}") for s in spans) * ms / passes
    for name, key in _COUNTS.items():
        out[name] = get(key) / passes
    for kind in ("linear", "nonlinear"):
        steps = get(f"steps_{kind}")
        out[f"dynamics.step_us_{kind}"] = get(f"evolve_ns_{kind}") * 1e-3 / steps if steps else 0.0
        out[f"dynamics.fft_calls_per_step_{kind}"] = (
            get(f"fft_calls_{kind}") / steps if steps else 0.0
        )
    steps = get("steps_linear") + get("steps_nonlinear")
    out["dynamics.fft_flops_per_step"] = get("fft_flops") / steps if steps else 0.0
    out["dynamics.fft_bytes_per_step"] = get("fft_bytes") / steps if steps else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
