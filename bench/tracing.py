"""Spans around the public functions of each ``rankonegames`` module.

A ``Tracer`` replaces every binding of the traced functions in the
package's modules while it is installed: ``values`` imports ``purify``,
``seesaw_lower_bound`` and ``win_prob_entangled`` under its own names, and
the package root re-exports ``solve``, so patching only the defining
module would miss calls.  Each call becomes a span with a name, start,
end, parent span id and operation id; spans stay in memory until the run
writes them out.

``linalg`` is not traced: its calls are too fine-grained to wrap from
outside without distorting the run, so its time counts as self time of
the layer that called it.

Some results need work of their own, such as the compile probe
``sdp.solve(problem, max_iters=0)``.  That work runs with the tracer's
clock paused, so it falls outside every span and outside the traced wall
time.  A probe that raises marks its metric missing; it is not a failed
operation.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "rankonegames"

TRACED = {
    "cli": ("main",),
    "games": ("game_from_json", "game_power", "purify"),
    "values": (
        "maximal_value", "qow_value", "mu_norm", "haagerup_norm", "entangled_value_bounds",
        "haagerup_pairing_program", "mu_pairing_program", "haagerup_norm_program",
        "haagerup_witness_check",
    ),
    "sdp": ("solve",),
    "strategies": ("seesaw_lower_bound", "win_prob_entangled", "win_prob_oneway"),
}
LAYERS = tuple(TRACED)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.missing: set[str] = set()
        self.solves: list[dict] = []        # status, iterations, block side, compile time
        self.programs: list[tuple[int, int]] = []  # (parameters, equality rows)
        self.seesaw_converged: list[bool] = []
        self.wrapped: list[str] = []
        self.unwrapped: list[str] = []      # traced names this version lacks
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    # -- installation ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every module binding of the traced functions; restore on exit."""
        hooks = {"sdp.solve": self._solve_hook,
                 "strategies.seesaw_lower_bound": self._seesaw_hook}
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.unwrapped.append(f"{layer}.{name}")
                    continue
                hook = hooks.get(f"{layer}.{name}")
                if hook is None and name.endswith("_program"):
                    hook = self._program_hook
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, hook))
                self.wrapped.append(f"{layer}.{name}")
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = next(self._ids)
            self._stack.append(span_id)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.op))
            if hook is not None:
                with self.paused():
                    hook(fn, args, kwargs, result)
            return result
        return wrapper

    # -- result hooks (run with the clock paused) --------------------------------------

    def _solve_hook(self, solve, args, kwargs, sol):
        problem = args[0] if args else kwargs["problem"]
        rec = {"status": sol.status, "iterations": sol.iterations, "block_side": 0,
               "compile_s": 0.0}
        try:
            rec["block_side"] = max(int(c.constant.shape[0]) for c in problem.psd_constraints)
        except (AttributeError, TypeError, ValueError) as exc:
            self._mark_missing("sdp.block_side_max", exc)
        try:
            t0 = time.perf_counter()
            solve(problem, max_iters=0)
            rec["compile_s"] = time.perf_counter() - t0
        except Exception as exc:  # any probe failure only loses the metric
            self._mark_missing("sdp.compile_s", exc)
        self.solves.append(rec)

    def _program_hook(self, program, args, kwargs, problem):
        try:
            params = sum(v.side * v.side if v.domain == "hermitian"
                         else v.side * (v.side + 1) // 2 for v in problem.variables)
            self.programs.append((params, len(problem.equalities)))
        except (AttributeError, TypeError) as exc:
            self._mark_missing("values.params_max", exc)
            self._mark_missing("values.equalities_max", exc)

    def _seesaw_hook(self, seesaw, args, kwargs, res):
        try:
            self.seesaw_converged.append(bool(res.converged))
        except AttributeError as exc:
            self._mark_missing("strategies.seesaw_converged_frac", exc)

    def _mark_missing(self, metric, exc):
        if metric not in self.missing:
            sys.stderr.write(f"trace: {metric} missing ({type(exc).__name__}: {exc})\n")
        self.missing.add(metric)

    # -- aggregation -------------------------------------------------------------------

    def self_times(self, wall: float) -> dict[str, float]:
        """Self time per layer, plus the benchmark's own time outside every span."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.layer] += s.duration - child_time.get(s.id, 0.0)
        out["bench"] = wall - sum(s.duration for s in self.spans if s.parent is None)
        return out

    def total(self, *names: str) -> float:
        return sum((s.duration for s in self.spans if s.name in names), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_metrics(self, wall: float) -> dict[str, float | int | None]:
        selfs = self.self_times(wall)
        solves = self.solves
        iterations = sum(r["iterations"] for r in solves)
        solve_s = self.total("sdp.solve")
        compile_s = None
        if "sdp.compile_s" not in self.missing:
            compile_s = sum(r["compile_s"] for r in solves)
        programs = [n for n in self.wrapped if n.endswith("_program")]
        metrics = {
            "sdp.solve_s": solve_s,
            "sdp.solves": self.count("sdp.solve"),
            "sdp.iterations": iterations,
            "sdp.iter_s": ((solve_s - compile_s) / iterations
                           if compile_s is not None and iterations else None),
            "sdp.compile_s": compile_s,
            "sdp.block_side_max": max((r["block_side"] for r in solves), default=0),
            "sdp.nonoptimal": sum(1 for r in solves if r["status"] != "optimal"),
            "sdp.self_s": selfs["sdp"],
            "values.params_max": max((p for p, _ in self.programs), default=0),
            "values.equalities_max": max((e for _, e in self.programs), default=0),
            "values.program_s": self.total(*programs),
            "values.witness_check_s": self.total("values.haagerup_witness_check"),
            "values.self_s": selfs["values"],
            "strategies.seesaw_s": self.total("strategies.seesaw_lower_bound"),
            "strategies.seesaw_calls": self.count("strategies.seesaw_lower_bound"),
            # 0 when the workload runs no see-saw
            "strategies.seesaw_converged_frac": (
                sum(self.seesaw_converged) / len(self.seesaw_converged)
                if self.seesaw_converged else 0.0),
            "strategies.simulate_s": self.total("strategies.win_prob_entangled",
                                                "strategies.win_prob_oneway"),
            "strategies.self_s": selfs["strategies"],
            "games.self_s": selfs["games"],
            "cli.self_s": selfs["cli"],
            "bench.self_s": selfs["bench"],
        }
        for name in self.missing:
            if name in metrics:
                metrics[name] = None
        return metrics

    def spans_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]
