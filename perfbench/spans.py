"""In-memory span tracing of admmkit's public callables, installed from outside.

:class:`Tracer` wraps, in place, the problem-contract methods of the built-in
problem classes and the public module functions the benchmark attributes time
to (``engine.run``, every public function of ``diagnostics``, and
``bench.run_benchmark``). A module function is replaced in every ``admmkit.*``
namespace that binds it, so ``from .engine import run`` inside another module
is caught too. Spans are recorded only inside :meth:`Tracer.region` and kept
as ``(name, start, end, parent)`` tuples until :meth:`Tracer.write`.

A layer's self time is its spans' durations minus their children's. Summed
over every span, self time equals the time covered by root spans, so the
reported self times plus ``trace.unattributed_s`` add up to the traced wall by
construction. ``trace.unattributed_s`` itself is the timed wall outside every
root span: work the timed regions do in calls no span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
import weakref
from collections import Counter

#: (module, class) of each problem whose contract methods are traced; the
#: module name is the span prefix.
PROBLEM_CLASSES = (("lasso", "LassoInstance"), ("covsel", "CovselInstance"))

#: Contract methods traced on each problem class (``__init__`` as ``init``).
CONTRACT_METHODS = (
    "__init__", "solve_x", "solve_y", "apply_A", "apply_B", "constraint_residual",
    "objective", "x_subproblem_residual", "y_subproblem_residual",
    "x_stationarity", "y_stationarity",
)

#: Module functions traced besides the public functions of admmkit.diagnostics.
MODULE_FUNCTIONS = (("engine", "run"), ("bench", "run_benchmark"))

#: Diagnostics functions the per-layer metrics name; reported when absent.
NAMED_DIAGNOSTICS = ("reference_solution", "tilde_point", "fejer_check")

#: Span names whose self time is a metric of its own.
SELF_METRICS = {
    "lasso.init": "lasso.init_s",
    "lasso.solve_x.first": "lasso.solve_x.first_s",
    "lasso.solve_x": "lasso.solve_x.self_s",
    "lasso.solve_y": "lasso.solve_y.self_s",
    "covsel.init": "covsel.init_s",
    "covsel.solve_x": "covsel.solve_x.self_s",
    "covsel.solve_y": "covsel.solve_y.self_s",
    "covsel.objective": "covsel.objective.self_s",
    "engine.run": "engine.run.self_s",
    "bench.run_benchmark": "bench.run_benchmark.self_s",
}

#: Self-time metrics of the traced layers.
LAYER_SELF_METRICS = (
    *SELF_METRICS.values(), "engine.contract_ops.self_s", "diagnostics.self_s",
)

CONTRACT_OPS = ("apply_A", "apply_B", "constraint_residual")
SOLVE_X_SPANS = ("lasso.solve_x", "lasso.solve_x.first", "covsel.solve_x")

_MISSING = object()


def _self_metric(name: str) -> str:
    """Metric that carries the self time of spans called ``name``."""
    if name in SELF_METRICS:
        return SELF_METRICS[name]
    layer, _, method = name.partition(".")
    if layer == "diagnostics":
        return "diagnostics.self_s"
    if method in CONTRACT_OPS:
        return "engine.contract_ops.self_s"
    return "contract.other.self_s"


def _admmkit_namespaces():
    import admmkit

    for info in pkgutil.iter_modules(admmkit.__path__):
        if info.name != "__main__":
            importlib.import_module(f"admmkit.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "admmkit" or name.startswith("admmkit.")]


class Tracer:
    """Wraps admmkit's public callables and records spans while enabled."""

    def __init__(self):
        self.spans: list = []
        self.steps = 0
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list = []
        self._seen = weakref.WeakSet()

    # installation ---------------------------------------------------------

    def install(self) -> None:
        namespaces = _admmkit_namespaces()
        modules = {mod.__name__.rpartition(".")[2]: mod for mod in namespaces}
        for short, cls_name in PROBLEM_CLASSES:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is None:
                self.absent.append(f"{short}.{cls_name}")
                continue
            for method in CONTRACT_METHODS:
                original = getattr(cls, method, None)
                label = f"{short}.{method.strip('_')}"
                if original is None:
                    self.absent.append(label)
                    continue
                first = f"{label}.first" if label == "lasso.solve_x" else None
                self._restore.append((cls, method, cls.__dict__.get(method, _MISSING)))
                setattr(cls, method, self._wrap(label, original, first_name=first))

        targets = {}
        for short, name in MODULE_FUNCTIONS:
            fn = getattr(modules.get(short), name, None)
            if fn is None:
                self.absent.append(f"{short}.{name}")
            else:
                targets[id(fn)] = self._wrap(f"{short}.{name}", fn, count_steps=name == "run")
        diagnostics = modules.get("diagnostics")
        public = {
            name: fn for name, fn in (vars(diagnostics) if diagnostics else {}).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == "admmkit.diagnostics"
        }
        self.absent += [f"diagnostics.{n}" for n in NAMED_DIAGNOSTICS if n not in public]
        for name, fn in public.items():
            targets[id(fn)] = self._wrap(f"diagnostics.{name}", fn)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def region(self):
        """Record spans only inside this block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def _wrap(self, name, fn, first_name=None, count_steps=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name
            if first_name is not None and args[0] not in tracer._seen:
                tracer._seen.add(args[0])
                label = first_name
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if count_steps:
                tracer.steps += result.iterations
            return result

        return traced

    # reporting --------------------------------------------------------------

    def layer_metrics(self, wall_s: float, untraced_s: float):
        """Per-layer metrics from the recorded spans, and the self time of
        contract methods no metric names (zero unless a workload calls them).

        ``wall_s`` is the traced run's timed wall time, ``untraced_s`` the
        same work's wall time with the tracer not installed.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        in_run = [False] * len(spans)
        in_diagnostics = [False] * len(spans)
        root_s = 0.0
        for i, (_, start, end, parent) in enumerate(spans):
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
                parent_name = spans[parent][0]
                in_run[i] = in_run[parent] or parent_name == "engine.run"
                in_diagnostics[i] = (in_diagnostics[parent]
                                     or parent_name.startswith("diagnostics."))

        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        in_run_calls: Counter = Counter()
        resolves = 0
        diagnostics_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[_self_metric(name)] += end - start - child_s[i]
            total_s[name] += end - start
            if name.startswith("diagnostics.") and not in_diagnostics[i]:
                diagnostics_s += end - start
            calls[name] += 1
            if in_run[i]:
                in_run_calls[name.partition(".")[2]] += 1
            if name in SOLVE_X_SPANS and parent >= 0 and not in_run[i]:
                resolves += 1

        steps = self.steps
        metrics = {name: float(self_s[name]) for name in LAYER_SELF_METRICS}
        metrics.update({
            "lasso.solve_x.calls": calls["lasso.solve_x"] + calls["lasso.solve_x.first"],
            "covsel.solve_x.calls": calls["covsel.solve_x"],
            "covsel.objective.calls": calls["covsel.objective"],
            "engine.steps": steps,
            "engine.apply_B.per_step": in_run_calls["apply_B"] / steps if steps else 0.0,
            "engine.apply_A.per_step": in_run_calls["apply_A"] / steps if steps else 0.0,
            "diagnostics.total_s": diagnostics_s,
            "diagnostics.reference_solution.total_s":
                float(total_s["diagnostics.reference_solution"]),
            "diagnostics.tilde_point.calls": calls["diagnostics.tilde_point"],
            "diagnostics.fejer_check.total_s": float(total_s["diagnostics.fejer_check"]),
            "diagnostics.resolves": resolves,
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_s,
            "trace.unattributed_s": wall_s - root_s,
        })
        return metrics, self_s["contract.other.self_s"]

    def write(self, path) -> None:
        """Write the spans as CSV, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
