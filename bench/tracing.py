"""Span tracing of sphmax's public functions, installed from outside src/.

Every public function of each layer module is replaced, at every place its
name is bound (the defining module, each sphmax module that imports it, and
the sphmax namespace), by a wrapper that records a span: name, start, end,
parent span and operation id. Internal cross-module calls therefore show up
as child spans without any change to the library. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("quadrature", "fractal_set", "radial_operator",
          "type_set_geometry", "norm_probe", "cli")

# Functions whose per-layer metrics the benchmark reports. A refactor that
# renames or removes one must update this list, not silently lose its spans.
REQUIRED = {
    "quadrature": ("integrate",),
    "fractal_set": ("covering_number", "binary_covering_number",
                    "neighborhood_measure", "separated_points",
                    "estimate_dimensions", "parse_set"),
    "radial_operator": ("spherical_mean", "maximal_value",
                        "decomposition_components", "lp_norm",
                        "circular_components"),
    "type_set_geometry": ("radial_type_set", "predicted_probe_exponents"),
    "norm_probe": ("run_probe", "build_probe"),
    "cli": ("main", "load_config"),
}

# span tuple fields
ID, NAME, START, END, PARENT, OP, POINTS, ERROR = range(8)


class MissingLayerFunction(RuntimeError):
    """A function the benchmark traces no longer exists in its module."""


class Tracer:
    """Collects spans while active; wrappers pass straight through otherwise,
    so oracle calls made between operations are never counted."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread()
                is threading.main_thread() else [])
        return stack

    def wrap(self, qualname: str, fn):
        tracer = self
        tally = _TALLIES.get(qualname)

        def traced(*args, **kwargs):
            if not tracer.active or getattr(tracer._local, "quiet", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a worker thread's first span hangs under the span the main
            # thread is in, so pool work is charged to its caller
            parent = (stack[-1] if stack else
                      tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            cell = [0]
            if tally is not None:
                # library calls a tally makes are not part of the trace
                tracer._local.quiet = True
                try:
                    args, kwargs = tally(args, kwargs, cell)
                finally:
                    tracer._local.quiet = False
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, qualname, start, end, parent,
                                     tracer.op, cell[0], error))

        traced.__wrapped__ = fn
        return traced

    def install(self, callers=()) -> dict[str, list[str]]:
        """Wrap every public function of every layer, also where the caller
        modules bound it; returns the wrapped names per layer. Raises
        MissingLayerFunction when a REQUIRED name is gone."""
        modules = {name: importlib.import_module(f"sphmax.{name}")
                   for name in LAYERS}
        wrappers = {}
        wrapped: dict[str, list[str]] = {}
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                wrapped.setdefault(layer, []).append(attr)
            missing = [f for f in REQUIRED[layer]
                       if f not in wrapped.get(layer, ())]
            if missing:
                raise MissingLayerFunction(
                    f"sphmax.{layer} no longer defines {', '.join(missing)}; "
                    "update bench/tracing.py REQUIRED and the metric list")
        import sphmax
        for mod in (sphmax, *modules.values(), *callers):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        return wrapped

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op",
                                 "points", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _integrand_points(args, kwargs, cell):
    """Replace integrate's integrand by one that tallies its abscissae."""
    def counted(f):
        def g(s, dlo, dhi):
            cell[0] += getattr(s, "size", 1)
            return f(s, dlo, dhi)
        return g

    if args:
        return (counted(args[0]), *args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs["f"] = counted(kwargs["f"])
    return args, kwargs


def _grid_points(args, kwargs, cell):
    """Number of dilations maximal_value sweeps (its default grid if none)."""
    grid = args[4] if len(args) > 4 else kwargs.get("grid")
    if grid is None:
        from sphmax.radial_operator import DilationGrid
        E = args[3] if len(args) > 3 else kwargs["E"]
        grid = DilationGrid.from_set(E)
    cell[0] = len(grid.points)
    return args, kwargs


# per-span work counts, stored in the span's POINTS field
_TALLIES = {"quadrature.integrate": _integrand_points,
            "radial_operator.maximal_value": _grid_points}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], ()))
            for s in spans}


def _count_under(spans, child: str, ancestor: str) -> int:
    """Number of spans named child that have an ancestor span named
    ancestor."""
    by_id = {s[ID]: s for s in spans}
    n = 0
    for s in spans:
        if s[NAME] != child:
            continue
        p = s[PARENT]
        while p is not None:
            ps = by_id[p]
            if ps[NAME] == ancestor:
                n += 1
                break
            p = ps[PARENT]
    return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, artifact_bytes: int) -> dict:
    """Per-layer metrics named <module>.<function>.<stat> from one traced
    pass. artifact_bytes is tallied by the cli workload."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    points = 0
    grid_points = 0
    precision_errors = 0
    for s in spans:
        calls[s[NAME]] += 1
        self_s[s[NAME]] += selfs[s[ID]]
        incl[s[NAME]] += s[END] - s[START]
        if s[NAME] == "quadrature.integrate":
            points += s[POINTS]
            if s[ERROR] == "PrecisionError":
                precision_errors += 1
        elif s[NAME] == "radial_operator.maximal_value":
            grid_points += s[POINTS]

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, fns in REQUIRED.items():
        for fn in fns:
            q = f"{layer}.{fn}"
            put(f"{q}.calls", calls[q], "count")
            put(f"{q}.self_s", self_s[q], "s")

    integ = "quadrature.integrate"
    put(f"{integ}.points", points, "count")
    put(f"{integ}.points_per_call", _ratio(points, calls[integ]), "count")
    put(f"{integ}.us_per_point", 1e6 * _ratio(self_s[integ], points), "us")
    put(f"{integ}.precision_errors", precision_errors, "count")

    sm = "radial_operator.spherical_mean"
    put(f"{sm}.us_per_call", 1e6 * _ratio(incl[sm], calls[sm]), "us")
    mv = "radial_operator.maximal_value"
    put(f"{mv}.grid_points", grid_points, "count")
    put(f"{mv}.mean_calls_per_grid_point",
        _ratio(_count_under(spans, sm, mv), grid_points), "ratio")
    dc = "radial_operator.decomposition_components"
    put(f"{dc}.integrates_per_call",
        _ratio(_count_under(spans, integ, dc), calls[dc]), "ratio")
    rp = "norm_probe.run_probe"
    put(f"{rp}.maximal_value_calls_per_probe",
        _ratio(_count_under(spans, mv, rp), calls[rp]), "ratio")
    put("cli.artifact_bytes", artifact_bytes, "bytes")
    return out


def zero_call_layers(spans) -> list[str]:
    seen = {s[NAME].split(".", 1)[0] for s in spans}
    return [layer for layer in LAYERS if layer not in seen]


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return list(layer_metrics([], 0)) + ["trace.overhead_frac",
                                           "trace.zero_call_layers"]
