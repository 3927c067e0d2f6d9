"""Traced runs: spans around osbk's public functions, recorded from outside the program.

``install`` rebinds every public function and method of the osbk modules to a
wrapper that records a span (name, start, end, parent span, op id). Names one
osbk module imported from another are rebound too, as are the scipy entry
points osbk imports by name, so a call is traced whichever module makes it.
Counts come from values the public API already returns (``CurveScan.history``,
result lists and trial counts, candidate lists).

The benchmark runs with OSBK_THREADS=1, so all spans are on one thread and a
single stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "correspondence", "manifolds", "variational", "wall", "integrability", "poly", "core", "_pool")
SCIPY_ENTRY_POINTS = (("correspondence", "minimize_scalar"), ("manifolds", "minimize_scalar"))

TRIG_POINTWISE = tuple(f"manifolds.TrigImmersion.{m}" for m in ("value", "jacobian", "hessian"))
TRIG_BATCH = "manifolds.TrigImmersion.curve_batch"
SPEC_EVALUATORS = tuple(f"manifolds.ManifoldSpec.{m}" for m in ("embed", "tangent_basis", "embed_hessian"))
CHECKS = tuple(f"manifolds.{f}" for f in ("check_condition_L", "check_condition_LL", "symplectic_convexity_profile"))
SEARCHES = tuple(f"variational.{f}" for f in ("find_periodic_orbit", "find_boundary_orbit"))


class Recorder:
    """Spans kept in memory as columns; ``totals`` sums the counts hooks return, per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.totals: list[dict[str, int]] = []
        self.raised: set[int] = set()
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False

    def register(self, layer: str, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.totals.append({})
        return self._ids[name]

    def id_of(self, name: str) -> int:
        return self._ids.get(name, -1)

    def __len__(self) -> int:
        return len(self.start)


def wrap(rec: Recorder, fn: Callable, layer: str, name: str, hook: Callable | None = None) -> Callable:
    """``fn`` recording one span per call while ``rec.active``; ``hook(args, kwargs, result)`` gives counts."""
    nid = rec.register(layer, name)
    stack, clock, totals = rec.stack, time.perf_counter, rec.totals[nid]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        sid = len(rec.start)
        rec.name.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.op.append(rec.op_id)
        rec.end.append(0.0)
        stack.append(sid)
        rec.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.raised.add(sid)
            raise
        finally:
            rec.end[sid] = clock()
            stack.pop()
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                totals[key] = totals.get(key, 0) + value
        return result

    return traced


def _bound(fn: Callable) -> Callable:
    """Hook helper: bind a call's arguments by name, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _hooks(mods: dict) -> dict[str, Callable]:
    var, corr = mods["variational"], mods["correspondence"]
    thread_count = mods["_pool"].thread_count
    periodic, boundary = _bound(var.find_periodic_orbit), _bound(var.find_boundary_orbit)
    numeric = _bound(corr.step_graph_numeric)

    return {
        "correspondence.scan_curve_roots": lambda a, k, r: {
            "grid_points": sum(n for n, _ in r.history),
            "refinements": len(r.history) - 1,
        },
        "correspondence.iterate_ellipsoid": lambda a, k, r: {"steps": int(r.shape[0]) - 1},
        "correspondence.step_ellipsoid": lambda a, k, r: {"steps": 1},
        "correspondence.step_graph_numeric": lambda a, k, r: {"partners": len(r), "starts": numeric(a, k)["starts"]},
        TRIG_BATCH: lambda a, k, r: {"points": int(r.shape[0])},
        "variational.find_periodic_orbit": lambda a, k, r: {"starts": periodic(a, k)["starts"], "orbits": len(r.orbits)},
        "variational.find_boundary_orbit": lambda a, k, r: {
            "starts": boundary(a, k)["starts"] * (2 if boundary(a, k)["mode"] == "both" else 1),
            "orbits": len(r.orbits),
        },
        "wall.classify_cubic_table": lambda a, k, r: {"trials": int(r.trials)},
        "integrability.audit_invariance": lambda a, k, r: {"points": int(r.steps) + 1},
        "_pool.parallel_map": lambda a, k, r: {
            "maps": 1,
            "tasks": len(r),
            "workers": min(thread_count(), max(1, len(r))),
        },
    }


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every public osbk function and method; returns the function that undoes it."""
    import osbk

    mods = {layer: importlib.import_module("osbk." + layer) for layer in LAYERS}
    hooks = _hooks(mods)
    undo: list[tuple[object, str, object]] = []

    def put(owner, attr: str, new) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def tasks_as_spans(parallel_map: Callable) -> Callable:
        # each task becomes a span of the module that defined it, so the map's
        # self time is the pool's own time outside the tasks
        @functools.wraps(parallel_map)
        def mapped(fn, items):
            layer = fn.__module__.removeprefix("osbk.")
            return parallel_map(wrap(rec, fn, layer, f"{layer}.{fn.__qualname__}"), items)

        return mapped

    wrapped: dict[Callable, Callable] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                inner = tasks_as_spans(obj) if name == "_pool.parallel_map" else obj
                wrapped[obj] = wrap(rec, inner, layer, name, hooks.get(name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__call__":
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if inspect.isfunction(member):
                        put(obj, mname, wrap(rec, member, layer, name, hooks.get(name)))
                    elif isinstance(member, classmethod):
                        put(obj, mname, classmethod(wrap(rec, member.__func__, layer, name, hooks.get(name))))
    for mod in (osbk, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                put(mod, attr, wrapped[obj])
    for layer, attr in SCIPY_ENTRY_POINTS:
        name = f"scipy.{attr}"
        put(mods[layer], attr, wrap(rec, getattr(mods[layer], attr), "scipy", name, hooks.get(name)))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, ids in kids.items():
        lo, hi = start[p], end[p]
        covered, cur = 0.0, None
        for s, e in sorted((max(start[i], lo), min(end[i], hi)) for i in ids):
            if e <= s:
                continue
            if cur is None or s > cur[1]:
                if cur is not None:
                    covered += cur[1] - cur[0]
                cur = [s, e]
            else:
                cur[1] = max(cur[1], e)
        if cur is not None:
            covered += cur[1] - cur[0]
        out[p] -= covered
    return out


def layer_metrics(rec: Recorder, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced op unless the name says ratio."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    name_incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, nid in enumerate(rec.name):
        name = rec.names[nid]
        layer_self[rec.layers[nid]] += selfs[i]
        name_self[name] += selfs[i]
        name_incl[name] += rec.end[i] - rec.start[i]
        calls[name] += 1
    totals: dict[str, dict[str, int]] = defaultdict(dict, zip(rec.names, rec.totals))

    def per_op(x: float) -> float:
        return x / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(names, key: str) -> int:
        return sum(totals[n].get(key, 0) for n in ([names] if isinstance(names, str) else names))

    classify, conic = rec.id_of("wall.classify_cubic_table"), rec.id_of("wall.conic_intersections")
    conic_in_classify = 0
    for i, nid in enumerate(rec.name):
        if nid == conic:
            p = rec.parent[i]
            while p >= 0 and rec.name[p] != classify:
                p = rec.parent[p]
            conic_in_classify += p >= 0
    refused = sum(1 for i in rec.raised if rec.names[rec.name[i]] == "wall.multiplicity_curve")
    starts = total(SEARCHES, "starts")

    m = {f"{layer.lstrip('_')}.self_ms": per_op(1e3 * layer_self[layer]) for layer in LAYERS}
    m.update({
        "correspondence.scan.calls": per_op(calls["correspondence.scan_curve_roots"]),
        "correspondence.scan.grid_points": per_op(total("correspondence.scan_curve_roots", "grid_points")),
        "correspondence.scan.refinements": per_op(total("correspondence.scan_curve_roots", "refinements")),
        "correspondence.ellipsoid.steps": per_op(
            total(("correspondence.iterate_ellipsoid", "correspondence.step_ellipsoid"), "steps")
        ),
        "correspondence.numeric.yield": ratio(
            total("correspondence.step_graph_numeric", "partners"), total("correspondence.step_graph_numeric", "starts")
        ),
        "manifolds.trig.calls": per_op(sum(calls[n] for n in TRIG_POINTWISE) + calls[TRIG_BATCH]),
        "manifolds.trig.points": per_op(sum(calls[n] for n in TRIG_POINTWISE) + total(TRIG_BATCH, "points")),
        "manifolds.spec.calls": per_op(sum(calls[n] for n in SPEC_EVALUATORS)),
        "manifolds.checks_ms": per_op(1e3 * sum(name_incl[n] for n in CHECKS)),
        "variational.starts": per_op(starts),
        "variational.gen_fun.calls": per_op(calls["variational.gen_fun_periodic"] + calls["variational.gen_fun_boundary"]),
        "variational.hessian.calls": per_op(calls["variational.stationarity_hessian"]),
        "variational.orbit_yield": ratio(total(SEARCHES, "orbits"), starts),
        "scipy.minimize_scalar.calls": per_op(calls["scipy.minimize_scalar"]),
        "scipy.minimize_scalar.ms": per_op(1e3 * name_self["scipy.minimize_scalar"]),
        "wall.conic.calls": per_op(calls["wall.conic_intersections"]),
        "wall.conic_per_trial": ratio(conic_in_classify, total("wall.classify_cubic_table", "trials")),
        "wall.multiplicity.refused": ratio(refused, calls["wall.multiplicity_curve"]),
        "integrability.audit.points": per_op(total("integrability.audit_invariance", "points")),
        "integrability.bracket.calls": per_op(calls["integrability.poisson_bracket"]),
        "poly.eval.calls": per_op(calls["poly.Poly.__call__"]),
        "poly.diff.calls": per_op(calls["poly.Poly.diff"]),
        "core.omega.calls": per_op(calls["core.omega"]),
        "pool.tasks": per_op(total("_pool.parallel_map", "tasks")),
        "pool.workers": ratio(total("_pool.parallel_map", "workers"), total("_pool.parallel_map", "maps")),
    })
    return m
