"""Command-line driver: config ingestion, experiment runs, JSON/CSV emission.

Commands: step, iterate, periodic, even-search, shoot, wall, classify,
integrability, check. Each reads parameters from a config file, from flags,
or both (flags win), runs the corresponding library routine with a single
master seed, and writes a JSON result plus CSV plot series under --out.

Config schema (all keys optional unless a command requires them):

    {"manifold": {...}, "command": {...}, "seed": 0, "out": "runs/x",
     "tolerances": {"residual": 1e-8}}

Unknown keys anywhere are rejected. Exit codes: 0 success, 2 search or
computation failure (machine-readable code in the error JSON), 3 config
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Any, Callable, Iterable

import numpy as np

from . import correspondence, integrability, variational, wall
from ._pool import task_rng
from .core import AffineLagrangian, as_phase_vector, interleave
from .errors import ConfigError, LinearAlgebraError, OsbkError, SearchFailedError
from .manifolds import (
    ManifoldSpec,
    coordinate_lagrangian_pair,
    check_condition_L,
    check_condition_LL,
    manifold_from_json,
    sample_params,
    symplectic_convexity_profile,
)
from .wall import CubicForm2

DEFAULT_TOLERANCES = {"residual": 1e-8}

_TOP_KEYS = {"manifold", "command", "seed", "out", "tolerances"}


class FlatObjectiveError(OsbkError):
    code = "flat-objective"


# -- parameter schemas ---------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # int | str | floats | points | json
    default: Any
    help: str
    required: bool = False
    low: int | None = None  # least accepted value of an int parameter


_COMMANDS: dict[str, list[Param]] = {
    "step": [
        Param("z", "floats", None, "source point, comma-separated phase coordinates", True),
        Param("branch", "int", 1, "ellipsoid chord branch, +1 or -1"),
        Param("starts", "int", 64, "Newton starts for numeric graph stepping", low=1),
    ],
    "iterate": [
        Param("z", "floats", None, "start point", True),
        Param("steps", "int", 1000, "number of correspondence steps", low=1),
        Param("branch", "int", 1, "+1 along gamma' on curves, positive root t on ellipsoids; -1 the reverse"),
    ],
    "periodic": [
        Param("n", "int", None, "orbit length (odd, >= 3)", True),
        Param("starts", "int", 64, "multi-start count", low=1),
        Param("mode", "str", "max", "max or min critical orbits"),
    ],
    "even-search": [
        Param("n", "int", None, "orbit length (even, >= 2)", True),
        Param("starts", "int", 256, "least-squares starts", low=1),
    ],
    "shoot": [
        Param("n", "int", None, "number of chain links", True),
        Param("starts", "int", 64, "multi-start count", low=1),
        Param("mode", "str", "both", "max, min, or both"),
        Param("l1", "json", None, "first affine Lagrangian {base, basis}; default x-subspace"),
        Param("l2", "json", None, "second affine Lagrangian; default y-subspace"),
    ],
    "wall": [
        Param("t_count", "int", 64, "curve parameter grid size", low=1),
        Param("plane_grid", "floats", [0.0], "kernel coefficients for wall-plane sampling"),
        Param("probes", "points", [], "points whose multiplicity to count, JSON [[x,y],...]"),
    ],
    "classify": [
        Param("coeffs", "floats", None, "cubic coefficients a,b,c,d", True),
        Param("trials", "int", 1000, "generic probes for the multiplicity histogram", low=1),
    ],
    "integrability": [
        Param("z", "floats", None, "ellipsoid start point (ellipsoid tables only)"),
        Param("steps", "int", 1000, "ellipsoid orbit length", low=1),
        Param("branch", "int", 1, "ellipsoid chord branch"),
        Param("pairs", "int", 100, "random correspondence pairs (cubic graphs)", low=1),
        Param("bracket_points", "int", 100, "random points for Poisson bracket checks", low=1),
    ],
    "check": [
        Param("samples", "int", 512, "parameter grid points in total (round(samples^(1/m)) per axis)", low=1),
        Param("probes", "points", [], "probe points for condition (LL); sampled if empty"),
        Param("probe_count", "int", 8, "auto-generated probe count when probes is empty", low=1),
    ],
}

_NEEDS_MANIFOLD = {k for k in _COMMANDS if k != "classify"}

_LIST_FLAGS = {f"--{p.name.replace('_', '-')}" for schema in _COMMANDS.values() for p in schema if p.kind == "floats"}
_NEGATIVE_LIST = re.compile(r"-[\d.][\d.eE+\-,]*")


# -- config handling -----------------------------------------------------------


def _coerce(p: Param, raw: Any) -> Any:
    try:
        if p.kind == "int":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)) or int(raw) != raw:
                raise ValueError
            if p.low is not None and raw < p.low:
                raise ConfigError(f"parameter '{p.name}' must be >= {p.low}")
            return int(raw)
        if p.kind == "str":
            if not isinstance(raw, str):
                raise ValueError
            return raw
        if p.kind in ("floats", "points"):
            vals = [[float(v) for v in row] for row in raw] if p.kind == "points" else [float(v) for v in raw]
            flat = [v for row in vals for v in row] if p.kind == "points" else vals
            if not all(math.isfinite(v) for v in flat):
                raise ConfigError(f"parameter '{p.name}' must hold finite numbers")
            return vals
        if p.kind == "json":
            if not isinstance(raw, dict):
                raise ValueError
            return raw
    except (TypeError, ValueError):
        raise ConfigError(f"parameter '{p.name}' has the wrong type (expected {p.kind})") from None
    raise ConfigError(f"unhandled parameter kind {p.kind}")


def _parse_flag(p: Param, text: str) -> Any:
    if p.kind == "int":
        return int(text)
    if p.kind == "str":
        return text
    if p.kind == "floats":
        return [float(v) for v in text.split(",") if v != ""]
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"flag --{p.name.replace('_', '-')} is not valid JSON: {e}") from None


def _attach_number_lists(argv: list[str]) -> list[str]:
    """Join ``--z -2,0`` into ``--z=-2,0``: argparse reads a separate list that starts with '-' as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_LIST.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def _check_top(key: str, value: Any) -> Any:
    """Validate one top-level value; the config file and the flags share this."""
    if key == "seed":
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
    elif key == "out":
        if not isinstance(value, str):
            raise ConfigError("out must be a path string")
    elif key == "tolerances":
        if not isinstance(value, dict):
            raise ConfigError("tolerances must be an object")
        unknown = set(value) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        for k, v in value.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
                raise ConfigError(f"tolerance '{k}' must be a positive finite number")
    return value


def _merged_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults, then config file, then flags; both layers pass the same checks."""
    schema = _COMMANDS[command]
    merged: dict[str, Any] = {p.name: p.default for p in schema}
    top: dict[str, Any] = {"manifold": None, "seed": 0, "out": None, "tolerances": dict(DEFAULT_TOLERANCES)}
    layers: list[tuple[dict, dict]] = []  # (top-level values, command parameters), lowest precedence first

    if args.config is not None:
        cfg = _load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(cfg) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        body = cfg.get("command", {})
        if not isinstance(body, dict):
            raise ConfigError("command must be an object of parameters")
        allowed = {p.name for p in schema} | {"name"}
        unknown = set(body) - allowed
        if unknown:
            raise ConfigError(f"unknown parameters for '{command}': {sorted(unknown)}")
        if "name" in body and body["name"] != command:
            raise ConfigError(f"config command name '{body['name']}' does not match '{command}'")
        layers.append(({k: v for k, v in cfg.items() if k != "command"}, body))

    flags: dict[str, Any] = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    if args.manifold is not None:
        text = args.manifold
        flags["manifold"] = _load_json_file(text[1:]) if text.startswith("@") else json.loads(text)
    if args.tolerances is not None:
        try:
            flags["tolerances"] = json.loads(args.tolerances)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--tolerances is not valid JSON: {e}") from None
    params = {p.name: _parse_flag(p, getattr(args, p.name)) for p in schema if getattr(args, p.name) is not None}
    layers.append((flags, params))

    for values, given in layers:
        for k, v in values.items():
            if k == "tolerances":
                top[k].update({name: float(tol) for name, tol in _check_top(k, v).items()})
            else:
                top[k] = _check_top(k, v)
        for p in schema:
            if p.name in given:
                merged[p.name] = _coerce(p, given[p.name])

    missing = [p.name for p in schema if p.required and merged[p.name] is None]
    if missing:
        raise ConfigError(f"'{command}' requires parameters: {missing}")
    merged["_top"] = top
    return merged


def _spec_from_top(command: str, top: dict) -> ManifoldSpec | None:
    if top["manifold"] is None:
        if command in _NEEDS_MANIFOLD:
            raise ConfigError(f"'{command}' requires a manifold (config key or --manifold)")
        return None
    if not isinstance(top["manifold"], dict):
        raise ConfigError("manifold must be a JSON object")
    return manifold_from_json(top["manifold"])


# -- emission ------------------------------------------------------------------


# integer and boolean columns; every other column holds floats
_INT_COLUMNS = frozenset({"index", "step", "count", "on_wall", "degenerate"})


def _coord_header(dim: int) -> list[str]:
    return [f"{'x' if i % 2 == 0 else 'y'}{i // 2 + 1}" for i in range(dim)]


def _write_csv(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    """Write the header and the rows (one tuple per row) in one pass.

    Every row goes through one ``%`` template: ``%d`` for the columns in
    ``_INT_COLUMNS`` (booleans as 1/0) and ``%.17g`` for the rest: 17
    significant digits, enough to read back the same float.
    """
    template = ",".join("%d" if h in _INT_COLUMNS else "%.17g" for h in header) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(map(template.__mod__, rows))
    except OSError as e:
        raise OsbkError(f"cannot write {path}: {e}") from None


def _emit(result: dict, series: dict[str, tuple[list[str], Iterable[tuple]]], out: str | None) -> None:
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "result.json"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise OsbkError(f"cannot write results under {out}: {e}") from None
    for name, (header, rows) in sorted(series.items()):
        _write_csv(os.path.join(out, name + ".csv"), header, rows)


def _indexed_rows(values: np.ndarray) -> Iterable[tuple]:
    """Rows (k, *values[k]) of a 2-D array, as plain Python numbers."""
    values = np.asarray(values, dtype=float)
    return zip(range(len(values)), *values.T.tolist())


def _orbit_series(vertices: np.ndarray) -> tuple[list[str], Iterable[tuple]]:
    return ["index"] + _coord_header(np.shape(vertices)[1]), _indexed_rows(vertices)


# -- command runners -----------------------------------------------------------

Series = dict[str, tuple[list[str], Iterable[tuple]]]


def _run_step(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    z = as_phase_vector(p["z"])
    cands = correspondence.step(spec, z, branch=p["branch"], seed=seed, starts=p["starts"])
    within = [c for c in cands if c.residual <= tols["residual"]]
    result = {
        "source": [float(v) for v in z],
        "candidates": [c.as_dict() for c in within],
        "count": len(within),
        "rejected": len(cands) - len(within),
    }
    if isinstance(cands, correspondence.NewtonPartners):
        # multi-start Newton can miss partners: count is a lower bound
        result.update(starts=cands.starts, converged_starts=cands.converged, count_is_lower_bound=True)
    header = ["index"] + _coord_header(z.size) + ["residual", "on_wall", "degenerate"]
    rows = [(i, *c.partner, c.residual, c.on_wall, c.degenerate) for i, c in enumerate(within)]
    return result, {"candidates": (header, rows)}


def _run_iterate(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    pts = correspondence.iterate(spec, p["z"], p["steps"], branch=p["branch"])
    result = {
        "steps": int(pts.shape[0] - 1),
        "start": [float(v) for v in pts[0]],
        "end": [float(v) for v in pts[-1]],
    }
    return result, {"orbit": _orbit_series(pts)}


def _within(orbits, tols: dict, required: bool = False) -> list:
    """The found orbits whose residual is within the ``residual`` tolerance; with
    ``required``, a search failure when none is."""
    kept = [o for o in orbits if o.orbit.max_residual <= tols["residual"]]
    if required and not kept:
        raise SearchFailedError("no orbit within the residual tolerance")
    return kept


def _run_periodic(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    res = variational.find_periodic_orbit(spec, p["n"], starts=p["starts"], seed=seed, mode=p["mode"])
    if res.flat_objective:
        raise FlatObjectiveError(res.message)
    if res.failed:
        raise SearchFailedError(res.message)
    kept = _within(res.orbits, tols, required=True)
    result = {
        "n": p["n"],
        "mode": p["mode"],
        "orbits": [o.as_dict() for o in kept],
        "best": kept[0].as_dict(),
        "message": res.message,
    }
    return result, {"orbit": _orbit_series(kept[0].orbit.vertices)}


def _run_even_search(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    res = variational.search_even_periodic(spec, p["n"], starts=p["starts"], seed=seed)
    nondegenerate = _within(res.nondegenerate, tols)
    result = {
        "n": p["n"],
        "nondegenerate_found": len(nondegenerate),
        "orbits": [o.as_dict() for o in _within(res.orbits, tols)],
        "converged": res.converged,
        "message": res.message,
    }
    series: Series = {}
    if nondegenerate:
        series["orbit"] = _orbit_series(nondegenerate[0].orbit.vertices)
    return result, series


def _lagrangian_from_json(data: dict | None, which: int, dim: int) -> AffineLagrangian:
    if data is None:
        return coordinate_lagrangian_pair(dim)[which]
    if set(data) != {"base", "basis"}:
        raise ConfigError("a Lagrangian is specified as {\"base\": [...], \"basis\": [[...], ...]}")
    try:
        return AffineLagrangian(np.asarray(data["base"], dtype=float), np.asarray(data["basis"], dtype=float))
    except ValueError as e:
        raise ConfigError(f"bad Lagrangian: {e}") from None


def _run_shoot(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    dim = spec.ambient_dim
    L1 = _lagrangian_from_json(p["l1"], 0, dim)
    L2 = _lagrangian_from_json(p["l2"], 1, dim)
    res = variational.find_boundary_orbit(spec, L1, L2, p["n"], starts=p["starts"], seed=seed, mode=p["mode"])
    if res.flat_objective:
        raise FlatObjectiveError(res.message)
    if res.failed:
        raise SearchFailedError(res.message)
    kept = _within(res.orbits, tols, required=True)  # sorted by value, as res.orbits
    best_max = kept[0] if res.best_max is not None else None
    best_min = kept[-1] if res.best_min is not None else None
    result = {
        "n": p["n"],
        "mode": p["mode"],
        "orbits": [o.as_dict() for o in kept],
        "best_max": None if best_max is None else best_max.as_dict(),
        "best_min": None if best_min is None else best_min.as_dict(),
        "message": res.message,
        "normalization": {
            "S": [[float(v) for v in row] for row in res.normalization.S],
            "b": [float(v) for v in res.normalization.b],
        },
    }
    series: Series = {}
    for tag, orb in (("orbit_max", best_max), ("orbit_min", best_min)):
        if orb is not None:
            verts = orb.vertices_ambient if orb.vertices_ambient is not None else orb.orbit.vertices
            series[tag] = _orbit_series(verts)
    return result, series


def _run_wall(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    if not spec.is_curve:
        raise ConfigError("wall sampling is defined for curve tables")
    t_grid = np.arange(p["t_count"]) * (2.0 * np.pi) / p["t_count"]
    samples = wall.curve_wall_samples(spec, t_grid, p["plane_grid"])
    n_s = max(2, max((len(s.plane_params) for s in samples), default=0))
    header = ["t"] + [f"s{i + 1}" for i in range(n_s)] + _coord_header(spec.ambient_dim) + ["singular_residual"]
    rows = []
    for s in samples:
        pad = list(s.plane_params) + [0.0] * (n_s - len(s.plane_params))
        rows.append((s.t, *pad, *s.P, s.singular_residual))
    probes_out = []
    mult_rows = []
    for i, (point, count) in enumerate(zip(p["probes"], wall.multiplicity_curve_stack(spec, p["probes"]))):
        entry: dict[str, Any] = {"point": [float(v) for v in point]}
        if isinstance(count, OsbkError):
            entry["error"] = {"code": count.code, "message": str(count)}
            if hasattr(count, "lower"):
                entry["error"]["lower"] = count.lower
                entry["error"]["upper"] = count.upper
        else:
            entry["count"] = count
            mult_rows.append((i, *point, count))
        probes_out.append(entry)
    result = {
        "samples": len(samples),
        "min_rank": min((s.rank for s in samples), default=0),
        "probes": probes_out,
    }
    series: Series = {"wall": (header, rows)}
    if mult_rows:
        mh = ["index"] + _coord_header(spec.ambient_dim) + ["count"]
        series["multiplicity"] = (mh, mult_rows)
    return result, series


def _run_classify(spec: ManifoldSpec | None, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    coeffs = p["coeffs"]
    if len(coeffs) != 4:
        raise ConfigError("classify needs exactly four coefficients a,b,c,d")
    f = CubicForm2(*coeffs)
    rep = wall.classify_cubic_table(f, trials=p["trials"], seed=seed)
    return {**rep.as_dict(), "resultant": wall.cubic_resultant(f)}, {}


def _run_integrability(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    ints = integrability.integrals_for(spec)
    # one (points, 2d) draw gives the same stream as one draw per point
    Z = task_rng(seed, 1).uniform(-2.0, 2.0, (p["bracket_points"], spec.ambient_dim))
    brackets = [integrability.poisson_bracket(f, g, Z) for f, g in combinations(ints.evaluators, 2)]
    bmax = float(np.max(np.abs(brackets), initial=0.0))
    if ints.kind == "ellipsoid":
        if p["z"] is None:
            raise ConfigError("integrability on an ellipsoid needs a start point z")
        pts = correspondence.iterate(spec, p["z"], p["steps"], branch=p["branch"])
        audit = integrability.audit_invariance(spec, ints, pts)
        rows = _indexed_rows(audit.point_values)
        extra = {"steps": p["steps"]}
    else:
        graph = spec.table
        lo, hi = graph.box
        rng_pairs = task_rng(seed, 2)
        Q, W = np.empty((p["pairs"], graph.n)), np.empty((p["pairs"], graph.n))
        for i in range(p["pairs"]):  # one pair at a time: a redraw of w moves the later pairs' draws
            Q[i] = rng_pairs.uniform(lo, hi, graph.n)
            W[i] = rng_pairs.uniform(-1.0, 1.0, graph.n)
            while float(np.linalg.norm(W[i])) < 1e-3:
                W[i] = rng_pairs.uniform(-1.0, 1.0, graph.n)
        g, Hw = graph.grad(Q), (graph.hess(Q) @ W[:, :, None])[:, :, 0]
        audit = integrability.audit_chords(spec, ints, interleave(Q + W, g + Hw), interleave(Q - W, g - Hw))
        rows = _indexed_rows(audit.chord_drift)
        extra = {"pairs": p["pairs"]}
    result = {
        "kind": ints.kind,
        "brackets_max": bmax,
        "bracket_points": p["bracket_points"],
        "audit": audit.as_dict(),
        **extra,
    }
    names = [f"I_{i + 1}" for i in range(len(ints.evaluators))]
    return result, {"drift": (["step"] + names, rows)}


def _auto_probes(spec: ManifoldSpec, count: int, seed: int) -> list[np.ndarray]:
    pts = sample_params(spec, 32)
    X = spec.embed(pts)
    lo, hi = X.min(axis=0), X.max(axis=0)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo) + 1.0
    return list(center + task_rng(seed, 3).uniform(-1.5, 1.5, (count, X.shape[1])) * half)


def _run_check(spec: ManifoldSpec, p: dict, seed: int, tols: dict) -> tuple[dict, Series]:
    probes = [as_phase_vector(v) for v in p["probes"]] or _auto_probes(spec, p["probe_count"], seed)
    rl = check_condition_L(spec, samples=p["samples"])
    rll = check_condition_LL(spec, probes, samples=p["samples"])
    result: dict[str, Any] = {
        "condition_L": {
            "holds": rl.holds,
            "samples": rl.samples,
            "witness": None
            if rl.witness is None
            else {
                "u0": [float(v) for v in np.atleast_1d(rl.witness[0])],
                "ui": [float(v) for v in np.atleast_1d(rl.witness[1])],
                "uj": [float(v) for v in np.atleast_1d(rl.witness[2])],
                "omega": float(rl.witness[3]),
            },
        },
        "condition_LL": {
            "holds": rll.holds,
            "per_probe": list(rll.per_probe),
            "probes": [[float(v) for v in P] for P in probes],
            "samples": rll.samples,
        },
        "convexity": asdict(symplectic_convexity_profile(spec)) if spec.is_curve else None,
    }
    return result, {}


_RUNNERS: dict[str, Callable] = {
    "step": _run_step,
    "iterate": _run_iterate,
    "periodic": _run_periodic,
    "even-search": _run_even_search,
    "shoot": _run_shoot,
    "wall": _run_wall,
    "classify": _run_classify,
    "integrability": _run_integrability,
    "check": _run_check,
}


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # bad usage is a config error: error JSON, exit 3
        _report_error(ConfigError(f"{self.prog}: {message}"), None)
        self.exit(3)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # a pure function of _COMMANDS, and parse_args keeps no state between
    # calls: one parser per process, built on the first main call
    parser = _Parser(prog="osbk", description="Outer symplectic billiard toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    for name, schema in _COMMANDS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--manifold", help="manifold JSON (inline, or @path)")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", help="output directory for result.json and CSV series")
        sp.add_argument("--tolerances", help="JSON tolerance overrides")
        for p in schema:
            sp.add_argument(f"--{p.name.replace('_', '-')}", dest=p.name, help=p.help)
    return parser


def _report_error(e: OsbkError, out: str | None) -> None:
    payload = {"error": {"code": e.code, "message": str(e)}}
    for attr in ("lower", "upper"):
        if hasattr(e, attr):
            payload["error"][attr] = getattr(e, attr)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stderr.write(text)
    if out is not None:
        try:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "error.json"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    """Run one command from ``argv`` (default: ``sys.argv[1:]``) and return its exit code.

    May be called repeatedly in one process; the argument parser is built on
    the first call and reused. Bad usage writes config error JSON and exits 3.
    """
    args = _build_parser().parse_args(_attach_number_lists(sys.argv[1:] if argv is None else argv))
    out: str | None = None
    try:
        merged = _merged_config(args.cmd, args)
        top = merged.pop("_top")
        out = top["out"]
        spec = _spec_from_top(args.cmd, top)
        result, series = _RUNNERS[args.cmd](spec, merged, top["seed"], top["tolerances"])
        result.update(command=args.cmd, seed=top["seed"], tolerances=top["tolerances"])
        _emit(result, series, out)
        return 0
    except np.linalg.LinAlgError as e:  # a ValueError, but a failed computation, not bad input
        _report_error(LinearAlgebraError(str(e)), out)
        return 2
    except ConfigError as e:
        _report_error(e, out)
        return 3
    except ValueError as e:
        # parameter validation raised by library constructors / searches
        _report_error(ConfigError(str(e)), out)
        return 3
    except OsbkError as e:
        _report_error(e, out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
