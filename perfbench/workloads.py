"""Workload definitions: reference tables and seeded op generation.

An op is one experiment as a user runs it: an argv for ``osbk.cli.main``
plus the facts its reference check needs. Ops are generated from the
workload seed alone, with the standard library, so the program under test
sees nothing but the generated argv. Op ``i`` of a workload always belongs
to cycle ``i // len(kinds)`` and has kind ``kinds[i % len(kinds)]``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

ELLIPSOID_START = "2,0.1,-1,2.2"
CIRCLE_START = (2.0, 0.3)
CHEB_RADIUS = 2.5
WALL_OFFSET = 1e-2
WALL_PROBE_TS = 10  # each t gives one probe on either side of the wall


def build_tables() -> dict[str, str]:
    """Manifold JSON of every reference table, as passed to ``--manifold``."""
    import osbk

    def graph(terms: dict, box: tuple[float, float]) -> osbk.GeneratingGraph:
        return osbk.GeneratingGraph(osbk.Poly(2, terms), box)

    tables = {
        "circle": osbk.circle(1.0),
        "chebyshev": osbk.chebyshev_curve((1, 2)),
        "torus": osbk.sphere_torus(),
        "ellipsoid": osbk.SymplecticEllipsoid((1.0, 2.0)),
        "cubic": graph({(2, 1): 1.0, (1, 2): 1.0}, (-5.0, 5.0)),
        "quartic": graph({(2, 1): 1.0, (1, 2): 1.0, (4, 0): 0.1}, (-3.0, 3.0)),
    }
    return {name: json.dumps(osbk.manifold_to_json(osbk.spec_for(t)), sort_keys=True) for name, t in tables.items()}


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...]
    expect: dict


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cheb(t: float, order: int) -> list[float]:
    """Order-th derivative of t -> (cos t, sin t, cos 2t, sin 2t)."""
    out = []
    for k in (1, 2):
        c, s = math.cos(k * t), math.sin(k * t)
        for _ in range(order):
            c, s = -k * s, k * c
        out += [c, s]
    return out


def _cheb_ray_point(rng: random.Random) -> list[float]:
    """A point at radius CHEB_RADIUS on the ray through a seeded curve point.

    For z = s gamma(theta), g(t) = omega(gamma(t) - z, gamma'(t)) equals
    3 - s (cos(t - theta) + 2 cos 2(t - theta)), which changes sign for
    1 < s < 3, so z has partners; at radius 2.5, s = 2.5 / sqrt(2).
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return [CHEB_RADIUS / math.sqrt(2.0) * x for x in _cheb(theta, 0)]


def _quartic_pair_point(rng: random.Random) -> list[float]:
    """A point z with at least one partner across the quartic graph.

    With midpoint (q, grad F(q)) and chord direction (w, H(q) w) the pair
    (q + w, grad F + H w), (q - w, grad F - H w) satisfies the correspondence
    for any w, because H is symmetric. The Newton route is best-effort, so the
    check does not require it to find that partner.
    """
    q1, q2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    w1, w2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    g = (2 * q1 * q2 + q2 * q2 + 0.4 * q1**3, q1 * q1 + 2 * q1 * q2)
    h11, h12, h22 = 2 * q2 + 1.2 * q1 * q1, 2 * q1 + 2 * q2, 2 * q1
    hw = (h11 * w1 + h12 * w2, h12 * w1 + h22 * w2)
    return [q1 + w1, g[0] + hw[0], q2 + w2, g[1] + hw[1]]


def _orbit_search(tables: dict[str, str], kind: str, rng: random.Random) -> tuple[list[str], dict]:
    if kind == "periodic-torus":
        return ["periodic", "--manifold", tables["torus"], "--n", "3", "--starts", "16"], {"table": "torus"}
    if kind == "periodic-chebyshev":
        return ["periodic", "--manifold", tables["chebyshev"], "--n", "5", "--starts", "16"], {"table": "chebyshev"}
    if kind == "shoot-circle":
        argv = ["shoot", "--manifold", tables["circle"], "--n", "2", "--starts", "16", "--mode", "both"]
        return argv, {"table": "circle", "value": 2.0 + 2.0 * math.sqrt(2.0)}
    raise KeyError(kind)


def _curve_scan(tables: dict[str, str], kind: str, rng: random.Random) -> tuple[list[str], dict]:
    if kind == "step-chebyshev":
        z = _cheb_ray_point(rng)
        return ["step", "--manifold", tables["chebyshev"], f"--z={_csv(z)}"], {"table": "chebyshev", "partners": (2, None)}
    if kind == "iterate-circle":
        argv = ["iterate", "--manifold", tables["circle"], f"--z={_csv(CIRCLE_START)}", "--steps", "40"]
        return argv, {"table": "circle", "steps": 40}
    if kind == "iterate-chebyshev":
        z = _cheb_ray_point(rng)
        argv = ["iterate", "--manifold", tables["chebyshev"], f"--z={_csv(z)}", "--steps", "10"]
        return argv, {"table": "chebyshev", "steps": 10}
    if kind == "wall-chebyshev":
        probes, sides = [], []
        for _ in range(WALL_PROBE_TS):
            t = rng.uniform(0.0, 2.0 * math.pi)
            g0, g2 = _cheb(t, 0), _cheb(t, 2)
            for sign in (1.0, -1.0):
                probes.append([a + sign * WALL_OFFSET * b for a, b in zip(g0, g2)])
                sides.append(0 if sign > 0 else 2)
        argv = ["wall", "--manifold", tables["chebyshev"], "--t-count", "64", f"--probes={json.dumps(probes)}"]
        return argv, {"table": "chebyshev", "counts": sides}
    if kind == "check-chebyshev":
        return ["check", "--manifold", tables["chebyshev"]], {"table": "chebyshev", "convexity_min": 9.0}
    raise KeyError(kind)


def _closed_form(tables: dict[str, str], kind: str, rng: random.Random) -> tuple[list[str], dict]:
    if kind == "iterate-ellipsoid":
        argv = ["iterate", "--manifold", tables["ellipsoid"], f"--z={ELLIPSOID_START}", "--steps", "10000"]
        return argv, {"table": "ellipsoid", "steps": 10000}
    if kind == "integrability-ellipsoid":
        argv = ["integrability", "--manifold", tables["ellipsoid"], f"--z={ELLIPSOID_START}", "--steps", "2000"]
        return argv, {"table": "ellipsoid", "steps": 2000}
    if kind == "integrability-cubic":
        return ["integrability", "--manifold", tables["cubic"], "--pairs", "200"], {"table": "cubic", "pairs": 200}
    if kind == "classify-positive":
        return ["classify", "--coeffs=0,1,1,0", "--trials", "500"], {"trials": 500, "discriminant": "positive"}
    if kind == "classify-negative":
        return ["classify", "--coeffs=1,0,0,1", "--trials", "500"], {"trials": 500, "discriminant": "negative"}
    if kind == "step-cubic":
        z = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        # D > 0: every generic point has exactly two partners
        return ["step", "--manifold", tables["cubic"], f"--z={_csv(z)}"], {"table": "cubic", "partners": (2, 2)}
    if kind == "step-quartic":
        argv = ["step", "--manifold", tables["quartic"], f"--z={_csv(_quartic_pair_point(rng))}", "--starts", "64"]
        return argv, {"table": "quartic"}
    raise KeyError(kind)


@dataclass(frozen=True)
class Workload:
    """Op kinds in cycle order; ``make(tables, kind, rng)`` gives an op's argv and expectations.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    kinds: tuple[str, ...]
    make: Callable[[dict[str, str], str, random.Random], tuple[list[str], dict]]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "orbit-search",
            ("periodic-torus", "periodic-chebyshev", "shoot-circle"),
            _orbit_search,
        ),
        Workload(
            "curve-scan",
            ("step-chebyshev", "iterate-circle", "iterate-chebyshev", "wall-chebyshev", "check-chebyshev"),
            _curve_scan,
        ),
        Workload(
            "closed-form",
            (
                "iterate-ellipsoid",
                "integrability-ellipsoid",
                "integrability-cubic",
                "classify-positive",
                "classify-negative",
                "step-cubic",
                "step-quartic",
            ),
            _closed_form,
        ),
    )
}


def make_op(workload: str, tables: dict[str, str], seed: int, index: int) -> Op:
    """Op ``index`` of a workload; the same (workload, seed, index) gives the same op."""
    w = WORKLOADS[workload]
    kind = w.kinds[index % len(w.kinds)]
    rng = random.Random(f"{workload}/{seed}/{index}")
    argv, expect = w.make(tables, kind, rng)
    op_seed = rng.getrandbits(32)
    return Op(index, kind, tuple(argv) + ("--seed", str(op_seed)), expect)
