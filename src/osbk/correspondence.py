"""Step solvers for the outer symplectic billiard relation.

A point z' is a partner of z when the midpoint Q = (z+z')/2 lies on the table
and the chord z'-z is omega-orthogonal to the tangent space at Q. Each table
family gets its own solver:

* curves: root scan of g(t) = omega(gamma(t)-z, gamma'(t)) with a
  refinement-stable grid, plus a separate pass for tangential (double) roots
  that produce no sign change;
* ellipsoids: closed form via the one-parameter family of midpoints, with the
  scalar radical equation solved by a monotone Newton iteration;
* Lagrangian graphs: exact conic intersection for homogeneous cubics in two
  variables, multi-start Newton with the exact third-derivative Jacobian
  otherwise.

All solvers emit :class:`StepCandidate` records whose normalized
omega-orthogonality residual is bounded by 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from ._pool import parallel_map, task_rng
from .core import AffineSymplectic, as_phase_vector, interleave, omega, omega_pairwise
from .errors import DomainError, UnstableCountError
from .manifolds import (
    GeneratingGraph,
    ManifoldSpec,
    SymplecticEllipsoid,
    Table,
    TrigImmersion,
    TWO_PI,
    spec_for,
)

PARAM_DEDUP = 1e-6  # candidates closer than this in parameter space merge


@dataclass(frozen=True)
class StepCandidate:
    """One correspondence partner of ``source`` with midpoint on the table.

    ``on_wall`` marks tangential or otherwise non-transverse solutions;
    ``degenerate`` marks partner = source (always possible when the source
    lies on the table itself).
    """

    source: np.ndarray
    partner: np.ndarray
    midpoint: np.ndarray
    midpoint_param: np.ndarray
    residual: float
    branch: int | None = None
    on_wall: bool = False
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {
            "partner": [float(v) for v in self.partner],
            "midpoint": [float(v) for v in self.midpoint],
            "midpoint_param": [float(v) for v in np.atleast_1d(self.midpoint_param)],
            "residual": float(self.residual),
            "branch": self.branch,
            "on_wall": bool(self.on_wall),
            "degenerate": bool(self.degenerate),
        }


def reflect(z, Q) -> np.ndarray:
    """Point reflection of z in Q: returns 2Q - z."""
    z = np.asarray(z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if z.shape != Q.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {Q.shape}")
    return 2.0 * Q - z


def orthogonality_residual(delta: np.ndarray, tangent_rows: np.ndarray) -> float:
    """max_a |omega(delta, zeta_a)| / (|delta| |zeta_a|) over tangent rows."""
    delta = np.asarray(delta, dtype=float)
    rows = np.atleast_2d(np.asarray(tangent_rows, dtype=float))
    dn = float(np.linalg.norm(delta))
    if dn == 0.0:
        return 0.0
    vals = rows[:, 1::2] @ delta[0::2] - rows[:, 0::2] @ delta[1::2]
    norms = np.linalg.norm(rows, axis=1)
    return float(np.max(np.abs(vals) / (dn * norms)))


def _build_candidate(
    z_local: np.ndarray,
    mid_local: np.ndarray,
    u,
    rows_local: np.ndarray,
    transform: AffineSymplectic | None,
    *,
    branch: int | None = None,
    on_wall: bool = False,
) -> StepCandidate:
    # point reflection commutes with affine maps, so the ambient partner is
    # still 2*mid - source after pushing everything through the transform
    if transform is None:
        src, mid, rows = z_local, mid_local, rows_local
    else:
        src, mid = transform(z_local), transform(mid_local)
        rows = np.atleast_2d(rows_local) @ transform.S.T
    partner = 2.0 * mid - src
    delta = partner - src
    scale = max(1.0, float(np.max(np.abs(src))), float(np.max(np.abs(mid))))
    degenerate = float(np.linalg.norm(delta)) <= 1e-9 * scale
    return StepCandidate(
        source=src,
        partner=partner,
        midpoint=mid,
        midpoint_param=np.atleast_1d(np.asarray(u, dtype=float)),
        residual=orthogonality_residual(delta, rows),
        branch=branch,
        on_wall=on_wall,
        degenerate=degenerate,
    )


# -- curves ------------------------------------------------------------------


@dataclass(frozen=True)
class CurveRoot:
    t: float
    tangential: bool


@dataclass(frozen=True)
class CurveScan:
    roots: tuple[CurveRoot, ...]
    sign_change_count: int
    grid: int
    history: tuple[tuple[int, int], ...]


def _wrap_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def scan_curve_roots(curve: TrigImmersion, z, grid: int = 2048, cap: int = 1 << 17) -> CurveScan:
    """All roots of g(t) = omega(gamma(t)-z, gamma'(t)) on the circle.

    Sign-change roots come from a grid doubled until the count is stable under
    refinement twice in a row (else an unstable-count error with the two
    bracketing counts). Tangential roots, which give no sign change, are found
    separately from near-zero local minima of |g|.
    """
    if curve.m != 1:
        raise ValueError("root scan requires a curve (m = 1)")
    z = as_phase_vector(z)

    def g(t: float) -> float:
        return omega(curve.deriv(t, 0) - z, curve.deriv(t, 1))

    def gp(t: float) -> float:
        return omega(curve.deriv(t, 0) - z, curve.deriv(t, 2))

    history: list[tuple[int, int]] = []
    n = int(grid)
    while True:
        ts = np.arange(n) * (TWO_PI / n)
        gv = omega_pairwise(curve.curve_batch(ts, 0) - z, curve.curve_batch(ts, 1))
        sign = np.where(gv >= 0.0, 1.0, -1.0)
        flips = np.nonzero(sign * np.roll(sign, -1) < 0)[0]
        history.append((n, len(flips)))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            break
        if n >= cap:
            lo = min(history[-1][1], history[-2][1])
            hi = max(history[-1][1], history[-2][1])
            raise UnstableCountError(
                f"root count did not stabilize by grid {n} (bracketing counts {lo} and {hi})", lo, hi
            )
        n *= 2

    h = TWO_PI / n
    gscale = max(1.0, float(np.max(np.abs(gv))))
    roots: list[float] = []
    for i in flips:
        a, b = ts[i], ts[i] + h
        fa, fb = float(gv[i]), float(gv[(i + 1) % n])
        for _ in range(50):
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0:
                a = b = m
                break
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b, fb = m, fm
        t = 0.5 * (a + b)
        for _ in range(4):  # Newton polish inside the bracket
            d = gp(t)
            if abs(d) < 1e-300:
                break
            t2 = t - g(t) / d
            if not (ts[i] - h <= t2 <= ts[i] + 2 * h):
                break
            t = t2
        roots.append(t % TWO_PI)

    # tangential roots: local minima of |g| that refine to (numerically) zero
    tangential: list[float] = []
    absg = np.abs(gv)
    is_min = (absg <= np.roll(absg, 1)) & (absg <= np.roll(absg, -1)) & (absg < 1e-3 * gscale)
    for i in np.nonzero(is_min)[0]:
        res = minimize_scalar(
            lambda t: g(t) ** 2, bounds=(ts[i] - h, ts[i] + h), method="bounded",
            options={"xatol": 1e-13},
        )
        tc = float(res.x) % TWO_PI
        if abs(g(tc)) <= 1e-9 * gscale and all(_wrap_dist(tc, r) > PARAM_DEDUP for r in roots + tangential):
            tangential.append(tc)

    out: list[CurveRoot] = []
    for t in roots:
        d0 = curve.deriv(t, 0) - z
        gp_scale = max(1.0, float(np.linalg.norm(d0) * np.linalg.norm(curve.deriv(t, 2))))
        out.append(CurveRoot(t, abs(gp(t)) <= 1e-7 * gp_scale))
    out.extend(CurveRoot(t, True) for t in tangential)
    out.sort(key=lambda r: r.t)
    return CurveScan(tuple(out), len(flips), n, tuple(history))


def step_curve(curve: TrigImmersion | ManifoldSpec, z, grid: int = 2048, cap: int = 1 << 17) -> list[StepCandidate]:
    """All correspondence partners of z across a curve, sorted by midpoint parameter."""
    spec = curve if isinstance(curve, ManifoldSpec) else spec_for(curve)
    trig = spec.as_trig
    if trig is None or trig.m != 1:
        raise ValueError("step_curve requires a curve table")
    z = as_phase_vector(z)
    scan = scan_curve_roots(trig, z, grid=grid, cap=cap)
    cands = []
    for root in scan.roots:
        mid = trig.deriv(root.t, 0)
        rows = trig.deriv(root.t, 1)[None, :]
        cands.append(_build_candidate(z, mid, [root.t], rows, None, on_wall=root.tangential))
    return _dedup(cands, angular=True)


def _dedup(cands: list[StepCandidate], angular: bool) -> list[StepCandidate]:
    """Merge candidates within the parameter dedup radius, keeping lower residual."""
    def key(c: StepCandidate):
        return (tuple(np.round(c.midpoint_param, 12)), c.residual)

    cands = sorted(cands, key=key)
    kept: list[StepCandidate] = []
    for c in cands:
        dup = False
        for i, k in enumerate(kept):
            du = c.midpoint_param - k.midpoint_param
            dist = (
                max(_wrap_dist(a, b) for a, b in zip(c.midpoint_param, k.midpoint_param))
                if angular
                else float(np.max(np.abs(du)))
            )
            if dist < PARAM_DEDUP:
                dup = True
                if c.residual < k.residual:
                    kept[i] = c
                break
        if not dup:
            kept.append(c)
    kept.sort(key=lambda c: tuple(c.midpoint_param))
    return kept


# -- ellipsoids ---------------------------------------------------------------


def _ellipsoid_t2(axes: Sequence[float], c: Sequence[float]) -> float:
    """Positive root s = t^2 of sum_j c_j a_j^2/(a_j^2+s) = 1.

    The left side is convex and decreasing in s, so Newton from s = 0
    increases monotonically to the root.
    """
    s = 0.0
    for _ in range(80):
        h = -1.0
        hp = 0.0
        for aj, cj in zip(axes, c):
            a2 = aj * aj
            r = a2 + s
            term = cj * a2 / r
            h += term
            hp -= term / r
        step = h / hp
        s -= step
        if abs(step) <= 1e-16 * (1.0 + s):
            break
    return s


def _ellipsoid_tangent_rows(ell: SymplecticEllipsoid, mid: np.ndarray) -> np.ndarray:
    # implicit tangent space: kernel of the defining-function gradient row,
    # valid everywhere (the angle chart degenerates on the rho_j = 0 circles)
    a = np.asarray(ell.axes)
    grad = np.empty(2 * ell.d)
    grad[0::2] = 2.0 * mid[0::2] / a
    grad[1::2] = 2.0 * mid[1::2] / a
    _, _, vt = np.linalg.svd(grad[None, :])
    return vt[1:]


def step_ellipsoid(
    ell: SymplecticEllipsoid, z, branch: int = 1, transform: AffineSymplectic | None = None
) -> StepCandidate:
    """The unique partner of z across the ellipsoid on the chosen branch.

    branch +1 takes the positive root t of the radical equation (the forward
    map), branch -1 the negative root (its inverse).
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    z = as_phase_vector(z)
    if z.size != ell.ambient_dim:
        raise ValueError(f"expected a vector of length {ell.ambient_dim}, got {z.size}")
    a = np.asarray(ell.axes)
    x, y = z[0::2], z[1::2]
    c = (x * x + y * y) / a
    level = float(np.sum(c))
    if level <= 1.0 + 1e-12:
        raise DomainError(f"source must lie strictly outside the ellipsoid (level {level:.6g}, need > 1)")
    s = _ellipsoid_t2(ell.axes, c.tolist())
    t = branch * math.sqrt(s)
    denom = 1.0 + s / (a * a)
    q = (x + t * y / a) / denom
    p = (y - t * x / a) / denom
    mid = interleave(q, p)
    rows = _ellipsoid_tangent_rows(ell, mid)
    return _build_candidate(z, mid, ell.param_of(mid), rows, transform, branch=branch)


def iterate_ellipsoid(ell: SymplecticEllipsoid, z0, steps: int, branch: int = 1) -> np.ndarray:
    """Iterate the fixed-branch ellipsoid step; returns (steps+1, 2d) trajectory.

    Plain-float inner loop: the per-step work is a handful of scalars, and
    array overhead would dominate at 10^4 steps.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    z0 = as_phase_vector(z0)
    if z0.size != ell.ambient_dim:
        raise ValueError(f"expected a vector of length {ell.ambient_dim}, got {z0.size}")
    axes = [float(a) for a in ell.axes]
    d = len(axes)
    xs = [float(z0[2 * j]) for j in range(d)]
    ys = [float(z0[2 * j + 1]) for j in range(d)]
    out = np.empty((steps + 1, 2 * d))
    out[0] = z0
    for k in range(1, steps + 1):
        c = [(xs[j] * xs[j] + ys[j] * ys[j]) / axes[j] for j in range(d)]
        if sum(c) <= 1.0 + 1e-12:
            raise DomainError(f"orbit reached the ellipsoid at step {k} (level {sum(c):.6g})")
        s = _ellipsoid_t2(axes, c)
        t = branch * math.sqrt(s)
        for j in range(d):
            aj = axes[j]
            denom = 1.0 + s / (aj * aj)
            qj = (xs[j] + t * ys[j] / aj) / denom
            pj = (ys[j] - t * xs[j] / aj) / denom
            xs[j] = 2.0 * qj - xs[j]
            ys[j] = 2.0 * pj - ys[j]
            out[k, 2 * j] = xs[j]
            out[k, 2 * j + 1] = ys[j]
    return out


# -- Lagrangian graphs ---------------------------------------------------------


def step_cubic_graph(graph: GeneratingGraph, z, transform: AffineSymplectic | None = None) -> list[StepCandidate]:
    """Exact partner enumeration for a homogeneous cubic graph in two variables.

    Writing z = (Q, W), the midpoint bases q = Q - w run over solutions w of
    the central-conic system grad F(w) = grad F(Q) - W, solved exactly.
    """
    from .wall import ConicPair, conic_intersections  # deferred: wall imports this module

    if graph.n != 2 or not graph.is_homogeneous_cubic():
        raise ValueError("step_cubic_graph requires a homogeneous cubic in two variables")
    z = as_phase_vector(z)
    if z.size != 4:
        raise ValueError("expected a vector of length 4")
    Q, W = z[0::2].copy(), z[1::2].copy()
    r = graph.grad(Q) - W
    pair = ConicPair.from_cubic_poly(graph.F)
    sols = conic_intersections(pair, float(r[0]), float(r[1]))
    cands = []
    for w in sols:
        q = Q - w
        mid = graph.embed(q)
        rows = graph.tangent_rows(q)
        cands.append(_build_candidate(z, mid, q, rows, transform))
    return _dedup(cands, angular=False)


def step_graph_numeric(
    graph: GeneratingGraph,
    z,
    box: tuple[float, float] | None = None,
    starts: int = 64,
    seed: int = 0,
    transform: AffineSymplectic | None = None,
    max_iter: int = 60,
) -> list[StepCandidate]:
    """Multi-start Newton enumeration of partners across any polynomial graph.

    Solves W = grad F(q) + hess F(q) (Q - q) with the exact Jacobian
    third F(q) . (Q - q); best-effort completeness, deterministic in seed.
    """
    z = as_phase_vector(z)
    if z.size != graph.ambient_dim:
        raise ValueError(f"expected a vector of length {graph.ambient_dim}, got {z.size}")
    Q, W = z[0::2].copy(), z[1::2].copy()
    lo, hi = box if box is not None else graph.box
    n = graph.n
    span = hi - lo
    rscale = max(1.0, float(np.max(np.abs(W))), float(np.max(np.abs(Q))))

    def residual_vec(q: np.ndarray) -> np.ndarray:
        return graph.grad(q) + graph.hess(q) @ (Q - q) - W

    def solve_from(i: int) -> tuple[np.ndarray, bool] | None:
        rng = task_rng(seed, i)
        q = rng.uniform(lo, hi, n)
        for _ in range(max_iter):
            R = residual_vec(q)
            if not np.all(np.isfinite(R)):
                return None
            Jm = np.einsum("ijk,j->ik", graph.third(q), Q - q)
            sv = np.linalg.svd(Jm, compute_uv=False)
            singular = sv[-1] <= 1e-8 * max(1.0, sv[0])
            if float(np.linalg.norm(R)) <= 1e-11 * rscale:
                return q, singular
            if singular:
                delta, *_ = np.linalg.lstsq(Jm, R, rcond=None)
            else:
                delta = np.linalg.solve(Jm, R)
            if float(np.linalg.norm(delta)) <= 1e-15 * (1.0 + float(np.linalg.norm(q))):
                return None  # stuck without converging
            q = q - delta
            if float(np.max(np.abs(q))) > 10.0 * max(abs(lo), abs(hi), span):
                return None
        return None

    found = [r for r in parallel_map(solve_from, range(starts)) if r is not None]
    cands = []
    for q, singular in found:
        mid = graph.embed(q)
        rows = graph.tangent_rows(q)
        cands.append(_build_candidate(z, mid, q, rows, transform, on_wall=singular))
    return _dedup(cands, angular=False)


# -- verification and dispatch --------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Residuals of the two defining conditions for a claimed pair (z, z')."""

    midpoint_residual: float
    orthogonality_residual: float


def verify_pair(spec: ManifoldSpec, z, z_prime, u) -> PairReport:
    z = as_phase_vector(z)
    zp = as_phase_vector(z_prime)
    mid = spec.embed(u)
    mres = float(np.linalg.norm(mid - 0.5 * (z + zp)))
    ores = orthogonality_residual(zp - z, spec.tangent_basis(u))
    return PairReport(mres, ores)


def step(
    spec: ManifoldSpec | Table,
    z,
    branch: int = 1,
    seed: int = 0,
    starts: int = 64,
    grid: int = 2048,
) -> list[StepCandidate]:
    """Enumerate correspondence partners of z for any supported table."""
    if not isinstance(spec, ManifoldSpec):
        spec = spec_for(spec)
    z = as_phase_vector(z)
    table = spec.table
    if isinstance(table, TrigImmersion):
        if spec.is_curve:
            return step_curve(spec, z, grid=grid)
        raise ValueError("no step solver for torus immersions of dimension >= 2")
    z_local = spec.transform.inverse()(z) if spec.transform else z
    if isinstance(table, SymplecticEllipsoid):
        return [step_ellipsoid(table, z_local, branch=branch, transform=spec.transform)]
    if table.n == 2 and table.is_homogeneous_cubic():
        return step_cubic_graph(table, z_local, transform=spec.transform)
    return step_graph_numeric(table, z_local, starts=starts, seed=seed, transform=spec.transform)
