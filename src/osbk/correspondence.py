"""Step solvers for the outer symplectic billiard relation.

A point z' is a partner of z when the midpoint Q = (z+z')/2 lies on the table
and the chord z'-z is omega-orthogonal to the tangent space at Q. Each table
family gets its own solver:

* curves: root scan of g(t) = omega(gamma(t)-z, gamma'(t)) with a
  refinement-stable grid, plus a separate pass for tangential (double) roots
  that produce no sign change (Brent's bounded minimization of g^2,
  :func:`osbk.core.minimize_scalar`);
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

from ._pool import task_rng
from .core import AffineSymplectic, as_phase_vector, interleave, minimize_scalar, omega_pairwise, solve_stack
from .errors import DomainError, SearchFailedError, UnstableCountError
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
MAX_GRID = 1 << 17  # finest root-scan grid before the count is declared unstable


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
    """max_a |omega(delta, zeta_a)| / (|delta| |zeta_a|) over tangent rows.

    A stack of chords (N, 2d) with their rows (N, m, 2d) gives the max over
    the stack; a zero chord counts 0.
    """
    delta = np.asarray(delta, dtype=float)
    rows = np.asarray(tangent_rows, dtype=float).reshape(delta.shape[:-1] + (-1, delta.shape[-1]))
    vals = np.einsum("...ak,...k->...a", rows[..., 1::2], delta[..., 0::2]) - np.einsum(
        "...ak,...k->...a", rows[..., 0::2], delta[..., 1::2]
    )
    scale = np.linalg.norm(delta, axis=-1)[..., None] * np.linalg.norm(rows, axis=-1)
    return float(np.max(np.divide(np.abs(vals), scale, out=np.zeros_like(vals), where=scale > 0.0)))


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


def _wrap_dist(a, b):  # distance on the circle, elementwise
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def scan_curve_roots(curve: TrigImmersion, z, grid: int = 2048) -> CurveScan:
    """All roots of g(t) = omega(gamma(t)-z, gamma'(t)) on the circle.

    Sign-change roots come from a grid doubled until the count is stable under
    refinement twice in a row (else an unstable-count error with the two
    bracketing counts), then bisected and Newton-polished all at once. Each
    doubling evaluates only the new midpoints: the coarse points are exact
    subsamples of the finer grid. Bisection stops once a pass leaves every
    bracket unchanged, a fixed point of the iteration. Tangential roots, which
    give no sign change, are found separately from near-zero local minima of
    |g| away from the sign changes.
    """
    if curve.m != 1:
        raise ValueError("root scan requires a curve (m = 1)")
    n = int(grid)
    if n < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    z = as_phase_vector(z)

    def g(ts) -> np.ndarray:
        gamma, d1 = curve.curve_jet(ts, (0, 1))
        return omega_pairwise(gamma - z, d1)

    history: list[tuple[int, int]] = []
    ts = np.arange(n) * (TWO_PI / n)
    gv = g(ts)
    while True:
        sign = np.where(gv >= 0.0, 1.0, -1.0)
        flips = np.nonzero(sign * np.roll(sign, -1) < 0)[0]
        history.append((n, len(flips)))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            break
        if n >= MAX_GRID:
            lo = min(history[-1][1], history[-2][1])
            hi = max(history[-1][1], history[-2][1])
            raise UnstableCountError(
                f"root count did not stabilize by grid {n} (bracketing counts {lo} and {hi})", lo, hi
            )
        mids = np.arange(1, 2 * n, 2) * (TWO_PI / (2 * n))
        ts, gv = np.stack([ts, mids], axis=1).ravel(), np.stack([gv, g(mids)], axis=1).ravel()
        n *= 2

    h = TWO_PI / n
    gscale = max(1.0, float(np.max(np.abs(gv))))
    t = a = ts[flips]
    if flips.size:  # all brackets at once
        fa, b = gv[flips], a + h
        for _ in range(50):  # bisection; a bracket that hits an exact zero collapses to it
            m = 0.5 * (a + b)
            fm = g(m)
            left = (fm < 0.0) == (fa < 0.0)
            state = np.where(left | (fm == 0.0), m, a), np.where(left & (fm != 0.0), b, m), np.where(left, fm, fa)
            fixed = all(np.array_equal(new, old) for new, old in zip(state, (a, b, fa)))
            a, b, fa = state
            if fixed:  # the next passes would repeat this one
                break
        t = 0.5 * (a + b)
        live = np.ones(t.shape, dtype=bool)
        for _ in range(4):  # Newton polish; a root stops at its first step off its bracket
            gamma, d1, d2 = curve.curve_jet(t, (0, 1, 2))  # g and g' = omega(gamma - z, gamma'')
            gt, d = omega_pairwise(gamma - z, d1), omega_pairwise(gamma - z, d2)
            ok = np.abs(d) >= 1e-300
            t2 = t - np.divide(gt, d, out=np.zeros_like(d), where=ok)
            live &= ok & (ts[flips] - h <= t2) & (t2 <= ts[flips] + 2 * h)
            t = np.where(live, t2, t)
    roots = t % TWO_PI

    # tangential roots: local minima of |g| that refine to (numerically) zero. A
    # minimum beside a sign change (at i - 1 or i) has that simple root in its
    # window, which the dedup below would discard, so it is skipped.
    tangential: list[float] = []
    absg = np.abs(gv)
    flip_at = np.zeros(n, dtype=bool)
    flip_at[flips] = True
    is_min = (absg <= np.roll(absg, 1)) & (absg <= np.roll(absg, -1)) & (absg < 1e-3 * gscale)
    for i in np.nonzero(is_min & ~flip_at & ~np.roll(flip_at, 1))[0]:
        x, _ = minimize_scalar(lambda s: g(s)[0] ** 2, (ts[i] - h, ts[i] + h), xatol=1e-13)
        tc = x % TWO_PI
        if abs(g(tc)[0]) <= 1e-9 * gscale and np.all(_wrap_dist(tc, np.append(roots, tangential)) > PARAM_DEDUP):
            tangential.append(tc)

    gamma, d2 = curve.curve_jet(roots, (0, 2))
    d0 = gamma - z
    gp_scale = np.maximum(1.0, np.linalg.norm(d0, axis=1) * np.linalg.norm(d2, axis=1))
    flat = np.abs(omega_pairwise(d0, d2)) <= 1e-7 * gp_scale
    out = list(map(CurveRoot, roots.tolist(), flat.tolist())) + [CurveRoot(t, True) for t in tangential]
    out.sort(key=lambda r: r.t)
    return CurveScan(tuple(out), len(flips), n, tuple(history))


def step_curve(curve: TrigImmersion | ManifoldSpec, z, grid: int = 2048) -> list[StepCandidate]:
    """All correspondence partners of z across a curve, sorted by midpoint parameter."""
    spec = curve if isinstance(curve, ManifoldSpec) else spec_for(curve)
    trig = spec.as_trig
    if trig is None or trig.m != 1:
        raise ValueError("step_curve requires a curve table")
    z = as_phase_vector(z)
    roots = scan_curve_roots(trig, z, grid=grid).roots
    ts = np.array([r.t for r in roots])
    mids, tangents = trig.curve_jet(ts, (0, 1))
    cands = [
        _build_candidate(z, mid, [r.t], tan[None, :], None, on_wall=r.tangential)
        for r, mid, tan in zip(roots, mids, tangents)
    ]
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
    increases monotonically to the root; it stops once it no longer increases.
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
        s_next = s - h / hp
        if not s_next > s:
            break
        s = s_next
    return s


def _ellipsoid_midpoint(axes: Sequence[float], x: list[float], y: list[float], branch: int) -> tuple[float, list, list]:
    """Level sum_j (x_j^2 + y_j^2)/a_j of the source (x, y), and the midpoint (q, p) on ``branch``;
    q and p are empty unless the level exceeds 1 + 1e-12 (a source strictly outside the ellipsoid)."""
    c = [(xj * xj + yj * yj) / aj for aj, xj, yj in zip(axes, x, y)]
    level = sum(c)
    if level <= 1.0 + 1e-12:
        return level, [], []
    s = _ellipsoid_t2(axes, c)
    t = branch * math.sqrt(s)
    denom = [1.0 + s / (aj * aj) for aj in axes]
    q = [(xj + t * yj / aj) / dj for aj, xj, yj, dj in zip(axes, x, y, denom)]
    p = [(yj - t * xj / aj) / dj for aj, xj, yj, dj in zip(axes, x, y, denom)]
    return level, q, p


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
    level, q, p = _ellipsoid_midpoint(ell.axes, z[0::2].tolist(), z[1::2].tolist(), branch)
    if not q:
        raise DomainError(f"source must lie strictly outside the ellipsoid (level {level:.6g}, need > 1)")
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
    xs, ys = z0[0::2].tolist(), z0[1::2].tolist()
    out = np.empty((steps + 1, z0.size))
    out[0] = z0
    for k in range(1, steps + 1):
        level, q, p = _ellipsoid_midpoint(ell.axes, xs, ys, branch)
        if not q:
            raise DomainError(f"orbit reached the ellipsoid at step {k} (level {level:.6g})")
        xs = [2.0 * qj - xj for qj, xj in zip(q, xs)]
        ys = [2.0 * pj - yj for pj, yj in zip(p, ys)]
        out[k, 0::2] = xs
        out[k, 1::2] = ys
    return out


def iterate(spec: ManifoldSpec | Table, z0, steps: int, branch: int = 1, grid: int = 2048) -> np.ndarray:
    """Follow one branch of the correspondence; returns the (steps+1, 2d) trajectory.

    On an ellipsoid, branch +1 is the forward map of :func:`step_ellipsoid`, stepped
    in the table frame. On a curve, branch +1 (-1) takes the non-degenerate partner
    furthest along (against) gamma' at its midpoint, and fails when there is none.
    """
    spec = spec if isinstance(spec, ManifoldSpec) else spec_for(spec)
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    z = as_phase_vector(z0)
    if spec.kind == "ellipsoid":
        T = spec.transform
        pts = iterate_ellipsoid(spec.table, T.inverse()(z) if T else z, steps, branch=branch)
        return T(pts) if T else pts
    if not spec.is_curve:
        raise ValueError("iterate supports ellipsoid and curve tables")
    trig = spec.as_trig
    pts = [z]
    for k in range(steps):
        cands = [c for c in step_curve(trig, z, grid=grid) if not c.degenerate]
        chords = np.reshape([c.partner - z for c in cands], (-1, z.size))
        ts = np.array([c.midpoint_param[0] for c in cands])
        score = branch * np.sum(chords * trig.curve_batch(ts, 1), axis=1)
        if not np.any(score > 0.0):
            raise SearchFailedError(f"no partner in the chosen direction after {k} steps")
        z = cands[int(np.argmax(score))].partner
        pts.append(z)
    return np.array(pts)


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
    starts: int = 64,
    seed: int = 0,
    transform: AffineSymplectic | None = None,
) -> list[StepCandidate]:
    """Multi-start Newton enumeration of partners across any polynomial graph.

    Solves W = grad F(q) + hess F(q) (Q - q) with the exact Jacobian
    third F(q) . (Q - q); best-effort completeness, deterministic in seed.
    """
    z = as_phase_vector(z)
    if z.size != graph.ambient_dim:
        raise ValueError(f"expected a vector of length {graph.ambient_dim}, got {z.size}")
    Q, W = z[0::2].copy(), z[1::2].copy()
    lo, hi = graph.box
    n = graph.n
    rscale = max(1.0, float(np.max(np.abs(W))), float(np.max(np.abs(Q))))

    bound = 10.0 * max(abs(lo), abs(hi), hi - lo)
    q = np.array([task_rng(seed, i).uniform(lo, hi, n) for i in range(starts)]).reshape(starts, n)
    active = np.ones(starts, dtype=bool)
    converged, on_wall = np.zeros(starts, dtype=bool), np.zeros(starts, dtype=bool)
    # one masked Newton iteration over all starts
    for _ in range(60):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        qa = q[idx]
        R = graph.grad(qa) + (graph.hess(qa) @ (Q - qa)[..., None])[..., 0] - W
        finite = np.all(np.isfinite(R), axis=1)
        active[idx[~finite]] = False
        idx, qa, R = idx[finite], qa[finite], R[finite]
        Jm = np.einsum("sijk,sj->sik", graph.third(qa), Q - qa)
        delta, singular = solve_stack(Jm, R, 1e-8)
        done = np.linalg.norm(R, axis=1) <= 1e-11 * rscale
        converged[idx[done]], on_wall[idx[done]] = True, singular[done]
        stuck = np.linalg.norm(delta, axis=1) <= 1e-15 * (1.0 + np.linalg.norm(qa, axis=1))
        active[idx[done | stuck]] = False
        keep = ~(done | stuck)
        idx = idx[keep]
        q[idx] = qa[keep] - delta[keep]
        active[idx[np.max(np.abs(q[idx]), axis=1) > bound]] = False  # runaway
    cands = [
        _build_candidate(z, graph.embed(q[i]), q[i], graph.tangent_rows(q[i]), transform, on_wall=bool(on_wall[i]))
        for i in np.flatnonzero(converged)
    ]
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
