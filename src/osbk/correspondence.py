"""Step solvers for the outer symplectic billiard relation.

A point z' is a partner of z when the midpoint Q = (z+z')/2 lies on the table
and the chord z'-z is omega-orthogonal to the tangent space at Q. Each table
family gets its own solver:

* curves: the real roots of the trigonometric polynomial
  g(t) = omega(gamma(t)-z, gamma'(t)), as the unit-circle eigenvalues of one
  companion matrix, Newton-polished; a double root is a tangential partner;
* ellipsoids: closed form via the one-parameter family of midpoints, with the
  scalar radical equation solved by a monotone Newton iteration;
* Lagrangian graphs: exact conic intersection for homogeneous cubics in two
  variables, multi-start Newton with the exact third-derivative Jacobian
  otherwise.

All solvers emit :class:`StepCandidate` records, built in one array pass,
whose normalized omega-orthogonality residual is bounded by 1e-8; partners
found twice merge by the package's one dedup rule (``core._distinct``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._pool import task_uniform_blocks
from .core import NOISE_ULPS, AffineSymplectic, _distinct, _require_count, _row_norms, as_phase_vector, interleave, omega
from .core import solve_stack
from .core import minimize_scalar  # no caller here: the benchmark's trace hooks this name (ROADMAP direction 1)
from .errors import DomainError, SearchFailedError
from .manifolds import (
    GeneratingGraph,
    ManifoldSpec,
    SymplecticEllipsoid,
    Table,
    TrigImmersion,
    TWO_PI,
    _as_curve,
    spec_for,
)

POLISH_STEPS = 2  # Newton steps from the companion-matrix eigenvalues


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


def _row_residuals(delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """max_a |omega(delta, zeta_a)| / (|delta| |zeta_a|) per chord of a stack (..., 2d) with rows (..., m, 2d)."""
    vals = np.einsum("...ak,...k->...a", rows[..., 1::2], delta[..., 0::2]) - np.einsum(
        "...ak,...k->...a", rows[..., 0::2], delta[..., 1::2]
    )
    scale = np.linalg.norm(delta, axis=-1)[..., None] * np.linalg.norm(rows, axis=-1)
    return np.max(np.divide(np.abs(vals), scale, out=np.zeros_like(vals), where=scale > 0.0), axis=-1)


def orthogonality_residual(delta: np.ndarray, tangent_rows: np.ndarray) -> float:
    """max_a |omega(delta, zeta_a)| / (|delta| |zeta_a|) over tangent rows.

    A stack of chords (N, 2d) with their rows (N, m, 2d) gives the max over
    the stack; a zero chord counts 0.
    """
    delta = np.asarray(delta, dtype=float)
    rows = np.asarray(tangent_rows, dtype=float).reshape(delta.shape[:-1] + (-1, delta.shape[-1]))
    return float(np.max(_row_residuals(delta, rows)))


def _step_candidates(
    z: np.ndarray,
    mids: np.ndarray,
    params: np.ndarray,
    rows: np.ndarray,
    transform: AffineSymplectic | None,
    *,
    angular: bool = False,
    branch: int | None = None,
    on_wall: list[bool] | None = None,
) -> list[StepCandidate]:
    """The partners of source z through N midpoints (N, 2d) with params (N, m) and tangent rows (N, m, 2d).

    Partners, chords, residuals and degenerate flags come from one array pass;
    ``on_wall`` is None (no midpoint on the wall) or a flag per midpoint.
    Midpoints found twice merge by the package's one dedup rule: ordered by
    (residual, rounded param), each cluster keeps its lowest-residual member.
    The kept candidates come sorted by param.
    """
    if not len(mids):
        return []
    # point reflection commutes with affine maps, so the ambient partner is
    # still 2*mid - source after pushing everything through the transform
    if transform is not None:
        z, mids, rows = transform(z), transform(mids), transform.apply_vector(rows)
    partners = 2.0 * mids - z
    chords = partners - z
    scale = np.maximum(max(1.0, float(np.max(np.abs(z)))), np.max(np.abs(mids), axis=-1))
    degenerate = (np.linalg.norm(chords, axis=-1) <= 1e-9 * scale).tolist()
    residuals = _row_residuals(chords, rows).tolist()
    on_wall = on_wall or [False] * len(mids)
    rounded, by_param = params.round(12).tolist(), params.tolist()
    order = sorted(range(len(mids)), key=lambda i: (residuals[i], rounded[i]))
    kept = sorted(_distinct(order, params[order, None], angular, shifts=False), key=by_param.__getitem__)
    return [
        StepCandidate(z, partners[i], mids[i], params[i], residuals[i], branch, bool(on_wall[i]), degenerate[i])
        for i in kept
    ]


# -- curves ------------------------------------------------------------------


@dataclass(frozen=True)
class CurveRoot:
    t: float
    tangential: bool


@dataclass(frozen=True)
class CurveScan:
    roots: tuple[CurveRoot, ...]
    sign_change_count: int
    # ((samples, sign_change_count),): read by the benchmark's trace hook, which
    # goes once that hook counts from ``roots`` (ROADMAP direction 1)
    history: tuple[tuple[int, int], ...]


_CONTINUUM = "g(t) = omega(gamma(t) - z, gamma'(t)) vanishes identically: the partners form a continuum"


def scan_curve_roots(curve: TrigImmersion, z) -> CurveScan:
    """All roots of g(t) = omega(gamma(t)-z, gamma'(t)) on the circle.

    Curve frequencies are integers up to K, so g is a trigonometric polynomial
    of degree at most 2K, fixed exactly by its 4K + 1 samples. With D the
    highest frequency whose Fourier coefficient stands above the sample noise,
    w^D g is a polynomial of degree 2D in w = e^(it), and the real roots of g
    are its roots on the unit circle: eigenvalues of its companion matrix.

    Noise in g moves a root by about r, where |g'| r + |g''| r^2/2 = noise:
    noise/|g'| at a simple root, sqrt(2 noise/|g''|) at a double root, whose
    two eigenvalues land about sqrt(eps) apart. Eigenvalues within r/2 of the
    circle are kept, and kept neighbours closer than r merge into one
    tangential root. Newton steps polish simple roots on g and merged ones on
    g'. A complex pair further than r/2 from the circle keeps |g| above the
    noise along the real axis, so it is no root.
    ``sign_change_count`` counts the roots of odd multiplicity. A g whose
    coefficients are all noise vanishes identically, so the partners form a
    continuum: :class:`DomainError`.

    This is the one-probe row of the stacked scan that ``wall`` runs over all
    its probes at once; the two agree bit for bit.
    """
    if curve.m != 1:
        raise ValueError("root scan requires a curve (m = 1)")
    scan = _scan_stack(curve, as_phase_vector(z)[None])[0]
    if isinstance(scan, DomainError):
        raise scan
    return scan


def _scan_stack(curve: TrigImmersion, Z: np.ndarray) -> list[CurveScan | DomainError]:
    """The :func:`scan_curve_roots` of every probe of a stack Z (P, 2d) on one curve, row by row.

    A probe whose g vanishes identically gets its :class:`DomainError` in
    place of a scan. g is affine in z, so the probes share the curve's cached
    :class:`ScanPlan`: all samples come from one product and all Fourier
    coefficients from one ``rfft``. Probes of equal trimmed degree D share one
    eigensolve of their stacked companion matrices (the matrix ``np.roots``
    builds), and every root of every probe goes through each jet and Newton
    pass together. Each step works row by row, so row p equals the scan of
    Z[p] alone bit for bit.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != curve.ambient_dim:
        raise ValueError(f"probes must have shape (P, {curve.ambient_dim}), got {Z.shape}")
    plan = curve._scan_plan
    P, n = len(Z), plan.grid.size
    samples = omega(plan.gamma - Z[:, None], plan.d1)  # (P, 4K + 1)
    c = np.fft.rfft(samples, axis=1) / n  # c_0 .. c_2K per probe; c_-k = conj(c_k)
    # a sample rounds gamma and z before it subtracts them, so the rounding scales
    # with |gamma| + |z|, not with |gamma - z|: on a small curve far from the
    # origin the difference is tiny but its error is not
    magnitude = plan.gamma_max + _row_norms(Z)
    noise = NOISE_ULPS * n * np.finfo(float).eps * (magnitude * plan.d1_max)
    big = np.abs(c) > noise[:, None]
    solvable = big.any(axis=1)
    D = np.max(big * np.arange(c.shape[1]), axis=1)  # the highest frequency above the noise, or 0

    w, owner = _companion_roots(c, D)
    re, im = np.angle(w) % TWO_PI, np.log(np.abs(w))  # t = re - i im
    gamma, d1, d2, d3 = curve.curve_jet(re, (0, 1, 2, 3))
    e0 = gamma - Z[owner]
    g1, g2 = omega(e0, d2), omega(d1, d2) + omega(e0, d3)
    noise_w = noise[owner]
    den = np.abs(g1) + np.sqrt(g1 * g1 + 2.0 * noise_w * np.abs(g2))
    r = np.divide(2.0 * noise_w, den, out=np.full_like(den, np.inf), where=den > 0.0)
    near = np.abs(im) <= 0.5 * r
    t, size, owner = np.zeros(0), np.zeros(0, dtype=int), owner[near]  # no probe has a root
    if near.any():
        t, size, owner = _merge_and_polish(curve, Z, re[near], im[near], r[near], owner)

    order = np.lexsort((t, owner))
    roots = list(map(CurveRoot, t[order].tolist(), (size[order] > 1).tolist()))
    ends = np.cumsum(np.bincount(owner, minlength=P)).tolist()
    odd = np.bincount(owner[size % 2 == 1], minlength=P).tolist()
    return [
        CurveScan(tuple(roots[lo:hi]), k, ((n, k),)) if ok else DomainError(_CONTINUUM)
        for ok, k, lo, hi in zip(solvable.tolist(), odd, [0] + ends, ends)
    ]


def _companion_roots(c: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2D eigenvalues of each probe's companion matrix, all probes in order, and the probe of each.

    Row p of the coefficients c (P, 2K + 1) gives the polynomial
    c_D w^2D + ... + c_0 w^D + ... + conj(c_D) of degree 2 D[p]; D = 0 gives none.
    """
    start = np.zeros(len(D) + 1, dtype=int)
    np.cumsum(2 * D, out=start[1:])
    w = np.empty(start[-1], dtype=complex)
    for deg in sorted(set(D.tolist()) - {0}):
        rows = np.flatnonzero(D == deg)
        cr = c[rows]
        poly = np.concatenate([cr[:, deg:0:-1], cr[:, :1], np.conj(cr[:, 1:deg + 1])], axis=1)
        companion = np.zeros((rows.size, 2 * deg, 2 * deg), dtype=complex)
        companion[:, 1:, :-1] = np.eye(2 * deg - 1)
        companion[:, 0] = -poly[:, 1:] / poly[:, :1]
        w[start[rows, None] + np.arange(2 * deg)] = np.linalg.eigvals(companion)
    return w, np.repeat(np.arange(len(D)), 2 * D)


def _merge_and_polish(
    curve: TrigImmersion, Z: np.ndarray, re: np.ndarray, im: np.ndarray, r: np.ndarray, owner: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots t of the kept eigenvalues t = re - i im (reach r) of the probes ``owner``, with cluster sizes and probes.

    Clusters are chains of a probe's kept eigenvalues closer than r, by
    transitive closure; probes with equally many kept eigenvalues close as
    one stack. Eigenvalues arrive grouped by probe, and each probe's clusters
    come in the order of their first members.
    """
    kept = np.bincount(owner)
    first = np.zeros(kept.size, dtype=int)
    np.cumsum(kept[:-1], out=first[1:])
    head = np.empty(re.size, dtype=int)  # the first eigenvalue of each one's cluster
    for k in sorted(set(kept.tolist()) - {0}):
        idx = first[kept == k, None] + np.arange(k)
        a, b, s = re[idx], im[idx], r[idx]
        dre = (a[:, :, None] - a[:, None, :] + np.pi) % TWO_PI - np.pi
        close = np.hypot(dre, b[:, :, None] - b[:, None, :]) <= np.maximum(s[:, :, None], s[:, None, :])
        for _ in range(k.bit_length()):
            close = close @ close
        head[idx] = idx[:, :1] + np.argmax(close, axis=2)
    heads = np.zeros(re.size, dtype=bool)
    heads[head] = True
    label = (np.cumsum(heads) - 1)[head]  # clusters numbered in the order of their first members
    size = np.bincount(label)
    t = np.angle(np.bincount(label, np.cos(re)) + 1j * np.bincount(label, np.sin(re)))
    cluster, owner = size > 1, owner[heads]

    reach = np.bincount(label, r) / size
    live, z = np.ones(t.shape, dtype=bool), Z[owner]
    orders = (0, 1, 2, 3) if cluster.any() else (0, 1, 2)
    for _ in range(POLISH_STEPS):  # Newton on g, or on g' for a cluster; a root stops at its first step beyond r
        gamma, d1, d2, *d3 = curve.curve_jet(t, orders)
        e0 = gamma - z
        f, fp = omega(e0, d1), omega(e0, d2)
        if d3:
            f[cluster] = fp[cluster]
            fp[cluster] = omega(d1[cluster], d2[cluster]) + omega(e0[cluster], d3[0][cluster])
        dt = np.divide(f, fp, out=np.zeros_like(f), where=fp != 0.0)
        live &= np.abs(dt) <= reach
        t = np.where(live, t - dt, t)
    return t % TWO_PI, size, owner


def step_curve(curve: TrigImmersion | ManifoldSpec, z) -> list[StepCandidate]:
    """All correspondence partners of z across a curve, sorted by midpoint parameter."""
    trig = _as_curve(curve)
    z = as_phase_vector(z)
    roots = scan_curve_roots(trig, z).roots
    ts = np.array([r.t for r in roots]).reshape(-1, 1)
    mids, tangents = trig.curve_jet(ts[:, 0], (0, 1))
    walled = [r.tangential for r in roots]
    return _step_candidates(z, mids, ts, tangents[:, None, :], None, angular=True, on_wall=walled)


# -- ellipsoids ---------------------------------------------------------------


def _ellipsoid_t2(axes: Sequence[float], c: Sequence[float]) -> float:
    """Positive root s = t^2 of sum_j c_j a_j^2/(a_j^2+s) = 1, by Newton from s = 0.

    The left side is convex and decreasing in s, so Newton from below the root
    increases monotonically to it; it stops once it no longer increases.
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


def _ellipsoid_source(ell: SymplecticEllipsoid, z, branch: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The checked source z, the root s = t^2 and the midpoint of its step on ``branch``.

    Raises :class:`DomainError` unless the level sum_j (x_j^2 + y_j^2)/a_j of z
    exceeds 1 + 1e-12 (a source strictly outside the ellipsoid).
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    z = as_phase_vector(z)
    if z.size != ell.ambient_dim:
        raise ValueError(f"expected a vector of length {ell.ambient_dim}, got {z.size}")
    x, y = z[0::2].tolist(), z[1::2].tolist()
    c = [(xj * xj + yj * yj) / aj for aj, xj, yj in zip(ell.axes, x, y)]
    level = sum(c)
    if level <= 1.0 + 1e-12:
        raise DomainError(f"source must lie strictly outside the ellipsoid (level {level:.6g}, need > 1)")
    s = _ellipsoid_t2(ell.axes, c)
    t = branch * math.sqrt(s)
    denom = [1.0 + s / (aj * aj) for aj in ell.axes]
    q = [(xj + t * yj / aj) / dj for aj, xj, yj, dj in zip(ell.axes, x, y, denom)]
    p = [(yj - t * xj / aj) / dj for aj, xj, yj, dj in zip(ell.axes, x, y, denom)]
    return z, s, interleave(q, p)


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
    z, _, mid = _ellipsoid_source(ell, z, branch)
    rows = _ellipsoid_tangent_rows(ell, mid)
    return _step_candidates(z, mid[None], ell.param_of(mid)[None], rows[None], transform, branch=branch)[0]


def iterate_ellipsoid(ell: SymplecticEllipsoid, z0, steps: int, branch: int = 1) -> np.ndarray:
    """Iterate the fixed-branch ellipsoid step; returns (steps+1, 2d) trajectory.

    The levels c_j = (x_j^2 + y_j^2)/a_j are integrals of the map, so the root
    s = t^2 is the same at every step, and a step multiplies each complex line
    w_j = x_j + i y_j by the fixed unit number r_j = (a_j - i t)^2/(a_j^2 + s).
    So one root is solved per orbit: row 1 is the :func:`step_ellipsoid`
    partner of z0, bit for bit, and row k is w_1 r^(k-1). The powers come from
    one running product, one complex multiply each (a phase k phi would round
    at ulp(k phi)), rescaled to modulus 1 so that no level drifts.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    z0, s, mid = _ellipsoid_source(ell, z0, branch)
    out = np.empty((steps + 1, z0.size))
    out[0] = z0
    if steps > 0:
        out[1] = 2.0 * mid - z0
        a, t = np.asarray(ell.axes), branch * math.sqrt(s)
        turn = np.empty((steps - 1, ell.d), dtype=complex)
        # r in real divisions: a complex division by a_j^2 + s would move |r| off 1 by more than an ulp
        turn.real, turn.imag = (a * a - s) / (a * a + s), -2.0 * a * t / (a * a + s)
        np.cumprod(turn, axis=0, out=turn)
        w = (out[1, 0::2] + 1j * out[1, 1::2]) * (turn / np.abs(turn))
        out[2:, 0::2], out[2:, 1::2] = w.real + 0.0, w.imag + 0.0  # a plane at rest reads 0, not -0
    return out


def iterate(spec: ManifoldSpec | Table, z0, steps: int, branch: int = 1) -> np.ndarray:
    """Follow one branch of the correspondence; returns the (steps+1, 2d) trajectory.

    On an ellipsoid, branch +1 is the forward map of :func:`step_ellipsoid`, stepped
    in the table frame. On a curve, branch +1 (-1) takes the non-degenerate partner
    furthest along (against) gamma' at its midpoint, and fails when there is none.
    """
    spec = spec if isinstance(spec, ManifoldSpec) else spec_for(spec)
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
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
        cands = [c for c in step_curve(trig, z) if not c.degenerate]
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
    q = Q - np.reshape(conic_intersections(pair, float(r[0]), float(r[1])), (-1, 2))
    return _step_candidates(z, graph.embed(q), q, graph.tangent_rows(q), transform)


class NewtonPartners(list):
    """The partners :func:`step_graph_numeric` found, a list of candidates.

    Multi-start Newton can miss partners, so ``len`` is a lower bound on the
    partner count; ``starts`` and ``converged`` say how many starts ran and
    how many of them converged (to the listed partners, before dedup).
    """

    def __init__(self, cands: list[StepCandidate], starts: int, converged: int) -> None:
        super().__init__(cands)
        self.starts = starts
        self.converged = converged


def step_graph_numeric(
    graph: GeneratingGraph,
    z,
    starts: int = 64,
    seed: int = 0,
    transform: AffineSymplectic | None = None,
) -> NewtonPartners:
    """Multi-start Newton enumeration of partners across any polynomial graph.

    Solves W = grad F(q) + hess F(q) (Q - q) with the exact Jacobian
    third F(q) . (Q - q); best-effort completeness, deterministic in seed.
    """
    _require_count("starts", starts)
    z = as_phase_vector(z)
    if z.size != graph.ambient_dim:
        raise ValueError(f"expected a vector of length {graph.ambient_dim}, got {z.size}")
    Q, W = z[0::2].copy(), z[1::2].copy()
    lo, hi = graph.box
    n = graph.n
    rscale = max(1.0, float(np.max(np.abs(W))), float(np.max(np.abs(Q))))

    bound = 10.0 * max(abs(lo), abs(hi), hi - lo)
    q = task_uniform_blocks(seed, range(starts), 0, lo, hi, count=n)
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
    q, on_wall = q[converged], on_wall[converged]
    cands = _step_candidates(z, graph.embed(q), q, graph.tangent_rows(q), transform, on_wall=on_wall.tolist())
    return NewtonPartners(cands, starts, len(q))


# -- verification and dispatch --------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Residuals of the two defining conditions for a claimed pair (z, z')."""

    midpoint_residual: float
    orthogonality_residual: float


def verify_pair(spec: ManifoldSpec, z, z_prime, u) -> PairReport:
    """Re-check a claimed pair (z, z') with midpoint parameter u, whichever route produced it.

    Returns |embed(u) - (z + z')/2|, the distance of the midpoint from the
    table point at u, and the normalized omega-orthogonality residual of the
    chord z' - z against the tangent basis at u (rank-checked, so a singular
    parameter raises :class:`ImmersionError`). Both are 0 for an exact pair.
    """
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
) -> list[StepCandidate]:
    """Enumerate correspondence partners of z for any supported table."""
    if not isinstance(spec, ManifoldSpec):
        spec = spec_for(spec)
    z = as_phase_vector(z)
    table = spec.table
    if isinstance(table, TrigImmersion):
        if spec.is_curve:
            return step_curve(spec, z)
        raise ValueError("no step solver for torus immersions of dimension >= 2")
    z_local = spec.transform.inverse()(z) if spec.transform else z
    if isinstance(table, SymplecticEllipsoid):
        return [step_ellipsoid(table, z_local, branch=branch, transform=spec.transform)]
    if table.n == 2 and table.is_homogeneous_cubic():
        return step_cubic_graph(table, z_local, transform=spec.transform)
    return step_graph_numeric(table, z_local, starts=starts, seed=seed, transform=spec.transform)
