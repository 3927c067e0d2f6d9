"""Generating functions, orbit reconstruction, and critical-point searches.

Periodic odd-length midpoint polygons carry the quadratic generating function
F(Q) = 2 sum_{i<j} (-1)^{i+j-1} omega(Q_i, Q_j); chains between the coordinate
Lagrangian subspaces carry G(Q) = 2 sum q_i . q_i' + 4 sum_{i<j} (-1)^{j-i}
q_j . q_i'. Critical points of either restricted to M^n are orbits, and the
function value equals the symplectic area of the reconstructed polyline.

Even-length periodic polygons admit no generating function; those orbits are
found by least squares on the stacked closure and orthogonality residuals.

Everything here is deterministic given the seed: start i draws its point
from the counter-derived generator ``task_rng(seed, i)``, and the searches
over a generating function run all starts in lockstep on stacked arrays,
with per-start step sizes and masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from ._pool import task_rng
from .core import AffineLagrangian, AffineSymplectic, normalize_lagrangian_pair, omega_pairwise, solve_stack
from .errors import ClosureError
from .manifolds import ManifoldSpec, TWO_PI
from .correspondence import orthogonality_residual

# Consecutive-midpoint coincidence threshold. Near a degenerate orbit the
# solutions are not isolated, the even search's least-squares system is
# singular there and converges only to about sqrt(eps), so coinciding
# midpoints come back that far apart.
DEGENERACY_TOL = math.sqrt(np.finfo(float).eps)
ORBIT_DEDUP = 1e-6


# -- polygons and polylines ---------------------------------------------------


@dataclass(frozen=True)
class MidpointPolygon:
    """n midpoint candidates: parameter points and their embeddings."""

    points: np.ndarray  # (n, 2d)
    params: np.ndarray | None = None  # (n, m) when tied to a table

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("need at least one midpoint")
        object.__setattr__(self, "points", pts)
        if self.params is not None:
            object.__setattr__(self, "params", np.atleast_2d(np.asarray(self.params, dtype=float)))

    @classmethod
    def from_params(cls, spec: ManifoldSpec, params) -> "MidpointPolygon":
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return cls(spec.embed(params), params)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class OrbitPolyline:
    """Reconstructed orbit: closed n-gon (periodic) or (n+1)-chain (boundary).

    ``max_residual`` is the worst correspondence residual across links when a
    table was involved, 0 for bare reconstructions. ``degenerate`` means some
    consecutive midpoints coincide (the polygon backtracks).
    """

    vertices: np.ndarray
    kind: str  # "periodic" | "boundary"
    area: float
    max_residual: float
    degenerate: bool


def orbit_midpoints(vertices: np.ndarray, kind: str) -> np.ndarray:
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if kind == "periodic":
        return 0.5 * (vertices + np.roll(vertices, -1, axis=0))
    return 0.5 * (vertices[:-1] + vertices[1:])


def _is_degenerate(midpoints: np.ndarray, kind: str, scale: float = 1.0) -> bool:
    # Midpoints inherit cancellation noise ~ eps * |vertices|, so the gap
    # threshold must grow with the vertex scale or huge doubled chains
    # (vertices ~ 1e3, midpoint gaps ~ 1e-9 of pure float noise) pass as
    # non-degenerate.
    if midpoints.shape[0] < 2:
        return False
    nxt = np.roll(midpoints, -1, axis=0) if kind == "periodic" else midpoints[1:]
    cur = midpoints if kind == "periodic" else midpoints[:-1]
    gaps = np.linalg.norm(nxt - cur, axis=1)
    return bool(np.any(gaps < DEGENERACY_TOL * max(1.0, scale)))


def make_orbit(vertices, kind: str, max_residual: float = 0.0) -> OrbitPolyline:
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if kind not in ("periodic", "boundary"):
        raise ValueError("kind must be 'periodic' or 'boundary'")
    mids = orbit_midpoints(vertices, kind)
    scale = float(np.max(np.abs(vertices))) if vertices.size else 1.0
    return OrbitPolyline(
        vertices=vertices,
        kind=kind,
        area=symplectic_area(vertices, kind),
        max_residual=float(max_residual),
        degenerate=_is_degenerate(mids, kind, scale),
    )


def symplectic_area(Z, kind: str | None = None) -> float:
    """(1/2) sum omega(z_i, z_{i+1}); cyclic for periodic, open for boundary."""
    if isinstance(Z, OrbitPolyline):
        kind = kind or Z.kind
        Z = Z.vertices
    if kind is None:
        raise ValueError("kind required for raw vertex arrays")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    nxt = np.roll(Z, -1, axis=0) if kind == "periodic" else Z[1:]
    cur = Z if kind == "periodic" else Z[:-1]
    return 0.5 * float(np.sum(omega_pairwise(cur, nxt)))


# -- generating functions ------------------------------------------------------


def _points_of(Q) -> np.ndarray:
    if isinstance(Q, MidpointPolygon):
        return Q.points
    return np.atleast_2d(np.asarray(Q, dtype=float))


@lru_cache(maxsize=None)
def _alternating_upper(n: int) -> np.ndarray:
    """(n, n) strictly upper-triangular (-1)^(i+j); read-only, shared by both generating functions."""
    idx = np.arange(n)
    A = np.triu((-1.0) ** (idx[:, None] + idx[None, :]), k=1)
    A.flags.writeable = False
    return A


def gen_fun_periodic(Q) -> float | np.ndarray:
    """2 sum_{i<j} (-1)^{i+j-1} omega(Q_i, Q_j) for odd-length polygons; one value per polygon of a stack."""
    P = _points_of(Q)
    n = P.shape[-2]
    if n % 2 == 0:
        raise ValueError("even-length periodic polygons admit no generating function")
    X, Y = P[..., 0::2], P[..., 1::2]
    W = X @ np.swapaxes(Y, -1, -2) - Y @ np.swapaxes(X, -1, -2)  # W[i, j] = omega(Q_i, Q_j)
    vals = -2.0 * np.sum(_alternating_upper(n) * W, axis=(-2, -1))
    return float(vals) if P.ndim == 2 else vals


def gen_fun_boundary(Q) -> float | np.ndarray:
    """2 sum_i q_i . q_i' + 4 sum_{i<j} (-1)^{j-i} q_j . q_i' for chains; one value per chain of a stack."""
    P = _points_of(Q)
    X, Y = P[..., 0::2], P[..., 1::2]
    inner = X @ np.swapaxes(Y, -1, -2)  # inner[j, i] = q_j . q_i'
    upper = _alternating_upper(P.shape[-2]) * np.swapaxes(inner, -1, -2)
    vals = 2.0 * np.sum(X * Y, axis=(-2, -1)) + 4.0 * np.sum(upper, axis=(-2, -1))
    return float(vals) if P.ndim == 2 else vals


# -- reconstruction -------------------------------------------------------------


def closure_defect(Q) -> np.ndarray:
    """Alternating sum sum_i (-1)^i Q_i (1-based); zero iff an even polygon closes."""
    P = _points_of(Q)
    signs = np.array([(-1.0) ** (i + 1) for i in range(P.shape[0])])  # -,+,-,... 1-based
    return np.einsum("i,ij->j", signs, P)


@lru_cache(maxsize=None)
def _chain_coefficients(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(n+1, n) coefficients of Q_j in the x-parts and y-parts of vertex z_i.

    The chain is z_{i+1} = 2 Q_i - z_i. Boundary chains start on the
    x-subspace and end on the y-subspace. Periodic chains share one table for
    both parts and start at the odd-n fixed point z_1 = Q_1 - Q_2 + ... + Q_n,
    or at 0 for even n, where a free start z_1 adds (-1)^i z_1 to vertex i.
    Read-only: the tables are shared between calls.
    """
    i, j = np.indices((n + 1, n))
    sign = (-1.0) ** (i + j)
    after = j < i  # Q_j already reflected through on the way to z_i
    back = np.where(after, -2.0 * sign, 0.0)
    if kind == "periodic":
        Cx = Cy = back + (n % 2) * sign
    else:
        Cx, Cy = np.where(after, 0.0, 2.0 * sign), back
    Cx.flags.writeable = Cy.flags.writeable = False
    return Cx, Cy


def reconstruct_periodic(Q, z1=None, tol: float = 1e-9) -> OrbitPolyline:
    """Closed polygon whose midpoints are Q.

    Odd n: unique, z_1 = Q_1 - Q_2 + ... + Q_n (the fixed point of the
    composed point reflections). Even n: exists iff the closure defect
    vanishes, and then every z_1 works; a defect above tolerance raises a
    closure error carrying the defect vector.
    """
    P = _points_of(Q)
    n = P.shape[0]
    C, _ = _chain_coefficients(n, "periodic")
    Z = C[:-1] @ P
    if n % 2 == 0:
        defect = closure_defect(P)
        dn = float(np.linalg.norm(defect))
        if dn >= tol:
            raise ClosureError(f"even polygon does not close: defect norm {dn:.3e}", defect)
        if z1 is not None:
            Z += np.outer((-1.0) ** np.arange(n), np.asarray(z1, dtype=float))
    return make_orbit(Z, "periodic")


def reconstruct_boundary(Q) -> OrbitPolyline:
    """Chain z_1..z_{n+1} from the x-subspace to the y-subspace with midpoints Q.

    x_i = 2 sum_{j>=i} (-1)^{j-i} q_j with x_{n+1} = 0, and
    y_i = 2 sum_{j<i} (-1)^{i-j+1} q_j' with y_1 = 0.
    """
    P = _points_of(Q)
    Cx, Cy = _chain_coefficients(P.shape[0], "boundary")
    Z = np.empty((P.shape[0] + 1, P.shape[1]))
    Z[:, 0::2] = Cx @ P[:, 0::2]
    Z[:, 1::2] = Cy @ P[:, 1::2]
    return make_orbit(Z, "boundary")


# -- gradients and Hessians ------------------------------------------------------


def ambient_gradients(Q, kind: str) -> np.ndarray:
    """Gradient of the generating function in each midpoint: -J(z_{i+1} - z_i); (..., n, 2d)."""
    P = _points_of(Q)
    Dx, Dy = _recon_diff(P.shape[-2], kind)
    out = np.empty_like(P)
    out[..., 0::2] = Dy @ P[..., 1::2]
    out[..., 1::2] = -(Dx @ P[..., 0::2])
    return out


def grad_gen_fun(spec: ManifoldSpec, Q: MidpointPolygon, kind: str) -> list[np.ndarray]:
    """Exact parameter-space gradients via the chain rule through embed."""
    if Q.params is None:
        raise ValueError("polygon must carry parameters")
    return list(_chain_rule(spec.tangent_basis(Q.params), ambient_gradients(Q.points, kind)))


def _chain_rule(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(n, m) parameter gradients from tangent rows (n, m, 2d) and ambient gradients (n, 2d)."""
    return np.einsum("iak,ik->ia", rows, g)


def _recon_diff(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) scalar coefficients of Q_j in (z_{i+1} - z_i), split x/y parts."""
    Cx, Cy = _chain_coefficients(n, kind)
    return np.diff(Cx, axis=0), np.diff(Cy, axis=0)


def stationarity_hessian(spec: ManifoldSpec, params: np.ndarray, kind: str) -> np.ndarray:
    """Exact Hessian of the generating function: (n, m) -> (nm, nm), (S, n, m) -> (S, nm, nm)."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n, m = params.shape[-2:]
    flat = params.reshape(-1, m)
    S, dim = flat.shape[0] // n, spec.ambient_dim
    R = spec.tangent_basis(flat).reshape(S, n, m, dim)
    g = ambient_gradients(spec.embed(flat).reshape(S, n, dim), kind)
    Dx, Dy = _recon_diff(n, kind)
    Rx, Ry = R[..., 0::2], R[..., 1::2]
    # zeta_ia^T (d g_i / d Q_j) zeta_jb at [s, i, a, j, b], interleaved block structure
    H = Dy[:, None, :, None] * np.einsum("siak,sjbk->siajb", Rx, Ry) - Dx[:, None, :, None] * np.einsum(
        "siak,sjbk->siajb", Ry, Rx
    )
    s, diag = np.arange(S)[:, None], np.arange(n)
    H[s, diag, :, diag, :] += np.einsum("sic,sicab->siab", g, spec.embed_hessian(flat).reshape(S, n, dim, m, m))
    return H.reshape(params.shape[:-2] + (n * m, n * m))


# -- critical-point search -------------------------------------------------------


@dataclass(frozen=True)
class FoundOrbit:
    orbit: OrbitPolyline
    params: np.ndarray  # (n, m)
    value: float  # generating-function value (area for even-n orbits)
    grad_norm: float
    vertices_ambient: np.ndarray | None = None  # boundary orbits: original frame

    def as_dict(self) -> dict:
        out = {
            "vertices": [[float(v) for v in row] for row in self.orbit.vertices],
            "midpoint_params": [[float(v) for v in row] for row in self.params],
            "area": float(self.orbit.area),
            "max_residual": float(self.orbit.max_residual),
            "degenerate": bool(self.orbit.degenerate),
            "objective": float(self.value),
            "grad_norm": float(self.grad_norm),
        }
        if self.vertices_ambient is not None:
            out["vertices_ambient"] = [[float(v) for v in row] for row in self.vertices_ambient]
        return out


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a multi-start search; never silently empty.

    ``failed`` is set when no start converged to a critical point;
    ``flat_objective`` when the objective is numerically constant on M^n
    (every point critical, no isolated orbits to report).
    """

    orbits: tuple[FoundOrbit, ...]
    best: FoundOrbit | None
    failed: bool
    flat_objective: bool
    message: str


def _wrap_params(U: np.ndarray, angular: bool) -> np.ndarray:
    return np.mod(U, TWO_PI) if angular else U


def _canonical_shift(U: np.ndarray) -> np.ndarray:
    """Cyclic shift minimizing lexicographic order of the rounded parameter list."""
    shifted = [np.roll(U, -s, axis=0) for s in range(U.shape[0])]
    return min(shifted, key=lambda C: tuple(np.round(C.ravel(), 9)))


def _params_close(
    A: np.ndarray, B: np.ndarray, angular: bool, tol: float = ORBIT_DEDUP, shifts: bool = True
) -> bool:
    if A.shape != B.shape:
        return False
    d = np.abs(A - np.stack([np.roll(B, -s, axis=0) for s in range(A.shape[0] if shifts else 1)]))
    if angular:
        d = np.minimum(np.mod(d, TWO_PI), TWO_PI - np.mod(d, TWO_PI))
    return bool(np.any(np.max(d, axis=(1, 2)) < tol))


def _search_core(
    spec: ManifoldSpec,
    n: int,
    kind: str,
    starts: int,
    seed: int,
    sign: float,
    cyclic_dedup: bool,
) -> tuple[list[tuple[np.ndarray, float, float]], bool, int]:
    """Shared ascent+Newton driver over all starts in lockstep.

    Every start keeps its own step size and its own place in the ascent and
    Newton phases; one pass evaluates all starts still in a phase as one
    stack. Returns (converged (params, value, gradnorm), flat, n_converged).
    """
    m, dim = spec.param_dim, spec.ambient_dim
    lo, hi = spec.box
    angular = spec.params_are_angles
    gen_fun = gen_fun_periodic if kind == "periodic" else gen_fun_boundary

    def objective(U: np.ndarray) -> np.ndarray:
        return gen_fun(spec.embed(U.reshape(-1, m)).reshape(U.shape[0], n, dim))

    def gradient(U: np.ndarray) -> np.ndarray:
        flat = U.reshape(-1, m)
        g = ambient_gradients(spec.embed(flat).reshape(U.shape[0], n, dim), kind)
        return _chain_rule(spec.tangent_basis(flat), g.reshape(flat.shape[0], dim)).reshape(U.shape)

    def norms(G: np.ndarray) -> np.ndarray:
        # one dot product per start, summed as np.linalg.norm sums a single start
        rows = G.reshape(G.shape[0], 1, n * m)
        return np.sqrt((rows @ np.swapaxes(rows, 1, 2))[:, 0, 0])

    def left_box(U: np.ndarray) -> np.ndarray:
        # angles wrap; graph parameters that leave the box have run away
        return (not angular) & ((np.min(U, axis=(1, 2)) < lo) | (np.max(U, axis=(1, 2)) > hi))

    # flat-objective detection on the raw start sample
    probe_vals = objective(task_rng(seed, 1 << 62).uniform(lo, hi, (min(max(starts, 8), 64), n, m)))
    spread = float(np.max(probe_vals) - np.min(probe_vals))
    if spread <= 1e-12 * max(1.0, float(np.max(np.abs(probe_vals)))):
        return [], True, 0

    U = np.array([task_rng(seed, i).uniform(lo, hi, (n, m)) for i in range(starts)]).reshape(starts, n, m)
    f, alpha, step = objective(U), np.full(starts, 0.5), np.zeros(starts)
    alive, climbing = np.ones(starts, dtype=bool), np.ones(starts, dtype=bool)
    G, gn = np.zeros_like(U), np.zeros(starts)
    # gradient ascent with per-start Armijo backtracking
    for _ in range(400):
        c = np.flatnonzero(climbing)
        if not c.size:
            break
        G[c] = gradient(U[c])
        gn[c] = norms(G[c])
        pending = np.zeros(starts, dtype=bool)
        pending[c] = ~(gn[c] <= 1e-9 * np.maximum(1.0, np.abs(f[c])))
        step[pending] = alpha[pending]
        climbing[:] = False  # until a step is accepted
        while pending.any():
            p = np.flatnonzero(pending)
            U2 = _wrap_params(U[p] + (sign * step[p])[:, None, None] * G[p], angular)
            f2 = objective(U2)
            ok = sign * (f2 - f[p]) >= 1e-4 * step[p] * gn[p] * gn[p]
            won = p[ok]
            U[won], f[won], alpha[won] = U2[ok], f2[ok], np.minimum(step[won] * 2.0, 4.0)
            climbing[won], pending[won] = True, False
            step[p[~ok]] *= 0.5
            pending &= step > 1e-14
        alive &= ~(climbing & left_box(U))
        climbing &= alive
    # Newton polish on the stationarity system
    polishing = alive.copy()
    for _ in range(40):
        p = np.flatnonzero(polishing)
        if not p.size:
            break
        G = gradient(U[p]).reshape(p.size, n * m)
        moving = ~(norms(G) <= 1e-12 * np.maximum(1.0, np.abs(f[p])))
        polishing[p[~moving]] = False
        p = p[moving]
        delta, _ = solve_stack(stationarity_hessian(spec, U[p], kind), -G[moving], 1e-10)
        U[p] = _wrap_params(U[p] + delta.reshape(-1, n, m), angular)
        failed = p[~np.all(np.isfinite(delta), axis=1) | left_box(U[p])]
        alive[failed] = polishing[failed] = False
    idx = np.flatnonzero(alive)
    gn, f = norms(gradient(U[idx])), objective(U[idx])
    ok = gn <= 1e-7 * np.maximum(1.0, np.abs(f))
    results = [(U[i], float(fi), float(g)) for i, fi, g in zip(idx[ok], f[ok], gn[ok])]
    # deterministic merge: sort then dedup. Cyclic shifts are a symmetry of the
    # periodic generating function only; boundary chains must keep row order.
    def canon(U: np.ndarray) -> np.ndarray:
        W = _wrap_params(U, angular)
        return _canonical_shift(W) if cyclic_dedup else W

    results.sort(key=lambda r: (-sign * r[1], tuple(np.round(canon(r[0]).ravel(), 9))))
    kept: list[tuple[np.ndarray, float, float]] = []
    for U, f, gn in results:
        Uc = canon(U)
        if not any(_params_close(Uc, K, angular, shifts=cyclic_dedup) for K, _, _ in kept):
            kept.append((Uc, f, gn))
    return kept, False, len(results)


def _orbit_residual(spec: ManifoldSpec, U: np.ndarray, vertices_chain: np.ndarray) -> float:
    return orthogonality_residual(np.diff(vertices_chain, axis=0), spec.tangent_basis(U))


def find_periodic_orbit(
    spec: ManifoldSpec, n: int, starts: int = 64, seed: int = 0, mode: str = "max"
) -> SearchResult:
    """Multi-start search for odd-n periodic orbits as critical points of F."""
    if n % 2 == 0 or n < 3:
        raise ValueError("periodic search requires odd n >= 3; use search_even_periodic for even n")
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    sign = 1.0 if mode == "max" else -1.0
    kept, flat, n_conv = _search_core(spec, n, "periodic", starts, seed, sign, cyclic_dedup=True)
    if flat:
        return SearchResult((), None, False, True, "flat objective: generating function is constant on M^n")
    found: list[FoundOrbit] = []
    for U, f, gn in kept:
        orb = reconstruct_periodic(spec.embed(U))
        chain = np.vstack([orb.vertices, orb.vertices[0]])
        res = _orbit_residual(spec, U, chain)
        if res > 1e-8:
            continue
        orb = make_orbit(orb.vertices, "periodic", max_residual=res)
        found.append(FoundOrbit(orb, U, f, gn))
    if not found:
        return SearchResult((), None, True, False, f"search failed: {n_conv} of {starts} starts converged, none verified")
    found.sort(key=lambda o: -sign * o.value)
    return SearchResult(tuple(found), found[0], False, False, f"{len(found)} distinct critical orbits")


def find_boundary_orbit(
    spec: ManifoldSpec,
    L1: AffineLagrangian,
    L2: AffineLagrangian,
    n: int,
    starts: int = 64,
    seed: int = 0,
    mode: str = "both",
) -> "BoundarySearchResult":
    """Search for n-link chains from L1 to L2 as critical points of G.

    The pair is first normalized to the coordinate subspaces; returned orbits
    live in the normalized frame (where the area identity holds), with the
    original-frame vertices attached alongside.
    """
    if n < 1:
        raise ValueError("need n >= 1 links")
    if mode not in ("max", "min", "both"):
        raise ValueError("mode must be 'max', 'min' or 'both'")
    T = normalize_lagrangian_pair(L1, L2)
    combined = T.compose(spec.transform) if spec.transform else T
    nspec = ManifoldSpec(spec.table, combined)
    Tinv = T.inverse()

    modes = ("max", "min") if mode == "both" else (mode,)
    all_found: list[tuple[FoundOrbit, float]] = []
    flat = False
    n_conv = 0
    for mname in modes:
        sign = 1.0 if mname == "max" else -1.0
        kept, is_flat, conv = _search_core(nspec, n, "boundary", starts, seed, sign, cyclic_dedup=False)
        flat = flat or is_flat
        n_conv += conv
        for U, f, gn in kept:
            orb = reconstruct_boundary(nspec.embed(U))
            res = _orbit_residual(nspec, U, orb.vertices)
            if res > 1e-8:
                continue
            orb = make_orbit(orb.vertices, "boundary", max_residual=res)
            all_found.append((FoundOrbit(orb, U, f, gn, vertices_ambient=Tinv(orb.vertices)), sign))
    if flat:
        return BoundarySearchResult((), None, None, False, True, "flat objective: G is constant on M^n", T)
    # dedup across the two mode runs
    uniq: list[tuple[FoundOrbit, float]] = []
    for fo, sign in all_found:
        if any(_params_close(fo.params, g.params, nspec.params_are_angles, shifts=False) for g, _ in uniq):
            continue
        uniq.append((fo, sign))
    if not uniq:
        return BoundarySearchResult(
            (), None, None, True, False, f"search failed: {n_conv} converged starts, none verified", T
        )
    orbits = tuple(fo for fo, _ in sorted(uniq, key=lambda p: -p[0].value))
    best_max = orbits[0] if mode in ("max", "both") else None
    best_min = orbits[-1] if mode in ("min", "both") else None
    return BoundarySearchResult(orbits, best_max, best_min, False, False, f"{len(orbits)} distinct critical orbits", T)


@dataclass(frozen=True)
class BoundarySearchResult:
    orbits: tuple[FoundOrbit, ...]
    best_max: FoundOrbit | None
    best_min: FoundOrbit | None
    failed: bool
    flat_objective: bool
    message: str
    normalization: AffineSymplectic


# -- even-length periodic search ---------------------------------------------------


@dataclass(frozen=True)
class EvenSearchResult:
    orbits: tuple[FoundOrbit, ...]
    nondegenerate: tuple[FoundOrbit, ...]
    converged: int
    message: str


def search_even_periodic(spec: ManifoldSpec, n: int, starts: int = 64, seed: int = 0) -> EvenSearchResult:
    """Least-squares search for even-n periodic orbits (no generating function).

    Unknowns are the n midpoint parameters plus z_1; residuals stack the
    closure defect with the omega-orthogonality at every midpoint, giving a
    square system solved by Levenberg-Marquardt with the analytic Jacobian.
    """
    if n % 2 == 1 or n < 2:
        raise ValueError("even search requires even n >= 2; use find_periodic_orbit for odd n")
    m = spec.param_dim
    dim = spec.ambient_dim
    lo, hi = spec.box
    angular = spec.params_are_angles

    C, _ = _chain_coefficients(n, "periodic")
    D = np.diff(C, axis=0)
    sigma = (-1.0) ** np.arange(n + 1)  # the free start z_1 enters vertex i as (-1)^i z_1
    dsigma = np.diff(sigma)

    def unpack(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return vec[: n * m].reshape(n, m), vec[n * m :]

    def residuals(vec: np.ndarray) -> np.ndarray:
        U, z1 = unpack(vec)
        pts, R = spec.embed(U), spec.tangent_basis(U)  # (n, dim), (n, m, dim)
        diffs = D @ pts + np.outer(dsigma, z1)
        # omega(z_{i+1} - z_i, zeta_ia) at [i, a]
        ortho = np.einsum("iak,ik->ia", R[..., 1::2], diffs[:, 0::2]) - np.einsum(
            "iak,ik->ia", R[..., 0::2], diffs[:, 1::2]
        )
        return np.concatenate([C[n] @ pts, ortho.ravel()])  # closure z_{n+1} - z_1 is free of z_1 for even n

    def jacobian(vec: np.ndarray) -> np.ndarray:
        U, z1 = unpack(vec)
        pts, R = spec.embed(U), spec.tangent_basis(U)  # (n, dim), (n, m, dim)
        Hs = spec.embed_hessian(U)  # (n, dim, m, m)
        diffs = D @ pts + np.outer(dsigma, z1)
        Rx, Ry = R[..., 0::2], R[..., 1::2]
        # through Q_j: D[i, j] omega(zeta_jb, zeta_ia) at [i, a, j, b]
        dU = D[:, None, :, None] * (np.einsum("jbk,iak->iajb", Rx, Ry) - np.einsum("jbk,iak->iajb", Ry, Rx))
        # through zeta_ia(u_i): omega(z_{i+1} - z_i, d zeta_ia / d u_ib)
        diag = np.arange(n)
        dU[diag, :, diag, :] += np.einsum("ik,ikab->iab", diffs[:, 0::2], Hs[:, 1::2]) - np.einsum(
            "ik,ikab->iab", diffs[:, 1::2], Hs[:, 0::2]
        )
        JR = np.empty_like(R)
        JR[..., 0::2], JR[..., 1::2] = -Ry, Rx
        dz1 = -dsigma[:, None, None] * JR  # through z_1
        closure = (C[n][:, None, None] * R).reshape(n * m, dim).T  # no z_1 columns: it cancels
        return np.block([
            [closure, np.zeros((dim, dim))],
            [dU.reshape(n * m, n * m), dz1.reshape(n * m, dim)],
        ])

    zscale = max(1.0, float(np.max(np.abs(spec.embed(np.full(m, 0.5 * (lo + hi)))))))

    def run_start(idx: int) -> tuple[np.ndarray, np.ndarray] | None:
        rng = task_rng(seed, idx)
        U0 = rng.uniform(lo, hi, (n, m))
        z10 = rng.uniform(-3.0 * zscale, 3.0 * zscale, dim)
        vec0 = np.concatenate([U0.ravel(), z10])
        sol = least_squares(residuals, vec0, jac=jacobian, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
        r = residuals(sol.x)
        if float(np.linalg.norm(r)) > 1e-9 * zscale:
            return None
        U, z1 = unpack(sol.x)
        return _wrap_params(U, angular), z1

    results = [r for r in map(run_start, range(starts)) if r is not None]
    results.sort(key=lambda r: tuple(np.round(_canonical_shift(r[0]).ravel(), 9)))
    found: list[FoundOrbit] = []
    for U, z1 in results:
        if any(_params_close(_canonical_shift(U), _canonical_shift(f.params), angular) for f in found):
            continue
        Z = C @ spec.embed(U) + np.outer(sigma, z1)
        res = _orbit_residual(spec, U, Z)
        orb = make_orbit(Z[:-1], "periodic", max_residual=res)
        found.append(FoundOrbit(orb, U, orb.area, 0.0))
    nondeg = tuple(f for f in found if not f.orbit.degenerate)
    return EvenSearchResult(
        tuple(found), nondeg, len(results),
        f"{len(results)} converged starts, {len(found)} distinct solutions, {len(nondeg)} non-degenerate",
    )
