"""Generating functions, orbit reconstruction, and critical-point searches.

Periodic odd-length midpoint polygons carry the quadratic generating function
F(Q) = 2 sum_{i<j} (-1)^{i+j-1} omega(Q_i, Q_j); chains between the coordinate
Lagrangian subspaces carry G(Q) = 2 sum q_i . q_i' + 4 sum_{i<j} (-1)^{j-i}
q_j . q_i'. Critical points of either restricted to M^n are orbits, and the
function value equals the symplectic area of the reconstructed polyline.

Even-length periodic polygons admit no generating function; those orbits are
found by a Levenberg-Marquardt least-squares solve of the stacked closure and
orthogonality residuals. One stationarity kernel evaluates every search: the
ascent gradient, the Newton polish's Hessian and the even search's residuals
and Jacobian, in one pass per stack of polygons.

Everything here is deterministic given the seed: start i draws its point
from the counter-derived generator ``task_rng(seed, i)``, and every search
runs all starts in lockstep on stacked arrays, with per-start step sizes,
damping and masks, so a start's path does not depend on the other starts;
shooting in mode "both" is one lockstep run of the max and min searches. The
Armijo backtracking tries a ladder of halvings of every pending step in one
objective call; halving is exact and objective rows do not depend on their
stack, so it accepts the steps of backtracking one halving at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._pool import task_rng, task_uniform_blocks
from .core import AffineLagrangian, AffineSymplectic, _distinct, _row_norms, interleave, normalize_lagrangian_pair, omega
from .core import _require_count, apply_J, solve_stack
from .errors import ClosureError
from .manifolds import ManifoldSpec, TWO_PI, _require_full_rank
from .correspondence import orthogonality_residual

# Consecutive-midpoint coincidence threshold. Near a degenerate orbit the
# solutions are not isolated, the even search's least-squares system is
# singular there and converges only to about sqrt(eps), so coinciding
# midpoints come back that far apart.
DEGENERACY_TOL = math.sqrt(np.finfo(float).eps)
ORBIT_RESIDUAL_TOL = 1e-8  # reported orbits have normalized orthogonality residuals at most this


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
    return 0.5 * float(np.sum(omega(cur, nxt)))


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
    return make_orbit(_boundary_chain(_points_of(Q)), "boundary")


def _boundary_chain(P: np.ndarray) -> np.ndarray:
    """The vertices (n+1, 2d) of the boundary chain with midpoints P (n, 2d)."""
    Cx, Cy = _chain_coefficients(P.shape[0], "boundary")
    return interleave(Cx @ P[:, 0::2], Cy @ P[:, 1::2])


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
    return list(_stationarity(spec, Q.params[None], kind, checked=True)[3][0])


def stationarity_hessian(spec: ManifoldSpec, params: np.ndarray, kind: str) -> np.ndarray:
    """Exact Hessian of the generating function: (n, m) -> (nm, nm), (S, n, m) -> (S, nm, nm).

    One stationarity kernel serves this Hessian, the searches' ascent gradient
    and Newton polish, and the even search's residuals and Jacobian; shooting
    in mode "both" is one lockstep run of the max and min searches. A
    rank-deficient midpoint raises ImmersionError.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n, m = params.shape[-2:]
    H = _stationarity(spec, params.reshape(-1, n, m), kind, hessian=True, checked=True)[4]
    return H.reshape(params.shape[:-2] + (n * m, n * m))


def _recon_diff(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) scalar coefficients of Q_j in (z_{i+1} - z_i), split x/y parts."""
    Cx, Cy = _chain_coefficients(n, kind)
    return np.diff(Cx, axis=0), np.diff(Cy, axis=0)


def _stationarity(spec: ManifoldSpec, U: np.ndarray, kind: str, offset=None, hessian=False, checked=False) -> tuple:
    """One evaluation of the stationarity system per parameter polygon of a stack U (S, n, m).

    Returns the embedding (S, n, 2d), tangent rows (S, n, m, 2d), their
    full-rank mask (S, n), the gradient -omega(z_{i+1} - z_i + offset_i,
    zeta_ia) (S, n, m) and, if ``hessian``, its exact Jacobian (S, nm, nm).
    ``offset`` (S, n, 2d) is added to each vertex difference. ``checked``
    raises ImmersionError at a rank-deficient midpoint.
    """
    S, n, m = U.shape
    dim = spec.ambient_dim
    flat = U.reshape(-1, m)
    pts = spec.embed(flat).reshape(S, n, dim)
    R, full = spec.tangent_frame(flat)
    g = ambient_gradients(pts, kind)  # -J(z_{i+1} - z_i)
    if offset is not None:
        g -= apply_J(offset)
    grad = np.einsum("iak,ik->ia", R, g.reshape(-1, dim)).reshape(S, n, m)
    R, full = R.reshape(S, n, m, dim), full.reshape(S, n)
    if checked and not full.all():
        _require_full_rank(np.swapaxes(R, -1, -2), U)
    if not hessian:
        return pts, R, full, grad, None
    Dx, Dy = _recon_diff(n, kind)
    # zeta_ia^T (d g_i / d Q_j) zeta_jb at [s, i, a, j, b], interleaved block structure
    XY = np.einsum("siak,sjbk->siajb", R[..., 0::2], R[..., 1::2])  # x-part of zeta_ia . y-part of zeta_jb
    H = Dy[:, None, :, None] * XY - Dx[:, None, :, None] * XY.transpose(0, 3, 4, 1, 2)
    s, diag = np.arange(S)[:, None], np.arange(n)
    H[s, diag, :, diag, :] += np.einsum("sic,sicab->siab", g, spec.embed_hessian(flat).reshape(S, n, dim, m, m))
    return pts, R, full, grad, H.reshape(S, n * m, n * m)


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


def _objective(spec: ManifoldSpec, n: int, kind: str, U: np.ndarray) -> np.ndarray:
    """Generating-function value of each parameter polygon of a stack (S, n, m)."""
    gen_fun = gen_fun_periodic if kind == "periodic" else gen_fun_boundary
    return gen_fun(spec.embed(U.reshape(-1, spec.param_dim)).reshape(U.shape[0], n, spec.ambient_dim))


def _is_flat(spec: ManifoldSpec, n: int, kind: str, starts: int, seed: int) -> bool:
    """Whether the objective is numerically constant on a seeded sample of M^n."""
    lo, hi = spec.box
    probe = task_rng(seed, 1 << 62).uniform(lo, hi, (min(max(starts, 8), 64), n, spec.param_dim))
    vals = _objective(spec, n, kind, probe)
    return float(np.max(vals) - np.min(vals)) <= 1e-12 * max(1.0, float(np.max(np.abs(vals))))


# Halvings of every pending start's step tried in one objective call per
# backtracking round. Any value accepts the same steps; it only trades objective
# calls against rungs evaluated past the accepted one (4 to 12 timed alike on
# the benchmark's orbit searches, 16 slower on the torus).
_LADDER_RUNGS = 8

_MODE_SIGNS = {"max": (1.0,), "min": (-1.0,), "both": (1.0, -1.0)}  # +1 climbs the objective, -1 descends


def _search_core(
    spec: ManifoldSpec, n: int, kind: str, starts: int, seed: int, signs: tuple[float, ...]
) -> tuple[list[tuple[np.ndarray, float, float]], int, int]:
    """Shared ascent+Newton driver: every start once per sign (+1 climbs, -1 descends), all in lockstep.

    Each run keeps its own sign, step size and place in the ascent and Newton
    phases; one pass evaluates all runs still in a phase as one stack. A
    backtracking round tries a ladder of ``_LADDER_RUNGS`` halvings of every
    pending run's step in one objective call, and each run takes its first
    rung that passes the Armijo test. Halving is exact and every row is
    independent of its stack, so the accepted steps are those of
    one-halving-per-pass backtracking with one sign at a time, bit for bit. A
    run at a rank-deficient chart point (the ellipsoid chart has some) ends
    there. Returns (converged (params, value, gradnorm), sorted and deduped
    per sign; n_converged; n_ended_rank_deficient).
    """
    m = spec.param_dim
    cyclic = kind == "periodic"  # cyclic shifts are a symmetry of F only; boundary chains keep row order
    lo, hi = spec.box
    angular = spec.params_are_angles

    def end_rank_deficient(idx: np.ndarray, full: np.ndarray) -> np.ndarray:
        # the runs idx with a midpoint at a rank-deficient chart point end there, counted;
        # returns the mask of the others
        ok = full.all(axis=1)
        singular[idx[~ok]], alive[idx[~ok]] = True, False
        return ok

    def left_box(U: np.ndarray) -> np.ndarray:
        # angles wrap; graph parameters that leave the box have run away
        return (not angular) & ((np.min(U, axis=(1, 2)) < lo) | (np.max(U, axis=(1, 2)) > hi))

    U = task_uniform_blocks(seed, range(starts), 0, lo, hi, count=n * m).reshape(starts, n, m)
    U, sign = np.tile(U, (len(signs), 1, 1)), np.repeat(signs, starts)
    runs = U.shape[0]
    f, alpha, step = _objective(spec, n, kind, U), np.full(runs, 0.5), np.zeros(runs)
    alive, climbing = np.ones(runs, dtype=bool), np.ones(runs, dtype=bool)
    singular = np.zeros(runs, dtype=bool)  # reached a rank-deficient chart point: the run ends
    G, gn = np.zeros_like(U), np.zeros(runs)
    rungs = 0.5 ** np.arange(_LADDER_RUNGS)
    # gradient ascent with per-run Armijo backtracking
    for _ in range(400):
        c = np.flatnonzero(climbing)
        if not c.size:
            break
        _, _, full, G[c], _ = _stationarity(spec, U[c], kind)
        gn[c] = _row_norms(G[c].reshape(c.size, n * m))
        if not full.all():
            c = c[end_rank_deficient(c, full)]
        pending = np.zeros(runs, dtype=bool)
        pending[c] = ~(gn[c] <= 1e-9 * np.maximum(1.0, np.abs(f[c])))
        step[pending] = alpha[pending]
        climbing[:] = False  # until a step is accepted
        while pending.any():
            p = np.flatnonzero(pending)
            trial = step[p, None] * rungs  # (P, R): rung k is the step k sequential halvings reach
            U2 = _wrap_params(U[p, None] + (sign[p, None] * trial)[..., None, None] * G[p, None], angular)
            f2 = _objective(spec, n, kind, U2.reshape(-1, n, m)).reshape(trial.shape)
            ok = (sign[p, None] * (f2 - f[p, None]) >= 1e-4 * trial * gn[p, None] * gn[p, None]) & (trial > 1e-14)
            hit = ok.any(axis=1)
            first = np.argmax(ok[hit], axis=1)
            won = p[hit]
            U[won], f[won], alpha[won] = U2[hit, first], f2[hit, first], np.minimum(trial[hit, first] * 2.0, 4.0)
            climbing[won], pending[won] = True, False
            step[p[~hit]] *= 0.5**_LADDER_RUNGS
            pending &= step > 1e-14
        alive &= ~(climbing & left_box(U))
        climbing &= alive
    # Newton polish on the stationarity system
    polishing = alive.copy()
    for _ in range(40):
        p = np.flatnonzero(polishing)
        if not p.size:
            break
        _, _, full, G, H = _stationarity(spec, U[p], kind, hessian=True)
        G = G.reshape(p.size, n * m)
        moving = ~(_row_norms(G) <= 1e-12 * np.maximum(1.0, np.abs(f[p])))
        if not full.all():
            moving &= end_rank_deficient(p, full)
        polishing[p[~moving]] = False
        p = p[moving]
        delta, _ = solve_stack(H[moving], -G[moving], 1e-10)
        U[p] = _wrap_params(U[p] + delta.reshape(-1, n, m), angular)
        failed = p[~np.all(np.isfinite(delta), axis=1) | left_box(U[p])]
        alive[failed] = polishing[failed] = False
    idx = np.flatnonzero(alive)
    _, _, full, G, _ = _stationarity(spec, U[idx], kind)
    gn, f = _row_norms(G.reshape(idx.size, n * m)), _objective(spec, n, kind, U[idx])
    ok = gn <= 1e-7 * np.maximum(1.0, np.abs(f))
    if not full.all():
        ok &= end_rank_deficient(idx, full)
    # deterministic merge per sign: sort then dedup
    W = _wrap_params(U[idx], angular)
    kept: list[tuple[np.ndarray, float, float]] = []
    for s in signs:
        mine = np.flatnonzero(ok & (sign[idx] == s))
        results = [(_canonical_shift(W[k]) if cyclic else W[k], float(f[k]), float(gn[k])) for k in mine]
        results.sort(key=lambda r: (-s * r[1], tuple(np.round(r[0].ravel(), 9))))
        kept += _distinct(results, [r[0] for r in results], angular, cyclic)
    return kept, int(np.sum(ok)), int(np.sum(singular))


def _verified_orbit(spec: ManifoldSpec, U: np.ndarray, chain: np.ndarray, kind: str) -> OrbitPolyline | None:
    """The orbit with closed vertex chain (n+1, 2d) and midpoint params U (n, m), or None when the
    chain's normalized orthogonality residual exceeds ``ORBIT_RESIDUAL_TOL`` or a midpoint sits at a
    rank-deficient chart parameter."""
    rows, full = spec.tangent_frame(U)
    res = orthogonality_residual(np.diff(chain, axis=0), rows)
    if res > ORBIT_RESIDUAL_TOL or not np.all(full):
        return None
    return make_orbit(chain[:-1] if kind == "periodic" else chain, kind, max_residual=res)


def _rank_deficient_note(count: int) -> str:
    """The message suffix counting starts that ended at a rank-deficient chart point; empty for none."""
    return f", {count} starts ended at a rank-deficient chart point" if count else ""


def find_periodic_orbit(
    spec: ManifoldSpec, n: int, starts: int = 64, seed: int = 0, mode: str = "max"
) -> SearchResult:
    """Multi-start search for odd-n periodic orbits as critical points of F."""
    if n % 2 == 0 or n < 3:
        raise ValueError("periodic search requires odd n >= 3; use search_even_periodic for even n")
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    _require_count("starts", starts)
    if _is_flat(spec, n, "periodic", starts, seed):
        return SearchResult((), None, False, True, "flat objective: generating function is constant on M^n")
    kept, n_conv, n_singular = _search_core(spec, n, "periodic", starts, seed, _MODE_SIGNS[mode])
    C, _ = _chain_coefficients(n, "periodic")
    found: list[FoundOrbit] = []
    for U, f, gn in kept:
        Z = C[:-1] @ spec.embed(U)  # the vertices reconstruct_periodic gives for odd n
        orb = _verified_orbit(spec, U, np.vstack([Z, Z[0]]), "periodic")
        if orb is not None:
            found.append(FoundOrbit(orb, U, f, gn))
    ended = _rank_deficient_note(n_singular)
    if not found:
        msg = f"search failed: {n_conv} of {starts} starts converged, none verified{ended}"
        return SearchResult((), None, True, False, msg)
    return SearchResult(tuple(found), found[0], False, False, f"{len(found)} distinct critical orbits{ended}")


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
    if mode not in _MODE_SIGNS:
        raise ValueError("mode must be 'max', 'min' or 'both'")
    _require_count("starts", starts)
    T = normalize_lagrangian_pair(L1, L2)
    combined = T.compose(spec.transform) if spec.transform else T
    nspec = ManifoldSpec(spec.table, combined)
    if _is_flat(nspec, n, "boundary", starts, seed):
        return BoundarySearchResult((), None, None, False, True, "flat objective: G is constant on M^n", T)
    Tinv = T.inverse()

    # mode "both" runs the max and min searches as one lockstep stack
    kept, n_conv, n_singular = _search_core(nspec, n, "boundary", starts, seed, _MODE_SIGNS[mode])
    found: list[FoundOrbit] = []
    for U, f, gn in kept:
        orb = _verified_orbit(nspec, U, _boundary_chain(nspec.embed(U)), "boundary")
        if orb is not None:
            found.append(FoundOrbit(orb, U, f, gn, vertices_ambient=Tinv(orb.vertices)))
    uniq = _distinct(found, [fo.params for fo in found], nspec.params_are_angles, shifts=False)
    ended = _rank_deficient_note(n_singular)
    if not uniq:
        msg = f"search failed: {n_conv} converged starts, none verified{ended}"
        return BoundarySearchResult((), None, None, True, False, msg, T)
    orbits = tuple(sorted(uniq, key=lambda fo: -fo.value))
    best_max = orbits[0] if mode in ("max", "both") else None
    best_min = orbits[-1] if mode in ("min", "both") else None
    msg = f"{len(orbits)} distinct critical orbits{ended}"
    return BoundarySearchResult(orbits, best_max, best_min, False, False, msg, T)


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
    square system of p = n m + 2d equations. All starts run one
    Levenberg-Marquardt iteration in lockstep on the analytic Jacobian: each
    pass solves (J^T J + lam diag(J^T J)) delta = -J^T r for every start still
    running, keeps a step only where the cost falls, and adapts each start's
    own damping lam. A start stops when its residual reaches the noise floor,
    its step is negligible or its damping blows up; at most 400 passes.
    """
    if n % 2 == 1 or n < 2:
        raise ValueError("even search requires even n >= 2; use find_periodic_orbit for odd n")
    _require_count("starts", starts)
    m, dim = spec.param_dim, spec.ambient_dim
    nm = n * m
    lo, hi = spec.box
    angular = spec.params_are_angles

    C, _ = _chain_coefficients(n, "periodic")
    sigma = (-1.0) ** np.arange(n + 1)  # the free start z_1 enters vertex i as (-1)^i z_1
    dsigma = np.diff(sigma)

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (S, p) and Jacobians (S, p, p) at the stacked unknowns X (S, p).

        The orthogonality residuals are minus the kernel's gradient with z_1 in
        the offset, their midpoint block is minus its Hessian. A rank-deficient
        midpoint gives infinite residuals: a rejected trial, or an ended start.
        """
        S = X.shape[0]
        U, z1 = X[:, :nm].reshape(S, n, m), X[:, nm:]
        pts, R, full, grad, H = _stationarity(spec, U, "periodic", dsigma[:, None] * z1[:, None, :], hessian=True)
        r = np.concatenate([C[n] @ pts, -grad.reshape(S, nm)], axis=1)  # closure z_{n+1} - z_1 is free of z_1
        r[~full.all(axis=1)] = np.inf
        J = np.zeros((S, nm + dim, nm + dim))
        J[:, :dim, :nm] = np.swapaxes((C[n][:, None, None] * R).reshape(S, nm, dim), 1, 2)
        J[:, dim:, :nm] = -H
        # through z_1: -dsigma_i omega(zeta_ia, .) = -dsigma_i (J zeta_ia)^T
        J[:, dim:, nm:] = -(dsigma[:, None, None] * apply_J(R)).reshape(S, nm, dim)
        return r, J

    zscale = max(1.0, float(np.max(np.abs(spec.embed(np.full(m, 0.5 * (lo + hi)))))))
    # start i: the midpoints, then z_1, drawn in turn from task i's stream; uniform(lo, hi) is lo + (hi - lo) u
    X = task_uniform_blocks(seed, range(starts), 0, 0.0, 1.0, count=nm + dim)
    X[:, :nm] = lo + (hi - lo) * X[:, :nm]
    X[:, nm:] = -3.0 * zscale + 6.0 * zscale * X[:, nm:]  # 6z = 3z - (-3z) exactly
    r, J = evaluate(X)
    cost, lam = np.sum(r * r, axis=1), np.full(starts, 1e-3)
    running, k = np.ones(starts, dtype=bool), np.arange(nm + dim)
    for _ in range(400):
        a = np.flatnonzero(running)
        if not a.size:
            break
        Jt = np.swapaxes(J[a], 1, 2)
        A = Jt @ J[a]
        A[:, k, k] *= 1.0 + lam[a, None]
        delta = solve_stack(A, -(Jt @ r[a, :, None])[..., 0], 1e-15)[0]
        delta[~np.all(np.isfinite(delta), axis=1)] = 0.0  # a failed solve ends the start as a null step
        trial = X[a] + delta
        rt, Jn = evaluate(trial)
        ct = np.sum(rt * rt, axis=1)
        fell = ct < cost[a]
        won = a[fell]
        X[won], r[won], J[won], cost[won] = trial[fell], rt[fell], Jn[fell], ct[fell]
        lam[a] = np.where(fell, np.maximum(lam[a] / 3.0, 1e-12), lam[a] * 4.0)
        small = np.linalg.norm(delta, axis=1) <= 1e-15 * (1.0 + np.linalg.norm(X[a], axis=1))
        running[a] = ~(small | (cost[a] <= (1e-15 * zscale) ** 2) | (lam[a] > 1e16))
    good = np.flatnonzero(cost <= (1e-9 * zscale) ** 2)
    results = [(_wrap_params(X[i, :nm].reshape(n, m), angular), X[i, nm:]) for i in good]
    results.sort(key=lambda r: tuple(np.round(_canonical_shift(r[0]).ravel(), 9)))
    found: list[FoundOrbit] = []
    for U, z1 in _distinct(results, [U for U, _ in results], angular, shifts=True):
        # a converged start can still fail: small raw residuals beside a nearly vanishing tangent vector
        orb = _verified_orbit(spec, U, C @ spec.embed(U) + np.outer(sigma, z1), "periodic")
        if orb is not None:
            found.append(FoundOrbit(orb, U, orb.area, 0.0))
    nondeg = tuple(f for f in found if not f.orbit.degenerate)
    return EvenSearchResult(
        tuple(found), nondeg, len(results),
        f"{len(results)} converged starts, {len(found)} distinct solutions, {len(nondeg)} non-degenerate",
    )
