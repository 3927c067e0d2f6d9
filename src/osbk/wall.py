"""Wall and multiplicity analysis for curves and Lagrangian graphs.

For a curve gamma the wall is the set of points P satisfying
omega(P, gamma') = omega(gamma, gamma') and omega(P, gamma'') =
omega(gamma, gamma'') for some t; its singular points additionally satisfy a
third linear condition. Away from the wall the number of correspondence
partners is locally constant, and near a convex curve point it jumps 0 <-> 2,
which the eta-expansion quantifies.

For graphs of homogeneous cubics in two variables everything reduces to a
pair of central conics A_i w . w = r_i whose real intersections are solved
exactly here; the cubic discriminant splits the tables into multiplicity-2
and multiplicity-{0,4} classes with ruled tables on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ._pool import task_rng, task_uniform_blocks
from .core import _require_count, _row_norms, apply_J, as_phase_vector, omega
from .errors import ConsistencyError, DegeneratePencilError, OsbkError, UnstableCountError
from .manifolds import GeneratingGraph, ManifoldSpec, TrigImmersion, _as_curve
from .poly import Poly
from .correspondence import _scan_stack


# -- curve wall ---------------------------------------------------------------


@dataclass(frozen=True)
class WallSample:
    t: float
    plane_params: tuple[float, ...]
    P: np.ndarray
    rank: int  # rank of the two defining equations at this t
    singular_residual: float


def curve_wall_singular(curve: TrigImmersion | ManifoldSpec, P, t) -> float | np.ndarray:
    """Residual of the singular-point condition at (P, t).

    Zero means P is a singular point of the wall over t; at P = gamma(t) the
    value is -omega(gamma', gamma''), nonzero wherever the curve is
    symplectically convex. P (2d,) with a scalar t gives a float; a stack P
    (N, 2d) with t (N,) gives one residual per row, each equal to its
    one-point call.
    """
    c = _as_curve(curve)
    P, t = np.asarray(P, dtype=float), np.asarray(t, dtype=float)
    if t.ndim > 1 or P.shape != t.shape + (c.ambient_dim,) or not np.all(np.isfinite(P)):
        raise ValueError(f"P must be finite of shape {t.shape + (c.ambient_dim,)} to match t, got {P.shape}")
    res = _singular_residual(P, *c.curve_jet(t, range(4)))
    return float(res[0]) if t.ndim == 0 else res


def _singular_residual(P, g0, g1, g2, g3) -> np.ndarray:
    """omega(P, g3) - omega(g1, g2) - omega(g0, g3) per row of stacks that broadcast together."""
    return omega(P, g3) - omega(g1, g2) - omega(g0, g3)


def curve_wall_samples(
    curve: TrigImmersion | ManifoldSpec,
    t_grid: Sequence[float],
    plane_grid: Sequence[float] = (0.0,),
) -> list[WallSample]:
    """Sample the wall: for each t the solution plane of the two linear equations.

    The plane is anchored at P = gamma(t) (always a solution) and spanned by an
    orthonormal kernel basis, enumerated over the cartesian power of
    ``plane_grid``. Points where gamma', gamma'' are dependent leave a rank-1
    system; those samples carry rank = 1. The t of one rank share one
    broadcast of their plane points and one pass of residuals.
    """
    c = _as_curve(curve)
    plane_grid = [float(s) for s in plane_grid]
    ts = np.array([float(v) for v in t_grid])
    g0s, g1s, g2s, g3s = c.curve_jet(ts, range(4))
    rows = -apply_J(np.stack([g1s, g2s], axis=1))  # (T, 2, 2d): omega(P, v) = row(v) . P
    _, sv, vts = np.linalg.svd(rows)
    ranks = np.sum(sv > 1e-10 * np.maximum(sv[:, :1], 1.0), axis=1)
    tl, per_t = ts.tolist(), [[] for _ in ts]
    for rank in sorted(set(ranks.tolist())):
        idx = np.flatnonzero(ranks == rank)
        combos = list(product(plane_grid, repeat=c.ambient_dim - rank))
        if not combos:
            continue
        g0 = g0s[idx, None]
        if combos[0]:
            # each plane point is one (1, k) @ (k, 2d) product, as s @ kernel alone
            P = g0 + (np.array(combos)[:, None, :] @ vts[idx, None, rank:])[..., 0, :]
        else:
            P = g0 + 0.0  # a -0.0 coordinate of gamma is written as 0.0
        res = _singular_residual(P, g0, g1s[idx, None], g2s[idx, None], g3s[idx, None]).tolist()
        for i, Pi, ri in zip(idx.tolist(), P, res):
            per_t[i] = [WallSample(tl[i], s, Pk, rank, rk) for s, Pk, rk in zip(combos, Pi, ri)]
    return [sample for block in per_t for sample in block]


def multiplicity_curve(curve: TrigImmersion | ManifoldSpec, P) -> int:
    """Number of partners of P across the curve (P assumed off the wall).

    Root counting is refused near the wall: a tangential root means the count
    is about to jump, so the two bracketing counts are raised instead of a
    guess. This is the one-probe row of :func:`multiplicity_curve_stack`.
    """
    count = multiplicity_curve_stack(curve, as_phase_vector(P)[None])[0]
    if isinstance(count, OsbkError):
        raise count
    return count


def multiplicity_curve_stack(curve: TrigImmersion | ManifoldSpec, probes) -> list[int | OsbkError]:
    """The :func:`multiplicity_curve` of every probe of a stack (P, 2d), from one stacked root scan.

    Each entry is the probe's count, or the error its own call raises: an
    :class:`UnstableCountError` near the wall, a :class:`DomainError` when
    its partners form a continuum.
    """
    c = _as_curve(curve)
    Z = np.asarray(probes, dtype=float)
    if Z.shape == (0,):  # an empty list of probes
        Z = Z.reshape(0, c.ambient_dim)
    if not np.all(np.isfinite(Z)):
        raise ValueError("probes have non-finite entries")
    out: list[int | OsbkError] = []
    for scan in _scan_stack(c, Z):
        if isinstance(scan, OsbkError):
            out.append(scan)
        elif any(r.tangential for r in scan.roots):
            count = scan.sign_change_count
            out.append(
                UnstableCountError(
                    f"point is on or near the wall (tangential root); count is between {count} and {count + 2}",
                    count,
                    count + 2,
                )
            )
        else:
            out.append(scan.sign_change_count)
    return out


def eta_expansion_check(
    curve: TrigImmersion | ManifoldSpec,
    t_range: tuple[float, float] = (1e-4, 1e-1),
    samples: int = 60,
) -> float:
    """Fitted t^2 coefficient of eta(t) = omega(gamma(t)-gamma(0), gamma'(t)) / omega(gamma''(0), gamma'(t)).

    The expansion starts -t^2/2 regardless of parametrization speed (both the
    numerator's and denominator's leading constants carry the same
    omega(gamma', gamma'') factor), so the analytic target is always -1/2.
    The fit includes t^3 and t^4 terms to absorb the next orders.
    """
    c = _as_curve(curve)
    g0, g1, g2 = (v[0] for v in c.curve_jet(0.0, (0, 1, 2)))
    if abs(omega(g1, g2)) < 1e-12:
        raise ValueError("curve is not symplectically convex at t = 0")
    ts = np.geomspace(float(t_range[0]), float(t_range[1]), samples)
    d0, d1 = c.curve_jet(ts, (0, 1))
    eta = omega(d0 - g0, d1) / omega(g2, d1)
    V = np.vander(ts, 3, increasing=True)  # columns 1, t, t^2 against eta/t^2
    coef, *_ = np.linalg.lstsq(V, eta / ts**2, rcond=None)
    return float(coef[0])


# -- cubic graphs in dimension 4 ----------------------------------------------


@dataclass(frozen=True)
class CubicForm2:
    """Homogeneous cubic F = a q1^3 + b q1^2 q2 + c q1 q2^2 + d q2^3."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if self.a == self.b == self.c == self.d == 0.0:
            raise ValueError("zero cubic defines an affine Lagrangian subspace, not a table")

    @classmethod
    def from_poly(cls, F: Poly) -> "CubicForm2":
        if F.n != 2 or not F.is_homogeneous(3):
            raise ValueError("expected a homogeneous cubic in two variables")
        t = F.terms
        return cls(t.get((3, 0), 0.0), t.get((2, 1), 0.0), t.get((1, 2), 0.0), t.get((0, 3), 0.0))

    def to_poly(self) -> Poly:
        return Poly(2, {(3, 0): self.a, (2, 1): self.b, (1, 2): self.c, (0, 3): self.d})

    def to_graph(self, box: tuple[float, float] = (-5.0, 5.0)) -> GeneratingGraph:
        return GeneratingGraph(self.to_poly(), box)

    @property
    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


@dataclass(frozen=True)
class ConicPair:
    """The two central conics A_i w . w = r_i encoding grad F(w) = r."""

    A1: np.ndarray
    A2: np.ndarray

    def __post_init__(self) -> None:
        A1 = np.asarray(self.A1, dtype=float)
        A2 = np.asarray(self.A2, dtype=float)
        for A in (A1, A2):
            if A.shape != (2, 2) or A[0, 1] != A[1, 0]:
                raise ValueError("conic matrices must be symmetric 2x2")
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)

    @classmethod
    def from_cubic(cls, f: CubicForm2) -> "ConicPair":
        A1 = np.array([[3.0 * f.a, f.b], [f.b, f.c]])
        A2 = np.array([[f.b, f.c], [f.c, 3.0 * f.d]])
        return cls(A1, A2)

    @classmethod
    def from_cubic_poly(cls, F: Poly) -> "ConicPair":
        return cls.from_cubic(CubicForm2.from_poly(F))


def _quad(U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """u . A u for every row u of a stack (..., 2).

    Each row goes through the same BLAS calls as ``(u @ A) @ u`` (gemv, then
    dot) on a single vector, so row i of a stack equals the one-row result
    bit for bit.
    """
    return ((U[..., None, :] @ A) @ U[..., :, None])[..., 0, 0]


def _null_lines(M: np.ndarray, rel_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of the real null cones of a stack (N, 2, 2) of symmetric forms.

    Returns U (N, 2, 2), whose row U[i, k] is the k-th candidate line of form
    i, and a mask (N, 2) of the lines that exist: none for a definite form,
    one or two otherwise, both axes for the zero form. Each line is signed so
    that its leading nonzero entry is positive; a second line within 1e-9 of
    the first is dropped.
    """
    lam, R = np.linalg.eigh(M)
    scale = np.maximum(np.abs(lam[:, 0]), np.abs(lam[:, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        l1, l2 = lam[:, 0] / scale, lam[:, 1] / scale
        a, b = np.sqrt(np.maximum(l2, 0.0)), np.sqrt(np.maximum(-l1, 0.0))
        V = np.stack([np.stack([a, b], axis=-1), np.stack([a, -b], axis=-1)], axis=1)
        U = (R[:, None] @ V[..., None])[..., 0]
        nrm = _row_norms(U)
        U = U / nrm[..., None]
    lead = np.where(np.abs(U[..., 0]) > 1e-14, U[..., 0], U[..., 1])
    U = np.where((lead < 0)[..., None], -U, U)
    ok = nrm != 0.0
    ok[:, 1] &= ~(ok[:, 0] & (_row_norms(U[:, 1] - U[:, 0]) < 1e-9))
    ok[l1 * l2 > rel_tol] = False
    zero = scale == 0.0  # M = 0: every direction
    U[zero], ok[zero] = np.eye(2), True
    return U, ok


def _null_directions(M: np.ndarray) -> list[np.ndarray]:
    """Unit directions of the real null cone of one symmetric 2x2 form (0, 1 or 2 lines)."""
    U, ok = _null_lines(np.asarray(M, dtype=float)[None])
    return list(U[0, ok[0]])


_PENCIL_ERRORS = {
    1: "conics share a null line: solutions of the zero right side form whole lines",
    2: "elimination form vanishes identically (proportional conic data)",
}


def _conic_stack(pair: ConicPair, r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real solutions of A1 w.w = r1[i], A2 w.w = r2[i] for a stack (N,) of right sides.

    Returns the solutions W (N, 4, 2), a mask (N, 4) of those found (the pair
    +/-w on each null line of the elimination form, or the single w = 0 of a
    zero right side; W is 0 elsewhere), and per row 0 or the
    ``_PENCIL_ERRORS`` key of a degenerate pencil, whose solutions form whole
    lines.
    """
    A1, A2 = pair.A1, pair.A2
    ascale = max(float(np.max(np.abs(A1))), float(np.max(np.abs(A2))), 1e-300)
    rnorm = np.hypot(r1, r2)
    zero_rhs = rnorm <= 1e-13 * ascale
    M = r2[:, None, None] * A1 - r1[:, None, None] * A2
    bad = np.where(~zero_rhs & (np.max(np.abs(M), axis=(1, 2)) <= 1e-12 * ascale * rnorm), 2, 0)
    U, ok = _null_lines(M)
    # intersect each null line with whichever conic has the larger right side
    first = np.abs(r1) >= np.abs(r2)
    r_i = np.where(first, r1, r2)[:, None]
    denom = np.where(first[:, None], _quad(U, A1), _quad(U, A2))
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = r_i / denom
        ok &= ~(np.abs(denom) <= 1e-13 * ascale) & ~(s2 < 0.0)  # a line at level 0 != r_i misses
        sU = np.sqrt(s2)[..., None] * U
    found = np.repeat(ok, 2, axis=1) & (bad == 0)[:, None]
    W = np.where(found[..., None], np.stack([sU, -sU], axis=2).reshape(-1, 4, 2), 0.0)
    if np.any(zero_rhs):
        shared = any(abs(float(u @ A2 @ u)) <= 1e-10 * ascale for u in _null_directions(A1))
        W[zero_rhs], found[zero_rhs] = 0.0, (not shared, False, False, False)
        bad[zero_rhs] = 1 if shared else 0
    return W, found, bad


def conic_intersections(pair: ConicPair, r1: float, r2: float) -> list[np.ndarray]:
    """All real solutions of A1 w.w = r1, A2 w.w = r2, exactly (0, 1, 2 or 4 points).

    Eliminates to the homogeneous form (r2 A1 - r1 A2) w.w = 0, whose real
    null lines are intersected with whichever conic has a nonzero right side.
    r = 0 returns [0] for a definite pencil; shared null lines of A1, A2 mean
    whole lines of solutions and raise a degenerate-pencil error, as does a
    vanishing elimination form (proportional data). This is row 0 of the
    stacked solve that :func:`classify_cubic_table` runs over all its probes.
    """
    W, found, bad = _conic_stack(pair, np.array([float(r1)]), np.array([float(r2)]))
    if bad[0]:
        raise DegeneratePencilError(_PENCIL_ERRORS[int(bad[0])])
    sols = list(W[0, found[0]])
    sols.sort(key=lambda w: (round(w[0], 12), round(w[1], 12)))
    return sols


def lagrangian_delta_det(graph: GeneratingGraph, q, w) -> float:
    """det (n=2) or smallest singular value (n>2) of zeta -> third F(q)[zeta, w].

    Zero exactly when (q, w) sits in the singular set of the chord map.
    """
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    M = np.einsum("ijk,k->ij", graph.third(q), w)
    if graph.n == 2:
        return float(np.linalg.det(M))
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def cubic_discriminant(f: CubicForm2) -> float:
    a, b, c, d = f.a, f.b, f.c, f.d
    return 18.0 * a * b * c * d + b * b * c * c - 4.0 * b**3 * d - 4.0 * a * c**3 - 27.0 * a * a * d * d


def cubic_resultant(f: CubicForm2) -> float:
    """Sylvester resultant of the two gradient quadratics; identically -3 x discriminant."""
    a, b, c, d = f.a, f.b, f.c, f.d
    S = np.array(
        [
            [3 * a, 2 * b, c, 0],
            [0, 3 * a, 2 * b, c],
            [b, 2 * c, 3 * d, 0],
            [0, b, 2 * c, 3 * d],
        ],
        dtype=float,
    )
    return float(np.linalg.det(S))


def _real_roots(coeffs: Sequence[float], scale: float) -> list[float]:
    """Real roots of a polynomial given by descending coefficients, degree <= 2."""
    cs = [float(v) for v in coeffs]
    while cs and abs(cs[0]) <= 1e-13 * max(scale, 1e-300):
        cs = cs[1:]
    if len(cs) <= 1:
        return []
    roots = np.roots(cs)
    # double roots come back with ~sqrt(eps) imaginary noise; callers
    # re-validate every candidate, so lean toward accepting here
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-6 * (1.0 + abs(r.real)))


def ruled_test(f: CubicForm2, tol: float = 1e-10) -> np.ndarray | None:
    """Unit direction w with grad F(w) = 0 when the graph is a union of parallel lines.

    Works over common real roots of 3a z^2 + 2b z + c and b z^2 + 2c z + 3d
    (w = (z, 1)), plus the w2 = 0 line, which is a ruling exactly when a and b
    both vanish. Returns None for unruled tables.
    """
    s = f.scale
    grad = ConicPair.from_cubic(f)

    def is_zero(w: np.ndarray) -> bool:
        g = np.array([float(w @ grad.A1 @ w), float(w @ grad.A2 @ w)])
        return float(np.max(np.abs(g))) <= 10.0 * tol * s

    candidates: list[np.ndarray] = []
    if abs(f.a) <= tol * s and abs(f.b) <= tol * s:
        candidates.append(np.array([1.0, 0.0]))
    p1 = (3.0 * f.a, 2.0 * f.b, f.c)
    p2 = (f.b, 2.0 * f.c, 3.0 * f.d)
    zs = _real_roots(p1, s)
    if not zs and all(abs(v) <= tol * s for v in p1):
        zs = _real_roots(p2, s)
    for z in zs:
        w = np.array([z, 1.0])
        w = w / float(np.linalg.norm(w))
        candidates.append(w)
    for w in candidates:
        if is_zero(w):
            return w
    return None


@dataclass(frozen=True)
class ClassificationReport:
    D: float
    cls: str
    histogram: dict[int, int]
    ruling: np.ndarray | None
    trials: int

    def as_dict(self) -> dict:
        return {
            "D": float(self.D),
            "class": self.cls,
            "histogram": {str(k): int(v) for k, v in sorted(self.histogram.items())},
            "ruling": None if self.ruling is None else [float(v) for v in self.ruling],
            "trials": int(self.trials),
        }


def _classify_trials(pair: ConicPair, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Partner count at each trial's first generic probe, and that probe's attempt number (1-based).

    Attempt k of trial i draws Q, then W, uniform in [-2, 2]^2 from
    ``task_rng(seed, i)`` after the k - 1 rejected attempts before it. A probe
    is generic when |r| >= 0.3, the pencil is not degenerate, and every
    solution w, and every gap between two of them, is at least 1e-3 long (the
    wall is measure zero, so this almost always holds at once). All trials
    draw together, and each round redraws only the ones still rejected.
    """
    counts, attempts = np.zeros(trials, dtype=int), np.zeros(trials, dtype=int)
    pending = np.arange(trials)
    for attempt in range(1, 201):
        QW = task_uniform_blocks(seed, pending, attempt - 1, -2.0, 2.0)
        Q, W = QW[:, :2], QW[:, 2:]
        r1, r2 = _quad(Q, pair.A1) - W[:, 0], _quad(Q, pair.A2) - W[:, 1]
        sols, found, bad = _conic_stack(pair, r1, r2)
        both = found[:, :, None] & found[:, None, :] & np.triu(np.ones((4, 4), dtype=bool), 1)
        gaps = _row_norms(sols[:, :, None] - sols[:, None, :])
        generic = (
            (np.hypot(r1, r2) >= 0.3)
            & (bad == 0)
            & ~np.any(found & (_row_norms(sols) < 1e-3), axis=1)
            & ~np.any(both & (gaps < 1e-3), axis=(1, 2))
        )
        counts[pending[generic]] = np.sum(found[generic], axis=1)
        attempts[pending[generic]] = attempt
        pending = pending[~generic]
        if not pending.size:
            return counts, attempts
    raise ConsistencyError("could not draw a generic probe in 200 attempts")


def classify_cubic_table(f: CubicForm2, trials: int = 64, seed: int = 0) -> ClassificationReport:
    """Discriminant classification checked against empirical partner counts.

    D > 0 must give multiplicity 2 at every generic probe, D < 0 a histogram
    supported on {0, 4}; a contradiction raises a consistency error since it
    can only come from a solver bug. D = 0 runs the ruled test instead of
    sampling.
    """
    _require_count("trials", trials)
    D = cubic_discriminant(f)
    dscale = max(1.0, f.scale**4)
    if abs(D) <= 1e-10 * dscale:
        ruling = ruled_test(f)
        cls = "ruled" if ruling is not None else "boundary"
        return ClassificationReport(D, cls, {}, ruling, 0)
    counts, _ = _classify_trials(ConicPair.from_cubic(f), trials, seed)
    values, freq = np.unique(counts, return_counts=True)
    hist = dict(zip(values.tolist(), freq.tolist()))
    if D > 0 and set(hist) != {2}:
        raise ConsistencyError(f"D = {D:.6g} > 0 but histogram {hist} is not all 2s")
    if D < 0 and not set(hist) <= {0, 4}:
        raise ConsistencyError(f"D = {D:.6g} < 0 but histogram {hist} leaves {{0, 4}}")
    cls = "multiplicity-2" if D > 0 else "multiplicity-0-or-4"
    return ClassificationReport(D, cls, hist, None, trials)


@dataclass(frozen=True)
class ZeroDivisorReport:
    min_value: float
    witness: np.ndarray


def zero_divisor_test(graph: GeneratingGraph, q, sphere_samples: int = 4096, seed: int = 0) -> ZeroDivisorReport:
    """Minimum over unit w of the singularity measure of zeta -> third F(q)[zeta, w].

    For n = 2 the measure is |det| and the minimum is exact (the determinant
    is a quadratic form in w); for n > 2 it is the smallest singular value,
    minimized over a seeded sphere sample. A positive value certifies that the
    singular set meets the tangent space only at w = 0.
    """
    q = np.asarray(q, dtype=float)
    T = graph.third(q)
    n = graph.n
    if n == 2:
        B = (
            0.5 * (np.outer(T[0, 0], T[1, 1]) + np.outer(T[1, 1], T[0, 0]))
            - np.outer(T[0, 1], T[0, 1])
        )
        lam, R = np.linalg.eigh(B)
        if lam[0] * lam[1] <= 0.0 or max(abs(lam[0]), abs(lam[1])) == 0.0:
            dirs = _null_directions(B)
            w = max(dirs, key=lambda u: (round(u[0], 12), round(u[1], 12)))
            return ZeroDivisorReport(0.0, w)
        k = int(np.argmin(np.abs(lam)))
        w = R[:, k]
        if (w[0] if abs(w[0]) > 1e-14 else w[1]) < 0:
            w = -w
        return ZeroDivisorReport(float(abs(lam[k])), w)
    W = task_rng(seed, 0).normal(size=(sphere_samples, n))
    W = W / _row_norms(W)[:, None]
    v = np.linalg.svd(np.einsum("ijk,sk->sij", T, W), compute_uv=False)[:, -1]
    k = int(np.argmin(v))
    return ZeroDivisorReport(float(v[k]), W[k].copy())
