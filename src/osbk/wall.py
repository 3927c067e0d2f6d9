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

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ._pool import task_rng
from .core import apply_J, as_phase_vector, omega, omega_pairwise
from .errors import ConsistencyError, DegeneratePencilError, UnstableCountError
from .manifolds import GeneratingGraph, ManifoldSpec, TrigImmersion
from .poly import Poly
from .correspondence import scan_curve_roots


def _as_curve(curve: TrigImmersion | ManifoldSpec) -> TrigImmersion:
    if isinstance(curve, ManifoldSpec):
        trig = curve.as_trig
        if trig is None or trig.m != 1:
            raise ValueError("expected a curve table")
        return trig
    if curve.m != 1:
        raise ValueError("expected a curve (m = 1)")
    return curve


# -- curve wall ---------------------------------------------------------------


@dataclass(frozen=True)
class WallSample:
    t: float
    plane_params: tuple[float, ...]
    P: np.ndarray
    rank: int  # rank of the two defining equations at this t
    singular_residual: float


def curve_wall_singular(curve: TrigImmersion | ManifoldSpec, P, t: float) -> float:
    """Residual of the singular-point condition at (P, t).

    Zero means P is a singular point of the wall over t; at P = gamma(t) the
    value is -omega(gamma', gamma''), nonzero wherever the curve is
    symplectically convex.
    """
    g0, g1, g2, g3 = (v[0] for v in _as_curve(curve).curve_jet(float(t), range(4)))
    return _singular_residual(as_phase_vector(P), g0, g1, g2, g3)


def _singular_residual(P, g0, g1, g2, g3) -> float:
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
    system; those samples carry rank = 1.
    """
    c = _as_curve(curve)
    plane_grid = [float(s) for s in plane_grid]
    ts = np.array([float(v) for v in t_grid])
    out: list[WallSample] = []
    for t, g0, g1, g2, g3 in zip(ts.tolist(), *c.curve_jet(ts, range(4))):
        rows = np.vstack([-apply_J(g1), -apply_J(g2)])  # omega(P, v) = row(v) . P
        sv = np.linalg.svd(rows, compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        _, _, vt = np.linalg.svd(rows)
        kernel = vt[rank:]
        if kernel.shape[0] == 0:
            combos: list[tuple[float, ...]] = [()]
        else:
            combos = list(product(plane_grid, repeat=kernel.shape[0]))
        for s in combos:
            P = g0 + (np.asarray(s) @ kernel if s else 0.0)
            out.append(WallSample(t, tuple(s), P, rank, _singular_residual(P, g0, g1, g2, g3)))
    return out


def multiplicity_curve(curve: TrigImmersion | ManifoldSpec, P) -> int:
    """Number of partners of P across the curve (P assumed off the wall).

    Root counting is refused near the wall: a tangential root means the count
    is about to jump, so the two bracketing counts are raised instead of a
    guess.
    """
    c = _as_curve(curve)
    scan = scan_curve_roots(c, P)
    count = scan.sign_change_count
    if any(r.tangential for r in scan.roots):
        raise UnstableCountError(
            f"point is on or near the wall (tangential root); count is between {count} and {count + 2}",
            count,
            count + 2,
        )
    return count


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
    eta = omega_pairwise(d0 - g0, d1) / omega_pairwise(np.broadcast_to(g2, d1.shape), d1)
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


def _null_directions(M: np.ndarray, rel_tol: float = 1e-12) -> list[np.ndarray]:
    """Unit directions of the real null cone of a symmetric 2x2 form (0, 1 or 2 lines)."""
    lam, R = np.linalg.eigh(M)
    scale = max(abs(lam[0]), abs(lam[1]))
    if scale == 0.0:
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0])]  # M = 0: every direction
    l1, l2 = lam[0] / scale, lam[1] / scale
    if l1 * l2 > rel_tol:
        return []
    dirs = []
    a = math.sqrt(max(l2, 0.0))
    b = math.sqrt(max(-l1, 0.0))
    for sgn in (1.0, -1.0):
        u = R @ np.array([a, sgn * b])
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            continue
        u = u / nrm
        lead = u[0] if abs(u[0]) > 1e-14 else u[1]
        if lead < 0:
            u = -u
        if not any(float(np.linalg.norm(u - v)) < 1e-9 for v in dirs):
            dirs.append(u)
    return dirs


def conic_intersections(pair: ConicPair, r1: float, r2: float) -> list[np.ndarray]:
    """All real solutions of A1 w.w = r1, A2 w.w = r2, exactly (0, 1, 2 or 4 points).

    Eliminates to the homogeneous form (r2 A1 - r1 A2) w.w = 0, whose real
    null lines are intersected with whichever conic has a nonzero right side.
    r = 0 returns [0] for a definite pencil; shared null lines of A1, A2 mean
    whole lines of solutions and raise a degenerate-pencil error, as does a
    vanishing elimination form (proportional data).
    """
    A1, A2 = pair.A1, pair.A2
    ascale = max(float(np.max(np.abs(A1))), float(np.max(np.abs(A2))), 1e-300)
    rnorm = math.hypot(r1, r2)
    if rnorm <= 1e-13 * ascale:
        shared = [u for u in _null_directions(A1) if abs(float(u @ A2 @ u)) <= 1e-10 * ascale]
        if shared:
            raise DegeneratePencilError(
                "conics share a null line: solutions of the zero right side form whole lines"
            )
        return [np.zeros(2)]
    M = r2 * A1 - r1 * A2
    if float(np.max(np.abs(M))) <= 1e-12 * ascale * rnorm:
        raise DegeneratePencilError("elimination form vanishes identically (proportional conic data)")
    sols: list[np.ndarray] = []
    for u in _null_directions(M):
        i = 0 if abs(r1) >= abs(r2) else 1
        r_i = (r1, r2)[i]
        A_i = (A1, A2)[i]
        denom = float(u @ A_i @ u)
        if abs(denom) <= 1e-13 * ascale:
            continue  # the line lies on the conic at level 0 != r_i
        s2 = r_i / denom
        if s2 < 0.0:
            continue
        s = math.sqrt(s2)
        sols.extend([s * u, -s * u])
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


def classify_cubic_table(f: CubicForm2, trials: int = 64, seed: int = 0) -> ClassificationReport:
    """Discriminant classification checked against empirical partner counts.

    D > 0 must give multiplicity 2 at every generic probe, D < 0 a histogram
    supported on {0, 4}; a contradiction raises a consistency error since it
    can only come from a solver bug. D = 0 runs the ruled test instead of
    sampling.
    """
    D = cubic_discriminant(f)
    dscale = max(1.0, f.scale**4)
    if abs(D) <= 1e-10 * dscale:
        ruling = ruled_test(f)
        cls = "ruled" if ruling is not None else "boundary"
        return ClassificationReport(D, cls, {}, ruling, 0)
    pair = ConicPair.from_cubic(f)

    def one_trial(i: int) -> int:
        rng = task_rng(seed, i)
        for _ in range(200):  # redraw until the probe is generic (wall is measure zero)
            Q = rng.uniform(-2.0, 2.0, 2)
            W = rng.uniform(-2.0, 2.0, 2)
            r1 = float(Q @ pair.A1 @ Q) - W[0]
            r2 = float(Q @ pair.A2 @ Q) - W[1]
            if math.hypot(r1, r2) < 0.3:
                continue
            try:
                sols = conic_intersections(pair, r1, r2)
            except DegeneratePencilError:
                continue
            if any(float(np.linalg.norm(w)) < 1e-3 for w in sols):
                continue
            if len(sols) >= 2:
                gaps = [
                    float(np.linalg.norm(sols[i] - sols[j]))
                    for i in range(len(sols))
                    for j in range(i + 1, len(sols))
                ]
                if min(gaps) < 1e-3:
                    continue
            return len(sols)
        raise ConsistencyError("could not draw a generic probe in 200 attempts")

    hist: dict[int, int] = {}
    for k in map(one_trial, range(trials)):
        hist[k] = hist.get(k, 0) + 1
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
    rng = task_rng(seed, 0)
    best: tuple[float, np.ndarray] | None = None
    for _ in range(sphere_samples):
        w = rng.normal(size=n)
        w = w / float(np.linalg.norm(w))
        v = float(np.linalg.svd(np.einsum("ijk,k->ij", T, w), compute_uv=False)[-1])
        if best is None or v < best[0]:
            best = (v, w)
    return ZeroDivisorReport(best[0], best[1])
