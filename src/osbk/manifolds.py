"""Parametric tables: trig immersions, symplectic ellipsoids, Lagrangian graphs.

Three table families, all embedded in standard symplectic R^{2d} with
interleaved coordinates:

* :class:`TrigImmersion`: tori (curves when m = 1) whose coordinates are
  finite trigonometric sums. Derivatives are computed by exact frequency
  multiplication, never by finite differences, because downstream wall
  computations are sensitive to third-derivative noise.
* :class:`SymplecticEllipsoid`: the normal form sum_j (x_j^2+y_j^2)/a_j = 1.
* :class:`GeneratingGraph`: the Lagrangian graph {(q, grad F(q))} of an exact
  polynomial, with exact gradient/Hessian/third-derivative tensors.

:class:`ManifoldSpec` wraps any of the three plus an optional ambient affine
symplectic transform and provides the uniform embed / tangent / second
derivative interface used by the solvers, the genericity checkers
(:func:`check_condition_L`, :func:`check_condition_LL`) and the curve
convexity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from . import poly as _poly
from .core import (
    AffineLagrangian,
    AffineSymplectic,
    GEOMETRIC_TOL,
    interleave,
    omega_pairwise,
    scale_tol,
)
from .errors import ConfigError, ImmersionError

TWO_PI = 2.0 * math.pi

# term of one ambient coordinate: (frequency vector, cos amplitude, sin amplitude)
TrigTerm = tuple[tuple[int, ...], float, float]


def _canonical_term(freq: Sequence[int], ca: float, sa: float) -> TrigTerm | None:
    """Normalize so the first nonzero frequency entry is positive; drop zeros."""
    f = tuple(int(k) for k in freq)
    lead = next((k for k in f if k != 0), 0)
    if lead < 0:
        f = tuple(-k for k in f)
        sa = -sa
    if all(k == 0 for k in f):
        sa = 0.0  # sin(0) contributes nothing
    if ca == 0.0 and sa == 0.0:
        return None
    return (f, float(ca), float(sa))


def _merge_terms(terms: Iterable[tuple[Sequence[int], float, float]]) -> tuple[TrigTerm, ...]:
    acc: dict[tuple[int, ...], list[float]] = {}
    for freq, ca, sa in terms:
        t = _canonical_term(freq, ca, sa)
        if t is None:
            continue
        f, ca, sa = t
        slot = acc.setdefault(f, [0.0, 0.0])
        slot[0] += ca
        slot[1] += sa
    out = []
    for f in sorted(acc):
        ca, sa = acc[f]
        if ca != 0.0 or sa != 0.0:
            out.append((f, ca, sa))
    return tuple(out)


@dataclass(frozen=True)
class TrigImmersion:
    """Torus immersion u in T^m -> R^{2d} with trigonometric coordinates.

    ``coeffs[k]`` lists the terms of ambient coordinate k; each term
    (freq, ca, sa) contributes ca*cos(freq . u) + sa*sin(freq . u).
    """

    m: int
    coeffs: tuple[tuple[TrigTerm, ...], ...]
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("parameter dimension must be >= 1")
        coeffs = tuple(_merge_terms(terms) for terms in self.coeffs)
        if len(coeffs) < 2 or len(coeffs) % 2:
            raise ValueError("ambient dimension must be even and >= 2")
        for terms in coeffs:
            for f, _, _ in terms:
                if len(f) != self.m:
                    raise ValueError(f"frequency vector {f} does not match m={self.m}")
        object.__setattr__(self, "coeffs", coeffs)
        # flat arrays for vectorized evaluation
        coord_idx, freqs, cas, sas = [], [], [], []
        for k, terms in enumerate(coeffs):
            for f, ca, sa in terms:
                coord_idx.append(k)
                freqs.append(f)
                cas.append(ca)
                sas.append(sa)
        object.__setattr__(self, "_coord", np.array(coord_idx, dtype=int))
        object.__setattr__(self, "_freq", np.array(freqs, dtype=float).reshape(len(freqs), self.m))
        object.__setattr__(self, "_ca", np.array(cas, dtype=float))
        object.__setattr__(self, "_sa", np.array(sas, dtype=float))
        if self.check:
            self._check_immersion()

    # -- evaluation --------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return len(self.coeffs)

    def value(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.m,):
            raise ValueError(f"parameter must have shape ({self.m},), got {u.shape}")
        phase = self._freq @ u
        contrib = self._ca * np.cos(phase) + self._sa * np.sin(phase)
        out = np.zeros(self.ambient_dim)
        np.add.at(out, self._coord, contrib)
        return out

    def jacobian(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        phase = self._freq @ u
        d_amp = self._sa * np.cos(phase) - self._ca * np.sin(phase)  # d/dphase
        out = np.zeros((self.ambient_dim, self.m))
        np.add.at(out, self._coord, d_amp[:, None] * self._freq)
        return out

    def hessian(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        phase = self._freq @ u
        amp = self._ca * np.cos(phase) + self._sa * np.sin(phase)
        ff = self._freq[:, :, None] * self._freq[:, None, :]
        out = np.zeros((self.ambient_dim, self.m, self.m))
        np.add.at(out, self._coord, -amp[:, None, None] * ff)
        return out

    # -- curves (m = 1) ----------------------------------------------------

    def _rotated(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """(ca, sa) arrays of the order-th t-derivative, exact."""
        ca, sa = self._ca.copy(), self._sa.copy()
        f = self._freq[:, 0]
        for _ in range(order):
            ca, sa = sa * f, -ca * f
        return ca, sa

    def curve_batch(self, ts, order: int = 0) -> np.ndarray:
        """Evaluate the order-th derivative at many parameters; shape (N, 2d)."""
        if self.m != 1:
            raise ValueError("curve_batch requires a curve (m = 1)")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ca, sa = self._rotated(order)
        phase = np.outer(ts, self._freq[:, 0])
        contrib = ca * np.cos(phase) + sa * np.sin(phase)
        out = np.zeros((ts.size, self.ambient_dim))
        np.add.at(out.T, self._coord, contrib.T)
        return out

    def deriv(self, t: float, order: int = 0) -> np.ndarray:
        """Exact order-th derivative of a curve at a single parameter."""
        return self.curve_batch([float(t)], order)[0]

    # -- structure ---------------------------------------------------------

    def transformed(self, T: AffineSymplectic) -> "TrigImmersion":
        """Fold an ambient affine map into the coefficients (exact)."""
        dim = self.ambient_dim
        if T.S.shape != (dim, dim):
            raise ValueError("transform dimension mismatch")
        new_terms: list[list[tuple[tuple[int, ...], float, float]]] = [[] for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                s = T.S[i, k]
                if s == 0.0:
                    continue
                for f, ca, sa in self.coeffs[k]:
                    new_terms[i].append((f, s * ca, s * sa))
            if T.b[i] != 0.0:
                new_terms[i].append(((0,) * self.m, T.b[i], 0.0))
        return TrigImmersion(self.m, tuple(tuple(t) for t in new_terms), check=False)

    def _check_immersion(self, min_sv: float = 1e-8) -> None:
        per_dim = {1: 256, 2: 24, 3: 12}.get(self.m, 8)
        axes = [(np.arange(per_dim) + 0.5) * TWO_PI / per_dim for _ in range(self.m)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        for u in pts:
            sv = np.linalg.svd(self.jacobian(u), compute_uv=False)
            if sv[-1] <= min_sv:
                raise ImmersionError(
                    f"Jacobian rank deficient at parameter {np.round(u, 6)} (min singular value {sv[-1]:.2e})"
                )


# -- product-to-sum expansion (used to build tori and ellipsoid charts) ----


def _series_factor(kind: str, var: int, m: int) -> dict[tuple[int, ...], complex]:
    e = [0] * m
    e[var] = 1
    key = tuple(e)
    neg = tuple(-k for k in key)
    if kind == "cos":
        return {key: 0.5, neg: 0.5}
    if kind == "sin":
        return {key: -0.5j, neg: 0.5j}
    raise ValueError(kind)


def trig_product(factors: Sequence[tuple[str, int]], m: int, amplitude: float = 1.0) -> list[TrigTerm]:
    """Expand a product of cos/sin factors into canonical trig terms.

    ``factors`` is a list of ("cos"|"sin", variable index); the result is the
    exact expansion of amplitude * prod(factors) as a list of terms.
    """
    series: dict[tuple[int, ...], complex] = {(0,) * m: complex(amplitude)}
    for kind, var in factors:
        fac = _series_factor(kind, var, m)
        nxt: dict[tuple[int, ...], complex] = {}
        for f1, a1 in series.items():
            for f2, a2 in fac.items():
                key = tuple(x + y for x, y in zip(f1, f2))
                nxt[key] = nxt.get(key, 0.0) + a1 * a2
        series = nxt
    # fold e^{i f u} pairs into real cos/sin terms
    out: list[TrigTerm] = []
    seen: set[tuple[int, ...]] = set()
    for f, a in series.items():
        if f in seen:
            continue
        neg = tuple(-k for k in f)
        seen.add(f)
        seen.add(neg)
        if all(k == 0 for k in f):
            if abs(a.real) > 0:
                out.append((f, a.real, 0.0))
            continue
        lead = next(k for k in f if k != 0)
        rep = f if lead > 0 else neg
        amp = series.get(rep, 0.0)
        ca, sa = 2.0 * amp.real, -2.0 * amp.imag
        if ca != 0.0 or sa != 0.0:
            out.append((rep, ca, sa))
    return out


def circle(radius: float = 1.0) -> TrigImmersion:
    """The circle of given radius in R^2, counterclockwise."""
    r = float(radius)
    return TrigImmersion(1, ((((1,), r, 0.0),), (((1,), 0.0, r),)))


def chebyshev_curve(freqs: Sequence[int] = (1, 2)) -> TrigImmersion:
    """t -> (cos k1 t, sin k1 t, cos k2 t, sin k2 t, ...) for integer frequencies."""
    coeffs = []
    for k in freqs:
        coeffs.append((((int(k),), 1.0, 0.0),))
        coeffs.append((((int(k),), 0.0, 1.0),))
    return TrigImmersion(1, tuple(coeffs))


def sphere_torus() -> TrigImmersion:
    """A 2-torus inside the unit sphere of R^4.

    (x1, y1, x2, y2) = (cos a cos b, sin a sin b, sin a cos b, -cos a sin b).
    The boundary generating function q . q' vanishes identically on it.
    """
    m = 2
    coords = [
        trig_product([("cos", 0), ("cos", 1)], m),
        trig_product([("sin", 0), ("sin", 1)], m),
        trig_product([("sin", 0), ("cos", 1)], m),
        trig_product([("cos", 0), ("sin", 1)], m, amplitude=-1.0),
    ]
    return TrigImmersion(m, tuple(tuple(c) for c in coords))


# -- ellipsoids -------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticEllipsoid:
    """Normal form sum_j (x_j^2 + y_j^2)/a_j = 1 with positive axes a_j."""

    axes: tuple[float, ...]

    def __post_init__(self) -> None:
        axes = tuple(float(a) for a in np.atleast_1d(np.asarray(self.axes, dtype=float)))
        if not axes or any(a <= 0 for a in axes):
            raise ValueError("axes must be positive")
        object.__setattr__(self, "axes", axes)

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.d

    def level(self, z) -> float:
        """Defining function value sum_j (x_j^2+y_j^2)/a_j at z (1 on the surface)."""
        z = np.asarray(z, dtype=float)
        x, y = z[0::2], z[1::2]
        return float(np.sum((x * x + y * y) / np.asarray(self.axes)))

    def to_immersion(self) -> TrigImmersion:
        """Exact angle chart: d phases theta_j and d-1 radius-splitting angles phi_k.

        rho_1 = cos phi_1, rho_j = sin phi_1 ... sin phi_{j-1} cos phi_j,
        rho_d = sin phi_1 ... sin phi_{d-1}; z_j = sqrt(a_j) rho_j (cos theta_j, sin theta_j).
        The chart degenerates on the measure-zero circles where some rho_j = 0.
        """
        d = self.d
        if d > 3:
            raise ValueError("angle chart implemented for d <= 3")
        m = 2 * d - 1
        coords: list[list[TrigTerm]] = []
        for j in range(d):
            rho_factors: list[tuple[str, int]] = [("sin", d + k) for k in range(min(j, d - 1))]
            if j < d - 1:
                rho_factors.append(("cos", d + j))
            r = math.sqrt(self.axes[j])
            coords.append(trig_product(rho_factors + [("cos", j)], m, amplitude=r))
            coords.append(trig_product(rho_factors + [("sin", j)], m, amplitude=r))
        return TrigImmersion(m, tuple(tuple(c) for c in coords))

    def param_of(self, z) -> np.ndarray:
        """Chart parameter of a point on the ellipsoid (degenerate angles -> 0)."""
        z = np.asarray(z, dtype=float)
        d = self.d
        x, y = z[0::2], z[1::2]
        rho = np.sqrt((x * x + y * y) / np.asarray(self.axes))
        theta = np.where(rho > 1e-14, np.arctan2(y, x), 0.0)
        phi = np.zeros(max(d - 1, 0))
        for k in range(d - 1):
            tail = float(np.linalg.norm(rho[k + 1 :]))
            phi[k] = math.atan2(tail, float(rho[k]))
        return np.concatenate([theta, phi])


# -- Lagrangian graphs -------------------------------------------------------


@dataclass(frozen=True)
class GeneratingGraph:
    """Lagrangian graph {(q, grad F(q))} of an exact polynomial F: R^n -> R.

    Degree <= 1 would make the graph an affine Lagrangian subspace; such
    inputs are rejected so downstream solvers can rely on curvature data.
    ``box`` bounds parameter searches (the graph itself is unbounded).
    """

    F: _poly.Poly
    box: tuple[float, float] = (-5.0, 5.0)

    def __post_init__(self) -> None:
        if self.F.degree < 2:
            raise ValueError(
                "generating function of degree <= 1 defines an affine Lagrangian subspace, not a curved table"
            )
        lo, hi = float(self.box[0]), float(self.box[1])
        if not lo < hi:
            raise ValueError("box must be an interval (lo, hi) with lo < hi")
        object.__setattr__(self, "box", (lo, hi))

    @property
    def n(self) -> int:
        return self.F.n

    @property
    def ambient_dim(self) -> int:
        return 2 * self.F.n

    @cached_property
    def grad_polys(self) -> list[_poly.Poly]:
        return _poly.gradient_polys(self.F)

    @cached_property
    def hess_polys(self) -> list[list[_poly.Poly]]:
        return _poly.hessian_polys(self.F)

    @cached_property
    def third_polys(self) -> list[list[list[_poly.Poly]]]:
        return _poly.third_polys(self.F)

    def grad(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.array([g(q) for g in self.grad_polys])

    def hess(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = self.n
        H = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                H[i, j] = H[j, i] = self.hess_polys[i][j](q)
        return H

    def third(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = self.n
        T = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    T[i, j, k] = self.third_polys[i][j][k](q)
        return T

    def embed(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return interleave(q, self.grad(q))

    def tangent_rows(self, q) -> np.ndarray:
        """(n, 2n) rows d embed / d q_a = (e_a, hess F(q) e_a), interleaved."""
        rows = np.empty((self.n, self.ambient_dim))
        rows[:, 0::2] = np.eye(self.n)
        rows[:, 1::2] = self.hess(q).T
        return rows

    def is_homogeneous_cubic(self) -> bool:
        return self.F.is_homogeneous(3)


# -- the tagged union --------------------------------------------------------

Table = TrigImmersion | SymplecticEllipsoid | GeneratingGraph


@dataclass(frozen=True)
class ManifoldSpec:
    """A table plus an optional ambient affine symplectic transform."""

    table: Table
    transform: AffineSymplectic | None = None

    def __post_init__(self) -> None:
        if self.transform is not None and self.transform.S.shape[0] != self.ambient_dim:
            raise ValueError("transform dimension does not match the table")

    @property
    def kind(self) -> str:
        if isinstance(self.table, TrigImmersion):
            return "trig"
        if isinstance(self.table, SymplecticEllipsoid):
            return "ellipsoid"
        return "graph"

    @property
    def ambient_dim(self) -> int:
        return self.table.ambient_dim

    @property
    def param_dim(self) -> int:
        if isinstance(self.table, TrigImmersion):
            return self.table.m
        if isinstance(self.table, SymplecticEllipsoid):
            return 2 * self.table.d - 1
        return self.table.n

    @property
    def params_are_angles(self) -> bool:
        return self.kind in ("trig", "ellipsoid")

    @property
    def is_curve(self) -> bool:
        return isinstance(self.table, TrigImmersion) and self.table.m == 1

    @cached_property
    def as_trig(self) -> TrigImmersion | None:
        """Trig immersion with any ambient transform folded in, when available."""
        if isinstance(self.table, TrigImmersion):
            base = self.table
        elif isinstance(self.table, SymplecticEllipsoid):
            base = self.table.to_immersion()
        else:
            return None
        return base.transformed(self.transform) if self.transform else base

    @property
    def box(self) -> tuple[float, float]:
        if isinstance(self.table, GeneratingGraph):
            return self.table.box
        return (0.0, TWO_PI)

    def embed(self, u) -> np.ndarray:
        trig = self.as_trig
        if trig is not None:
            return trig.value(u)
        z = self.table.embed(u)
        return self.transform(z) if self.transform else z

    def tangent_basis(self, u, min_sv: float = 1e-8) -> np.ndarray:
        """Rows are the parameter-derivative vectors at u; checked for full rank."""
        trig = self.as_trig
        if trig is not None:
            Jc = trig.jacobian(u)
        else:
            Jc = self.table.tangent_rows(u).T
            if self.transform:
                Jc = self.transform.S @ Jc
        sv = np.linalg.svd(Jc, compute_uv=False)
        if sv[-1] <= min_sv:
            raise ImmersionError(f"tangent space rank deficient at parameter {np.round(np.atleast_1d(u), 6)}")
        return Jc.T

    def embed_hessian(self, u) -> np.ndarray:
        """Second parameter derivatives, shape (2d, m, m), exact."""
        trig = self.as_trig
        if trig is not None:
            return trig.hessian(u)
        g: GeneratingGraph = self.table
        q = np.asarray(u, dtype=float)
        T = g.third(q)
        n = g.n
        out = np.zeros((g.ambient_dim, n, n))
        out[1::2, :, :] = T  # x-parts are linear in q, y-parts carry grad F
        if self.transform:
            out = np.einsum("ij,jab->iab", self.transform.S, out)
        return out


def spec_for(table: Table, transform: AffineSymplectic | None = None) -> ManifoldSpec:
    return ManifoldSpec(table, transform)


def coordinate_lagrangian_pair(dim: int) -> tuple[AffineLagrangian, AffineLagrangian]:
    """The coordinate x-subspace and y-subspace of R^{2d} as affine Lagrangians."""
    d = dim // 2
    ex = np.zeros((d, dim))
    ey = np.zeros((d, dim))
    for i in range(d):
        ex[i, 2 * i] = 1.0
        ey[i, 2 * i + 1] = 1.0
    zero = np.zeros(dim)
    return AffineLagrangian(zero, ex), AffineLagrangian(zero, ey)


# -- sampling ---------------------------------------------------------------


def sample_params(spec: ManifoldSpec, per_dim: int = 512, cap: int = 1024) -> np.ndarray:
    """Deterministic parameter samples: offset grid, strided down to <= cap points."""
    m = spec.param_dim
    lo, hi = spec.box
    n_side = max(4, int(round(per_dim ** (1.0 / m)))) if m > 1 else per_dim
    n_side = min(n_side, per_dim)
    axes = [(np.arange(n_side) + 0.5) * (hi - lo) / n_side + lo for _ in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    if pts.shape[0] > cap:
        idx = np.unique(np.linspace(0, pts.shape[0] - 1, cap).astype(int))
        pts = pts[idx]
    return pts


@dataclass(frozen=True)
class ConditionLReport:
    holds: bool
    witness: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None
    samples: int


def check_condition_L(spec: ManifoldSpec, samples: int = 512, tol: float | None = None) -> ConditionLReport:
    """Sampled check that the table is not inside an affine Lagrangian subspace.

    Certifies "holds" with a witness triple (u0, ui, uj) such that
    |omega(x_i - x_0, x_j - x_0)| exceeds tolerance; a False verdict only
    means no witness was found at this resolution (one-sided check).
    """
    pts = sample_params(spec, per_dim=samples)
    X = np.array([spec.embed(u) for u in pts])
    V = X[1:] - X[0]
    if V.shape[0] < 2:
        return ConditionLReport(False, None, pts.shape[0])
    scale = max(1.0, float(np.max(np.abs(V)))) ** 2
    threshold = (GEOMETRIC_TOL if tol is None else tol) * scale
    Vx, Vy = V[:, 0::2], V[:, 1::2]
    W = Vx @ Vy.T - Vy @ Vx.T  # W[i, j] = omega(V_i, V_j)
    i, j = np.unravel_index(np.argmax(np.abs(W)), W.shape)
    if abs(W[i, j]) > threshold:
        return ConditionLReport(True, (pts[0], pts[i + 1], pts[j + 1], float(W[i, j])), pts.shape[0])
    return ConditionLReport(False, None, pts.shape[0])


@dataclass(frozen=True)
class ConditionLLReport:
    holds: bool
    per_probe: tuple[bool, ...]
    witnesses: tuple[tuple[np.ndarray, int, float] | None, ...]
    samples: int


def check_condition_LL(
    spec: ManifoldSpec, probes: Sequence[np.ndarray], samples: int = 512, tol: float | None = None
) -> ConditionLLReport:
    """Sampled check that no probe P sees every tangent space omega-orthogonal
    to its chord: true per probe iff some sample x and tangent zeta give
    |omega(x - P, zeta)| above tolerance. One-sided, like condition (L)."""
    pts = sample_params(spec, per_dim=samples)
    X = np.array([spec.embed(u) for u in pts])
    T = np.array([spec.tangent_basis(u) for u in pts])  # (N, m, 2d)
    verdicts: list[bool] = []
    witnesses: list[tuple[np.ndarray, int, float] | None] = []
    for P in probes:
        P = np.asarray(P, dtype=float)
        D = X - P
        threshold = (GEOMETRIC_TOL if tol is None else tol) * max(1.0, float(np.max(np.abs(D)))) * max(
            1.0, float(np.max(np.abs(T)))
        )
        best_val, best = 0.0, None
        for a in range(T.shape[1]):
            vals = omega_pairwise(D, T[:, a, :])
            k = int(np.argmax(np.abs(vals)))
            if abs(vals[k]) > abs(best_val):
                best_val, best = float(vals[k]), (pts[k], a, float(vals[k]))
        ok = abs(best_val) > threshold
        verdicts.append(ok)
        witnesses.append(best if ok else None)
    return ConditionLLReport(all(verdicts), tuple(verdicts), tuple(witnesses), pts.shape[0])


@dataclass(frozen=True)
class ConvexityProfile:
    min_value: float
    max_value: float
    argmin: float
    argmax: float
    convex: bool


def symplectic_convexity_profile(curve: TrigImmersion | ManifoldSpec, samples: int = 1024) -> ConvexityProfile:
    """Min and max of omega(gamma'(t), gamma''(t)) over a curve, grid + local refinement.

    The curve is symplectically convex iff the minimum is positive.
    """
    if isinstance(curve, ManifoldSpec):
        trig = curve.as_trig
        if trig is None or trig.m != 1:
            raise ValueError("convexity profile is defined for curves only")
        curve = trig
    elif curve.m != 1:
        raise ValueError("convexity profile is defined for curves only")

    ts = np.arange(samples) * TWO_PI / samples
    d1 = curve.curve_batch(ts, 1)
    d2 = curve.curve_batch(ts, 2)
    w = omega_pairwise(d1, d2)

    def f(t: float) -> float:
        v1 = curve.deriv(t, 1)
        v2 = curve.deriv(t, 2)
        return float(v1[0::2] @ v2[1::2] - v1[1::2] @ v2[0::2])

    def refine(k: int, sign: float) -> tuple[float, float]:
        h = TWO_PI / samples
        res = minimize_scalar(
            lambda t: sign * f(t), bounds=(ts[k] - h, ts[k] + h), method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.x), sign * float(res.fun)

    tmin, vmin = refine(int(np.argmin(w)), 1.0)
    tmax, vmax = refine(int(np.argmax(w)), -1.0)
    vmin = min(vmin, float(np.min(w)))
    vmax = max(vmax, float(np.max(w)))
    return ConvexityProfile(vmin, vmax, tmin % TWO_PI, tmax % TWO_PI, vmin > 0.0)


# -- JSON encoding -----------------------------------------------------------


def manifold_to_json(spec: ManifoldSpec) -> dict:
    t = spec.table
    if isinstance(t, TrigImmersion):
        body: dict = {
            "kind": "trig",
            "m": t.m,
            "coeffs": [[[list(f), ca, sa] for f, ca, sa in terms] for terms in t.coeffs],
        }
    elif isinstance(t, SymplecticEllipsoid):
        body = {"kind": "ellipsoid", "axes": list(t.axes)}
    else:
        body = {
            "kind": "graph",
            "n": t.n,
            "terms": [[list(e), c] for e, c in t.F.terms.items()],
            "box": list(t.box),
        }
    if spec.transform is not None:
        body["transform"] = {"S": spec.transform.S.tolist(), "b": spec.transform.b.tolist()}
    return body


def manifold_from_json(data: dict) -> ManifoldSpec:
    if not isinstance(data, dict):
        raise ConfigError("manifold must be a JSON object")
    kind = data.get("kind")
    allowed = {
        "trig": {"kind", "m", "coeffs", "transform"},
        "ellipsoid": {"kind", "axes", "transform"},
        "graph": {"kind", "n", "terms", "box", "transform"},
    }
    if kind not in allowed:
        raise ConfigError(f"unknown manifold kind {kind!r}; expected trig, ellipsoid or graph")
    unknown = set(data) - allowed[kind]
    if unknown:
        raise ConfigError(f"unknown manifold keys: {sorted(unknown)}")
    try:
        if kind == "trig":
            coeffs = tuple(
                tuple((tuple(int(k) for k in f), float(ca), float(sa)) for f, ca, sa in terms)
                for terms in data["coeffs"]
            )
            table: Table = TrigImmersion(int(data["m"]), coeffs)
        elif kind == "ellipsoid":
            table = SymplecticEllipsoid(tuple(float(a) for a in data["axes"]))
        else:
            F = _poly.poly_from_pairs(int(data["n"]), [(e, c) for e, c in data["terms"]])
            box = tuple(data.get("box", (-5.0, 5.0)))
            table = GeneratingGraph(F, (float(box[0]), float(box[1])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad manifold data: {exc}") from exc
    transform = None
    if "transform" in data:
        tr = data["transform"]
        if not isinstance(tr, dict) or set(tr) != {"S", "b"}:
            raise ConfigError("transform must be an object with keys S and b")
        transform = AffineSymplectic(np.asarray(tr["S"], dtype=float), np.asarray(tr["b"], dtype=float))
    return ManifoldSpec(table, transform)
