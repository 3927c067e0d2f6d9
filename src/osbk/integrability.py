"""Conserved quantities along the correspondence and Poisson structure checks.

Two table families carry known integrals: ellipsoids conserve every pair norm
x_j^2 + y_j^2 (orbits live on Lagrangian tori), and graphs of homogeneous
cubics conserve all n components of P - grad F(Q). Both sets are polynomial,
so gradients are exact and Poisson brackets carry no finite-difference noise.

The invariance audit records the drift of every chord (consecutive orbit
points, or any pairs) and, for cubic graphs, also checks the endpoint value
against the half tensor form (1/2) third F(q)[w, w]. The Taylor expansion of
grad F(q +/- w) fixes the sign of that identity to minus; the audit records
which sign the data actually matched instead of hard-coding a convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NOISE_ULPS, omega
from .errors import DomainError
from .manifolds import GeneratingGraph, ManifoldSpec, SymplecticEllipsoid
from .poly import Poly


def _phase_points(z) -> np.ndarray:
    """Validate one phase point (2d,) or a stack (N, 2d) of finite floats."""
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] < 2 or z.shape[-1] % 2:
        raise ValueError(f"phase points must have shape (2d,) or (N, 2d), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("phase points have non-finite entries")
    return z


@dataclass(frozen=True)
class PolyIntegral:
    """Scalar polynomial on phase space (interleaved coordinates) with exact gradient.

    ``value`` and ``grad`` take one point (2d,) or a stack (N, 2d) and return
    a float or (N,), and (2d,) or (N, 2d).
    """

    poly: Poly

    def __post_init__(self) -> None:
        # sum |c| |z^a|: the scale of the rounding error of value(z)
        object.__setattr__(self, "_abs", Poly(self.poly.n, {k: abs(c) for k, c in self.poly.terms.items()}))

    def value(self, z) -> float | np.ndarray:
        return self.poly(_phase_points(z))

    def __call__(self, z) -> float | np.ndarray:
        return self.value(z)

    def grad(self, z) -> np.ndarray:
        return self.poly.partials(_phase_points(z), 1)


@dataclass(frozen=True)
class IntegralSet:
    kind: str  # "ellipsoid" | "cubic-graph"
    evaluators: tuple[PolyIntegral, ...]

    def values(self, z) -> np.ndarray:
        """All integrals at one point (2d,) -> (k,), or at a stack (N, 2d) -> (N, k)."""
        z = _phase_points(z)
        return np.stack([e.poly(z) for e in self.evaluators], axis=-1)


def _lift_to_phase(p: Poly) -> Poly:
    """Reindex a polynomial in q onto phase space with q_i at interleaved slot 2i."""
    terms: dict[tuple[int, ...], float] = {}
    for exps, c in p.terms.items():
        key = [0] * (2 * p.n)
        for i, a in enumerate(exps):
            key[2 * i] = a
        terms[tuple(key)] = c
    return Poly(2 * p.n, terms)


def integrals_for(spec: ManifoldSpec) -> IntegralSet:
    """The known integral set of a table, or a domain error for unsupported kinds."""
    if spec.transform is not None:
        T = spec.transform
        if not (np.array_equal(T.S, np.eye(T.S.shape[0])) and not np.any(T.b)):
            raise DomainError(
                "no known integrals for a transformed table; work in the table's own frame"
            )
    table = spec.table
    if isinstance(table, SymplecticEllipsoid):
        d = table.d
        evs = []
        for j in range(d):
            kx = tuple(2 if i == 2 * j else 0 for i in range(2 * d))
            ky = tuple(2 if i == 2 * j + 1 else 0 for i in range(2 * d))
            evs.append(PolyIntegral(Poly(2 * d, {kx: 1.0, ky: 1.0})))
        return IntegralSet("ellipsoid", tuple(evs))
    if isinstance(table, GeneratingGraph) and table.is_homogeneous_cubic():
        n = table.n
        evs = []
        for i in range(n):
            ky = tuple(1 if k == 2 * i + 1 else 0 for k in range(2 * n))
            evs.append(PolyIntegral(Poly(2 * n, {ky: 1.0}) + _lift_to_phase(table.F.diff(i)).scaled(-1.0)))
        return IntegralSet("cubic-graph", tuple(evs))
    raise DomainError(f"no known integrals for this table kind ({spec.kind})")


def poisson_bracket(f, g, z) -> float | np.ndarray:
    """{f, g}(z) = sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i), gradients exact.

    ``f`` and ``g`` are integrals (a bare :class:`Poly` is wrapped once); ``z``
    is one point (2d,) or a stack (N, 2d), giving a float or (N,).
    """
    z = _phase_points(z)
    df, dg = ((PolyIntegral(h) if isinstance(h, Poly) else h).grad(z) for h in (f, g))
    return omega(df, dg)


@dataclass(frozen=True)
class AuditReport:
    """Per-chord drift of every integral, plus the tensor-form sign check.

    ``worst_step`` is the first chord whose drift comes within ``NOISE_ULPS``
    ulp of ``value_scale`` of the largest drift: drifts that differ only by
    rounding are ties. ``value_scale`` is the largest absolute-coefficient
    bound sum |c| |z^a| of an integral at an audited point (on an ellipsoid,
    the largest |I|). When every drift is rounding noise, as on an ellipsoid
    orbit or on cubic-graph chords, that is chord 0, and the index does not
    move with last-digit changes to the data.
    """

    chord_drift: np.ndarray  # (steps, integrals): |I(B) - I(A)| of each chord
    matched_sign: str | None
    mismatch_minus: float | None
    mismatch_plus: float | None
    value_scale: float = 0.0
    point_values: np.ndarray | None = None  # (steps + 1, integrals) along an orbit; None for chords

    @property
    def steps(self) -> int:
        return len(self.chord_drift)

    @property
    def max_drift(self) -> np.ndarray:
        return self.chord_drift.max(axis=0, initial=0.0)

    @property
    def worst_step(self) -> int:
        if not self.steps:
            return 0
        drift = self.chord_drift.max(axis=1)
        return int(np.argmax(drift >= drift.max() - NOISE_ULPS * np.spacing(self.value_scale)))

    @property
    def worst_drift(self) -> float:
        return float(self.chord_drift.max(initial=0.0))

    def as_dict(self) -> dict:
        return {
            "max_drift": [float(v) for v in self.max_drift],
            "worst_step": {"index": int(self.worst_step), "drift": float(self.worst_drift)},
            "steps": int(self.steps),
            "matched_sign": self.matched_sign,
            "mismatch_minus": self.mismatch_minus,
            "mismatch_plus": self.mismatch_plus,
        }


def audit_invariance(spec: ManifoldSpec, integrals: IntegralSet, orbit) -> AuditReport:
    """Max |I(z_{k+1}) - I(z_k)| per integral over an orbit of verified steps.

    ``orbit`` is a point array (N, 2d), a list of phase points, or a list of
    step candidates (chained by their partners). Its consecutive points are
    the chords of :func:`audit_chords`, audited the same way, but every
    point's integrals are evaluated once, as one stack: the report keeps them
    as ``point_values``, and the drifts are differences of consecutive rows.
    """
    if len(orbit) and hasattr(orbit[0], "partner"):
        orbit = [orbit[0].source, *(c.partner for c in orbit)]
    if not len(orbit):
        raise ValueError("orbit must contain at least one point")
    pts = _phase_points(orbit)
    if pts.ndim != 2:
        raise ValueError(f"orbit points must form an (N, 2d) stack, got {pts.shape}")
    vals = integrals.values(pts)
    endpoints = pts if len(pts) > 1 else pts[:0]  # a lone point ends no chord
    return _audit(spec, integrals, pts[:-1], pts[1:], vals[:-1], vals[1:], endpoints, vals)


def audit_chords(spec: ManifoldSpec, integrals: IntegralSet, A, B) -> AuditReport:
    """|I(B_k) - I(A_k)| per integral for each chord (A_k, B_k) of the correspondence.

    ``A`` and ``B`` are (N, 2d) stacks of the chords' endpoints, each
    evaluated in one pass. For cubic graphs every chord also compares I(A_k)
    against +/- (1/2) third F(q)[w, w] at the chord's midpoint offset w;
    chords whose midpoint is off the graph, and degenerate chords with w = 0,
    are left out of that comparison. The report's ``value_scale`` is the
    largest absolute-coefficient bound sum |c| |z^a| of any integral at any
    endpoint, the scale of the rounding error in the drifts.
    """
    A, B = _phase_points(A), _phase_points(B)
    if A.ndim != 2 or A.shape != B.shape:
        raise ValueError(f"chord endpoints must be two (N, 2d) stacks of one shape, got {A.shape} and {B.shape}")
    return _audit(spec, integrals, A, B, integrals.values(A), integrals.values(B), np.concatenate([A, B]))


def _audit(spec, integrals, A, B, va, vb, endpoints, point_values=None) -> AuditReport:
    """Audit the chords (A_k, B_k) with integral values va and vb at their ends.

    ``endpoints`` lists every chord endpoint at least once, for ``value_scale``.
    """
    drift = np.abs(vb - va)
    absz = np.abs(endpoints)
    scale = max((float(np.max(e._abs(absz), initial=0.0)) for e in integrals.evaluators), default=0.0)
    sign, mis_minus, mis_plus = None, None, None
    if integrals.kind == "cubic-graph":
        graph = spec.table
        mid = 0.5 * (A + B)
        q = mid[:, 0::2]
        w = A[:, 0::2] - q
        gq = graph.grad(q)
        on_graph = np.max(np.abs(gq - mid[:, 1::2]), axis=1) <= 1e-8 * np.maximum(1.0, np.max(np.abs(gq), axis=1))
        keep = on_graph & (np.linalg.norm(w, axis=1) > 1e-12)
        if np.any(keep):
            w = w[keep]
            half = 0.5 * np.einsum("nijk,nj,nk->ni", graph.third(q[keep]), w, w)
            mis_minus = float(np.max(np.abs(va[keep] + half)))
            mis_plus = float(np.max(np.abs(va[keep] - half)))
            sign = "-" if mis_minus <= mis_plus else "+"
    return AuditReport(drift, sign, mis_minus, mis_plus, scale, point_values)
