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
from itertools import chain, pairwise
from typing import Iterable

import numpy as np

from .core import NOISE_ULPS, as_phase_vector, omega
from .errors import DomainError
from .manifolds import GeneratingGraph, ManifoldSpec, SymplecticEllipsoid
from .poly import Poly


@dataclass(frozen=True)
class PolyIntegral:
    """Scalar polynomial on phase space (interleaved coordinates) with exact gradient."""

    poly: Poly

    def __post_init__(self) -> None:
        object.__setattr__(self, "_grads", tuple(self.poly.diff(i) for i in range(self.poly.n)))

    def value(self, z) -> float:
        return float(self.poly(as_phase_vector(z)))

    def __call__(self, z) -> float:
        return self.value(z)

    def grad(self, z) -> np.ndarray:
        z = as_phase_vector(z)
        return np.array([float(g(z)) for g in self._grads])


@dataclass(frozen=True)
class IntegralSet:
    kind: str  # "ellipsoid" | "cubic-graph"
    evaluators: tuple[PolyIntegral, ...]

    def values(self, z) -> np.ndarray:
        z = as_phase_vector(z)
        return np.array([e.value(z) for e in self.evaluators])


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
            evs.append(PolyIntegral(Poly(2 * n, {ky: 1.0}) + _lift_to_phase(table.grad_polys[i]).scaled(-1.0)))
        return IntegralSet("cubic-graph", tuple(evs))
    raise DomainError(f"no known integrals for this table kind ({spec.kind})")


def _gradient_of(f, z: np.ndarray) -> np.ndarray:
    if isinstance(f, Poly):
        return np.array([float(f.diff(i)(z)) for i in range(f.n)])
    return np.asarray(f.grad(z), dtype=float)


def poisson_bracket(f, g, z) -> float:
    """{f, g}(z) = sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i), gradients exact."""
    z = as_phase_vector(z)
    return float(omega(_gradient_of(f, z), _gradient_of(g, z)))


@dataclass(frozen=True)
class AuditReport:
    """Per-chord drift of every integral, plus the tensor-form sign check.

    ``worst_step`` is the first chord whose drift comes within ``NOISE_ULPS``
    ulp of ``value_scale`` (the largest |I| the audit met) of the largest
    drift: drifts that differ only by rounding are ties. When every drift is
    rounding noise, as on an ellipsoid orbit, that is chord 0, and the index
    does not move with last-digit changes to the orbit.
    """

    chord_drift: np.ndarray  # (steps, integrals): |I(B) - I(A)| of each chord
    matched_sign: str | None
    mismatch_minus: float | None
    mismatch_plus: float | None
    value_scale: float = 0.0

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


def _orbit_points(orbit: Iterable):
    it = iter(orbit)
    first = next(it, None)
    if first is None:
        return
    if hasattr(first, "source") and hasattr(first, "partner"):
        yield as_phase_vector(first.source)
        yield as_phase_vector(first.partner)
        for c in it:
            yield as_phase_vector(c.partner)
        return
    yield as_phase_vector(first)
    for p in it:
        yield as_phase_vector(p)


def audit_invariance(spec: ManifoldSpec, integrals: IntegralSet, orbit: Iterable) -> AuditReport:
    """Max |I(z_{k+1}) - I(z_k)| per integral over an orbit of verified steps.

    ``orbit`` is a sequence of phase points or of step candidates (chained by
    their partners); its consecutive points are the chords of :func:`audit_chords`.
    """
    pts = _orbit_points(orbit)
    first = next(pts, None)
    if first is None:
        raise ValueError("orbit must contain at least one point")
    return audit_chords(spec, integrals, pairwise(chain([first], pts)))


def audit_chords(spec: ManifoldSpec, integrals: IntegralSet, chords: Iterable) -> AuditReport:
    """|I(B) - I(A)| per integral for each chord (A, B) of the correspondence.

    For cubic graphs every chord also compares I(A) against +/- (1/2) third
    F(q)[w, w] at the chord's midpoint offset w; chords whose midpoint is off
    the graph, and degenerate chords with w = 0, are left out of that
    comparison.
    """
    graph = spec.table if integrals.kind == "cubic-graph" else None
    drift, seen = [], []
    mis_minus, mis_plus, audited = 0.0, 0.0, 0
    prev = vals_prev = None
    for A, B in chords:
        vals_a = vals_prev if A is prev else integrals.values(A)  # consecutive chords share a point
        prev, vals_prev = B, integrals.values(B)
        drift.append(np.abs(vals_prev - vals_a))
        seen += (vals_a, vals_prev)
        if graph is not None:
            A, B = as_phase_vector(A), as_phase_vector(B)
            mid = 0.5 * (A + B)
            q = mid[0::2]
            w = A[0::2] - q
            gq = graph.grad(q)
            on_graph = float(np.max(np.abs(gq - mid[1::2]))) <= 1e-8 * max(1.0, float(np.max(np.abs(gq))))
            if on_graph and float(np.linalg.norm(w)) > 1e-12:
                half = 0.5 * np.einsum("ijk,j,k->i", graph.third(q), w, w)
                mis_minus = max(mis_minus, float(np.max(np.abs(vals_a + half))))
                mis_plus = max(mis_plus, float(np.max(np.abs(vals_a - half))))
                audited += 1
    drift = np.reshape(drift, (len(drift), len(integrals.evaluators)))
    scale = float(np.max(np.abs(seen))) if seen else 0.0
    if graph is not None and audited > 0:
        return AuditReport(drift, "-" if mis_minus <= mis_plus else "+", mis_minus, mis_plus, scale)
    return AuditReport(drift, None, None, None, scale)
