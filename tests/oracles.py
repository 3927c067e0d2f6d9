"""Independent oracles used to pin library results.

Everything here is deliberately implemented by a different route than the
library: finite differences instead of analytic derivatives, dense grid
scanning plus local Newton instead of closed-form elimination, shoelace
instead of the symplectic chord sum. ``reference_scan_curve_roots`` finds
the curve roots with a refined sign-change grid, bisection and Brent's
method, the library's companion-matrix solve by a different route.
``reference_audit_chords`` audits one chord at a time where the library
evaluates all chords in one array pass, and ``reference_zero_divisor`` solves
one sphere direction at a time where the library stacks them.
``reference_classify_trials`` runs the classify probes one trial and one
attempt at a time, where the library draws and solves every trial's probe
at once, and ``reference_csv_text`` formats a CSV one value at a time, where
the CLI formats each row with one template. ``reference_step_candidates``
builds step partners one candidate at a time and merges them by a pairwise
scan, where the library builds them as one stack and merges them by the
package's single dedup rule.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any

import numpy as np

from osbk._pool import task_rng
from osbk.core import as_phase_vector, minimize_scalar
from osbk.correspondence import CurveRoot, CurveScan, StepCandidate
from osbk.errors import ConsistencyError, DegeneratePencilError, UnstableCountError
from osbk.integrability import IntegralSet
from osbk.manifolds import TWO_PI, GeneratingGraph, ManifoldSpec, TrigImmersion
from osbk.wall import ConicPair, conic_intersections

MAX_GRID = 1 << 17  # finest root-scan grid before the count is declared unstable
REFERENCE_DEDUP = 1e-6  # roots and candidates closer than this in parameter space are one


def _omega_rows(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """omega row by row of two stacks (..., 2d) by einsum sums, not the library's BLAS dots."""
    return np.einsum("...j,...j->...", U[..., 0::2], V[..., 1::2]) - np.einsum("...j,...j->...", U[..., 1::2], V[..., 0::2])


def reference_wrap_dist(a, b) -> np.ndarray:
    """Distance on the circle, elementwise."""
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def shoelace_area(poly: np.ndarray) -> float:
    """Signed area of a closed polygon in the plane (vertices as rows)."""
    P = np.asarray(poly, dtype=float)
    x, y = P[:, 0], P[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1)))


def brute_conic_solutions(
    A1: np.ndarray,
    A2: np.ndarray,
    r1: float,
    r2: float,
    n: int = 400,
) -> list[np.ndarray]:
    """All real solutions of w.A1 w = r1, w.A2 w = r2 by grid scan + Newton.

    The search box is derived from the data alone: on the unit circle at
    least one of |w.A_i w| is bounded below by m, so any solution satisfies
    |w|^2 <= max(|r1|, |r2|) / m.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    theta = np.linspace(0.0, np.pi, 720, endpoint=False)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q1 = np.abs(np.einsum("ki,ij,kj->k", U, A1, U))
    q2 = np.abs(np.einsum("ki,ij,kj->k", U, A2, U))
    m = float(np.min(np.maximum(q1, q2)))
    if m <= 0.0:
        raise ValueError("pencil too degenerate for the brute-force box bound")
    R = 1.5 * np.sqrt(max(abs(r1), abs(r2), 1e-30) / m) + 1e-6

    xs = np.linspace(-R, R, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = np.stack([X, Y], axis=-1)
    F1 = np.einsum("xyi,ij,xyj->xy", W, A1, W) - r1
    F2 = np.einsum("xyi,ij,xyj->xy", W, A2, W) - r2

    def sign_change(F: np.ndarray) -> np.ndarray:
        c = np.stack([F[:-1, :-1], F[1:, :-1], F[:-1, 1:], F[1:, 1:]])
        return (c.min(axis=0) <= 0.0) & (c.max(axis=0) >= 0.0)

    cells = np.argwhere(sign_change(F1) & sign_change(F2))
    scale = max(abs(r1), abs(r2), 1.0)

    found: list[np.ndarray] = []
    for ix, iy in cells:
        w = np.array([0.5 * (xs[ix] + xs[ix + 1]), 0.5 * (xs[iy] + xs[iy + 1])])
        for _ in range(60):
            g = np.array([w @ A1 @ w - r1, w @ A2 @ w - r2])
            if np.max(np.abs(g)) <= 1e-13 * scale:
                break
            J = np.stack([2.0 * A1 @ w, 2.0 * A2 @ w])
            try:
                dw = np.linalg.solve(J, g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(dw)):
                break
            w = w - dw
        g = np.array([w @ A1 @ w - r1, w @ A2 @ w - r2])
        if np.max(np.abs(g)) > 1e-10 * scale:
            continue
        if any(np.linalg.norm(w - v) <= 1e-6 * max(1.0, np.linalg.norm(v)) for v in found):
            continue
        found.append(w)
    found.sort(key=lambda v: (round(v[0], 9), round(v[1], 9)))
    return found


def reference_scan_curve_roots(curve: TrigImmersion, z, grid: int = 2048) -> CurveScan:
    """The curve roots by a sign-change grid, doubled from ``grid`` until the
    count holds for three levels, every grid level evaluated in full, all 50
    bisection passes, separate ``curve_batch`` calls for each derivative, and
    Brent's method on every near-zero grid minimum of |g| (tangential roots).
    ``history`` lists (grid, sign changes) per level."""
    z = as_phase_vector(z)

    def g(ts, order: int = 1) -> np.ndarray:
        return _omega_rows(curve.curve_batch(ts, 0) - z, curve.curve_batch(ts, order))

    history: list[tuple[int, int]] = []
    n = int(grid)
    while True:
        ts = np.arange(n) * (TWO_PI / n)
        gv = g(ts)
        sign = np.where(gv >= 0.0, 1.0, -1.0)
        flips = np.nonzero(sign * np.roll(sign, -1) < 0)[0]
        history.append((n, len(flips)))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            break
        if n >= MAX_GRID:
            lo, hi = sorted((history[-1][1], history[-2][1]))
            raise UnstableCountError(f"root count did not stabilize by grid {n}", lo, hi)
        n *= 2

    h = TWO_PI / n
    gscale = max(1.0, float(np.max(np.abs(gv))))
    t = a = ts[flips]
    if flips.size:
        fa, b = gv[flips], a + h
        for _ in range(50):
            m = 0.5 * (a + b)
            fm = g(m)
            left = (fm < 0.0) == (fa < 0.0)
            a, fa = np.where(left | (fm == 0.0), m, a), np.where(left, fm, fa)
            b = np.where(left & (fm != 0.0), b, m)
        t = 0.5 * (a + b)
        live = np.ones(t.shape, dtype=bool)
        for _ in range(4):
            d = g(t, 2)
            ok = np.abs(d) >= 1e-300
            t2 = t - np.divide(g(t), d, out=np.zeros_like(d), where=ok)
            live &= ok & (ts[flips] - h <= t2) & (t2 <= ts[flips] + 2 * h)
            t = np.where(live, t2, t)
    roots = t % TWO_PI

    tangential: list[float] = []
    absg = np.abs(gv)
    is_min = (absg <= np.roll(absg, 1)) & (absg <= np.roll(absg, -1)) & (absg < 1e-3 * gscale)
    for i in np.nonzero(is_min)[0]:
        x, _ = minimize_scalar(lambda s: g(s)[0] ** 2, (ts[i] - h, ts[i] + h), xatol=1e-13)
        tc = x % TWO_PI
        if abs(g(tc)[0]) <= 1e-9 * gscale and np.all(reference_wrap_dist(tc, np.append(roots, tangential)) > REFERENCE_DEDUP):
            tangential.append(tc)

    d0, d2 = curve.curve_batch(roots, 0) - z, curve.curve_batch(roots, 2)
    gp_scale = np.maximum(1.0, np.linalg.norm(d0, axis=1) * np.linalg.norm(d2, axis=1))
    flat = np.abs(_omega_rows(d0, d2)) <= 1e-7 * gp_scale
    out = list(map(CurveRoot, roots.tolist(), flat.tolist())) + [CurveRoot(t, True) for t in tangential]
    out.sort(key=lambda r: r.t)
    return CurveScan(tuple(out), len(flips), tuple(history))


def _reference_candidate(z, mid, u, rows, transform, branch, on_wall) -> StepCandidate:
    """One candidate: partner 2 mid - z after pushing z, mid and rows through ``transform``."""
    if transform is not None:
        z, mid, rows = transform(z), transform(mid), np.atleast_2d(rows) @ transform.S.T
    partner = 2.0 * mid - z
    delta = partner - z
    scale = max(1.0, float(np.max(np.abs(z))), float(np.max(np.abs(mid))))
    rows = np.asarray(rows, dtype=float).reshape(-1, delta.size)
    vals = np.einsum("...ak,...k->...a", rows[..., 1::2], delta[..., 0::2]) - np.einsum(
        "...ak,...k->...a", rows[..., 0::2], delta[..., 1::2]
    )
    norms = np.linalg.norm(delta, axis=-1)[..., None] * np.linalg.norm(rows, axis=-1)
    residual = float(np.max(np.divide(np.abs(vals), norms, out=np.zeros_like(vals), where=norms > 0.0)))
    return StepCandidate(
        source=z,
        partner=partner,
        midpoint=mid,
        midpoint_param=np.atleast_1d(np.asarray(u, dtype=float)),
        residual=residual,
        branch=branch,
        on_wall=on_wall,
        degenerate=float(np.linalg.norm(delta)) <= 1e-9 * scale,
    )


def reference_step_candidates(z, points, angular: bool, transform=None, branch=None) -> list[StepCandidate]:
    """The partners of z through ``points``, a list of (midpoint, param, tangent rows, on_wall).

    Builds one candidate per point, then merges by a pairwise scan over the
    candidates sorted by (rounded param, residual): a candidate within
    ``REFERENCE_DEDUP`` of a kept one (angles wrapped when ``angular``)
    replaces it when its residual is lower. The kept ones come sorted by param.
    """
    cands = [_reference_candidate(z, mid, u, rows, transform, branch, on_wall) for mid, u, rows, on_wall in points]
    cands.sort(key=lambda c: (tuple(np.round(c.midpoint_param, 12)), c.residual))
    kept: list[StepCandidate] = []
    for c in cands:
        for i, k in enumerate(kept):
            if angular:
                dist = max(reference_wrap_dist(a, b) for a, b in zip(c.midpoint_param, k.midpoint_param))
            else:
                dist = float(np.max(np.abs(c.midpoint_param - k.midpoint_param)))
            if dist < REFERENCE_DEDUP:
                if c.residual < k.residual:
                    kept[i] = c
                break
        else:
            kept.append(c)
    kept.sort(key=lambda c: tuple(c.midpoint_param))
    return kept


def reference_audit_chords(spec: ManifoldSpec, integrals: IntegralSet, chords) -> tuple:
    """Per-chord invariance audit of (A, B) pairs: (drift (N, k), matched sign, mismatch -, mismatch +).

    Evaluates the integrals, grad F and third F at one chord at a time; the
    sign and mismatches are None unless some chord of a cubic graph has its
    midpoint on the graph and a nonzero offset w.
    """
    graph = spec.table if integrals.kind == "cubic-graph" else None
    drift = []
    mis_minus, mis_plus, audited = 0.0, 0.0, 0
    for A, B in chords:
        A, B = as_phase_vector(A), as_phase_vector(B)
        vals_a = integrals.values(A)
        drift.append(np.abs(integrals.values(B) - vals_a))
        if graph is None:
            continue
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
    if audited:
        return drift, "-" if mis_minus <= mis_plus else "+", mis_minus, mis_plus
    return drift, None, None, None


def reference_zero_divisor(graph: GeneratingGraph, q, sphere_samples: int = 4096, seed: int = 0) -> tuple[float, np.ndarray]:
    """(min, witness) of the smallest singular value of third F(q)[., ., w], one unit w at a time.

    Draws the sphere sample one direction per call from the library's stream
    and keeps the first minimum, where the library draws and solves them all at once.
    """
    T = graph.third(np.asarray(q, dtype=float))
    rng = task_rng(seed, 0)
    best: tuple[float, np.ndarray] | None = None
    for _ in range(sphere_samples):
        w = rng.normal(size=graph.n)
        w = w / float(np.linalg.norm(w))
        v = float(np.linalg.svd(np.einsum("ijk,k->ij", T, w), compute_uv=False)[-1])
        if best is None or v < best[0]:
            best = (v, w)
    return best


def reference_classify_trials(pair: ConicPair, trials: int, seed: int) -> tuple[list[int], list[int]]:
    """(partner count, 1-based attempt number) of each trial's first generic classify probe.

    Trial i draws Q, then W, from ``task_rng(seed, i)`` until the probe is
    generic, one ``conic_intersections`` call per attempt; raises a
    consistency error when a trial finds none in 200 attempts.
    """
    counts, attempts = [], []
    for i in range(trials):
        rng = task_rng(seed, i)
        for attempt in range(1, 201):
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
            gaps = [float(np.linalg.norm(a - b)) for k, a in enumerate(sols) for b in sols[k + 1 :]]
            if gaps and min(gaps) < 1e-3:
                continue
            counts.append(len(sols))
            attempts.append(attempt)
            break
        else:
            raise ConsistencyError("could not draw a generic probe in 200 attempts")
    return counts, attempts


def reference_fmt(x: Any) -> str:
    """One CSV value: booleans as 1/0, integers in full, floats with 17 significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def reference_csv_text(header: list[str], rows) -> str:
    """A CSV file's text, formatting one value at a time with :func:`reference_fmt`."""
    lines = [",".join(header)] + [",".join(reference_fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)
