"""Independent oracles used to pin library results.

Everything here is deliberately implemented by a different route than the
library: finite differences instead of analytic derivatives, dense grid
scanning plus local Newton instead of closed-form elimination, shoelace
instead of the symplectic chord sum. ``reference_scan_curve_roots`` finds
the curve roots with a refined sign-change grid, bisection and Brent's
method, the library's companion-matrix solve by a different route.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from osbk.core import as_phase_vector, minimize_scalar, omega_pairwise
from osbk.correspondence import PARAM_DEDUP, CurveRoot, CurveScan, _wrap_dist
from osbk.errors import UnstableCountError
from osbk.manifolds import TWO_PI, TrigImmersion

MAX_GRID = 1 << 17  # finest root-scan grid before the count is declared unstable


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
        return omega_pairwise(curve.curve_batch(ts, 0) - z, curve.curve_batch(ts, order))

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
        if abs(g(tc)[0]) <= 1e-9 * gscale and np.all(_wrap_dist(tc, np.append(roots, tangential)) > PARAM_DEDUP):
            tangential.append(tc)

    d0, d2 = curve.curve_batch(roots, 0) - z, curve.curve_batch(roots, 2)
    gp_scale = np.maximum(1.0, np.linalg.norm(d0, axis=1) * np.linalg.norm(d2, axis=1))
    flat = np.abs(omega_pairwise(d0, d2)) <= 1e-7 * gp_scale
    out = list(map(CurveRoot, roots.tolist(), flat.tolist())) + [CurveRoot(t, True) for t in tangential]
    out.sort(key=lambda r: r.t)
    return CurveScan(tuple(out), len(flips), tuple(history))
