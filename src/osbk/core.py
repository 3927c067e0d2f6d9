"""Linear symplectic algebra on R^{2d} in interleaved coordinates.

Points are plain float arrays of even length, interleaved as
(x1, y1, ..., xd, yd). The symplectic form is

    omega(u, v) = sum_i (u_{x_i} v_{y_i} - u_{y_i} v_{x_i}),

and J is the per-pair quarter turn (x, y) -> (-y, x), so that
omega(u, v) = <J u, v> with the Euclidean inner product and J^2 = -Id.

The q-block/p-block layout used by Lagrangian-graph tables is converted at
that module's boundary via :func:`interleave` / :func:`split_xy`; signed
areas everywhere use the single convention above.

Three numerical kernels shared by the solvers live here too: :func:`solve_stack`
for stacks of possibly singular linear systems, :func:`minimize_scalar`,
Brent's bounded minimization, ported from scipy so that importing osbk does
not import scipy, and the one rule by which solutions found more than once
merge: parameter points within ``DEDUP_RADIUS`` of each other.

Rows meet a fixed matrix by one rule, :func:`_rows`: a stack is one 2-D gemm
and a lone row is a row of a two-row gemm, so every row of a stacked
evaluation equals its one-point call bit for bit. The trig evaluators follow
it, and every change of frame goes through :class:`AffineSymplectic`, which does.
Row-wise products of two stacks have one rule each, with one BLAS dot per
row: every row-wise omega is a call of :func:`omega`, and every row norm that
must round as ``np.linalg.norm`` of one row is :func:`_row_norms`. The Gram
products of the orbit searches and the step solver's row residuals keep
their own rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

GEOMETRIC_TOL = 1e-10
NOISE_ULPS = 8  # values this many ulp of their magnitude apart are rounding noise, not structure
DEDUP_RADIUS = 1e-6  # parameter points closer than this (max norm, angles wrapped) are one solution
TWO_PI = 2.0 * math.pi


def as_phase_vector(v) -> np.ndarray:
    """Validate and return a finite float vector of even length >= 2."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or arr.size % 2 != 0:
        raise ValueError(f"phase vector must be 1-d of even length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phase vector has non-finite entries")
    return arr


def _require_count(name: str, value: int) -> None:
    """Raise ValueError naming the count argument ``name`` unless ``value`` >= 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def scale_tol(*arrays, tol: float = GEOMETRIC_TOL) -> float:
    """Absolute tolerance scaled by the largest input magnitude (floor 1)."""
    m = 1.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            m = max(m, float(np.max(np.abs(a))))
    return tol * m


def omega(u, v) -> float | np.ndarray:
    """The standard symplectic form of two interleaved vectors, a float.

    Two stacks (..., 2d) that broadcast together give an array (...), each
    row rounded as the one-vector call: ``vecdot`` runs the same dot as ``@``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if min(u.ndim, v.ndim) == 0 or u.shape[-1] != v.shape[-1] or u.shape[-1] % 2:
        raise ValueError(f"omega needs two equal even-dimensional vectors, got {u.shape} and {v.shape}")
    if u.ndim == v.ndim == 1:
        return float(u[0::2] @ v[1::2] - u[1::2] @ v[0::2])
    return np.vecdot(u[..., 0::2], v[..., 1::2]) - np.vecdot(u[..., 1::2], v[..., 0::2])


def solve_stack(A: np.ndarray, b: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system A[k] x = b[k] of a stack (S, p, p), (S, p).

    One batched SVD flags the systems whose smallest singular value is at
    most ``rel * max(1, largest)``; those get the least-squares solution,
    the regular ones ``np.linalg.solve``. Returns (x (S, p), singular (S,)).
    """
    sv = np.linalg.svd(A, compute_uv=False)
    singular = sv[:, -1] <= rel * np.maximum(1.0, sv[:, 0])
    x = np.empty(b.shape)
    x[~singular] = np.linalg.solve(A[~singular], b[~singular][..., None])[..., 0]
    for k in np.flatnonzero(singular):
        x[k] = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
    return x, singular


def _rows(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows of x (..., k) as one 2-D stack for a product with a fixed matrix, and their count N.

    The product's first N rows are x's. A lone row is doubled: BLAS sends a
    one-row product through gemv, which rounds unlike a row of a gemm.
    """
    flat = x.reshape(-1, x.shape[-1])
    return (flat.repeat(2, axis=0) if len(flat) == 1 else flat), len(flat)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of x (..., k) -> (...).

    Each row rounds as ``np.linalg.norm`` of that row alone: both take the
    square root of one BLAS dot of the contiguous row with itself (a strided
    dot sums in another order, so a strided stack is copied first).
    """
    x = np.ascontiguousarray(x)
    return np.sqrt(np.vecdot(x, x))


def _params_close(
    A: np.ndarray, B: np.ndarray, angular: bool, tol: float = DEDUP_RADIUS, shifts: bool = True
) -> bool:
    """Whether A (n, m) is within ``tol`` of B (n, m) or of any B[k] of a stack (K, n, m).

    The distance is the max norm, taken modulo 2 pi when ``angular``. With
    ``shifts``, every cyclic shift of B counts.
    """
    if B.shape[-2:] != A.shape:
        return False
    B = B.reshape(-1, *A.shape)
    if shifts:
        B = np.stack([np.roll(B, -s, axis=1) for s in range(A.shape[0])], axis=1)
    d = np.abs(A - B)
    if angular:
        d = np.mod(d, TWO_PI)
        d = np.minimum(d, TWO_PI - d)
    return bool((d.max(axis=(-2, -1)) < tol).any())


def _distinct(items: list, params: list[np.ndarray] | np.ndarray, angular: bool, shifts: bool) -> list:
    """The items whose params are not close to those of an earlier kept item, in order.

    Each item is compared with the stack of kept params, so the first item of
    every cluster is kept: callers order the items best first.
    """
    if len(items) < 2:
        return list(items)
    kept = [items[0]]
    stack = np.empty((len(params),) + params[0].shape)
    stack[0] = params[0]
    for item, P in zip(items[1:], params[1:]):
        if not _params_close(P, stack[: len(kept)], angular, shifts=shifts):
            stack[len(kept)] = P
            kept.append(item)
    return kept


def minimize_scalar(fun, bounds, xatol: float = 1e-5, maxiter: int = 500):
    """Local minimum of ``fun`` on ``bounds`` = (lo, hi) by Brent's bounded method; returns (x, fun(x)).

    Ported line for line from scipy.optimize's ``_minimize_scalar_bounded``
    (BSD-3-Clause): the same floating-point operations in the same order, so x
    and fun(x) equal scipy's ``minimize_scalar(method="bounded")`` bit for bit.
    ``maxiter`` caps the number of ``fun`` calls; x is returned as a float.
    """
    a, b = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValueError(f"bounds must be finite with lo <= hi, got {bounds}")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (1.0 if xm - xf >= 0.0 else -1.0)
            else:
                golden = True
        if golden:  # golden-section step into the larger side
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        si = 1.0 if rat >= 0.0 else -1.0  # scipy: np.sign(rat) + (rat == 0); rat is never nan
        x = xf + si * max(abs(rat), tol1)
        fu = fun(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return float(xf), fx


def omega_matrix(dim: int) -> np.ndarray:
    """Matrix Omega with omega(u, v) = u^T Omega v, for interleaved layout."""
    if dim % 2:
        raise ValueError("dimension must be even")
    O = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        O[i, i + 1] = 1.0
        O[i + 1, i] = -1.0
    return O


def apply_J(v) -> np.ndarray:
    """Per-pair rotation (x, y) -> (-y, x) of a vector or a stack (..., 2d); omega(u, v) = <J u, v>."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 1 or v.shape[-1] % 2:
        raise ValueError("J needs an even-dimensional vector")
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def interleave(x, y) -> np.ndarray:
    """Assemble (x1, y1, ..., xd, yd) from the x-block and y-block, or row by row from stacks (..., d)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim < 1:
        raise ValueError("blocks must be of equal shape with at least one axis")
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
    out[..., 0::2] = x
    out[..., 1::2] = y
    return out


def split_xy(v) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave`: the x-parts and y-parts of a vector."""
    v = np.asarray(v, dtype=float)
    return v[0::2].copy(), v[1::2].copy()


def symplectic_complement(basis) -> np.ndarray:
    """Basis (rows) of {xi : omega(xi, b) = 0 for every b in span(basis)}.

    Computed as the kernel of the m x 2d matrix with rows (J b_i)^T, since
    omega(xi, b) = -<xi, J b>. Raises on rank-deficient input, naming the
    first dependent row.
    """
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    m, dim = B.shape
    if dim % 2 or m > dim:
        raise ValueError(f"need at most 2d vectors of even dimension, got {B.shape}")
    # incremental rank check so the error can name the offending vector
    for i in range(m):
        if np.linalg.matrix_rank(B[: i + 1]) != i + 1:
            raise ValueError(f"basis vector {i} is linearly dependent on the preceding ones")
    A = apply_J(B)
    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > scale_tol(A) if s.size else 0))
    return vh[rank:].copy()


@dataclass(frozen=True)
class AffineLagrangian:
    """Affine subspace base + span(basis) on which omega vanishes identically."""

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        base = as_phase_vector(self.base)
        B = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if B.shape[1] != base.size:
            raise ValueError("base and basis dimensions disagree")
        if np.linalg.matrix_rank(B) != B.shape[0]:
            raise ValueError("basis is rank deficient")
        W = np.triu(omega(B[:, None], B), 1)  # W[i, j] = omega(b_i, b_j) for i < j
        bad = np.argwhere(np.abs(W) > scale_tol(B))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"basis pair ({i},{j}) is not isotropic: omega = {W[i, j]:.3e}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", B.astype(float))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class AffineSymplectic:
    """Affine map z -> S z + b with symplectic linear part S."""

    S: np.ndarray
    b: np.ndarray
    _checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        S = np.asarray(self.S, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] != b.size:
            raise ValueError("S must be square and match the translation length")
        if not self._checked:
            O = omega_matrix(S.shape[0])
            resid = np.max(np.abs(S.T @ O @ S - O))
            if resid > scale_tol(S):
                raise ValueError(f"linear part is not symplectic: residual {resid:.3e}")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls, dim: int) -> "AffineSymplectic":
        return cls(np.eye(dim), np.zeros(dim), _checked=True)

    def __call__(self, z) -> np.ndarray:
        """Image of one point (2d,) or of a stack of points (..., 2d), each as if alone."""
        return self.apply_vector(z) + self.b

    def apply_vector(self, v) -> np.ndarray:
        """Push forward one tangent vector (2d,) or a stack (..., 2d) by the linear part, each as if alone."""
        v = np.asarray(v, dtype=float)
        rows, n = _rows(v)
        return (rows @ self.S.T)[:n].reshape(v.shape)

    def inverse(self) -> "AffineSymplectic":
        Sinv = np.linalg.solve(self.S, np.eye(self.S.shape[0]))
        return AffineSymplectic(Sinv, -Sinv @ self.b, _checked=True)

    def compose(self, other: "AffineSymplectic") -> "AffineSymplectic":
        """self after other: z -> self(other(z))."""
        return AffineSymplectic(self.S @ other.S, self.S @ other.b + self.b, _checked=True)


def normalize_lagrangian_pair(L1: AffineLagrangian, L2: AffineLagrangian) -> AffineSymplectic:
    """Affine symplectic map taking L1 to the x-subspace and L2 to the y-subspace.

    Requires the pair to be transverse (direction spaces meeting only in 0);
    the unique intersection point of the two affine subspaces goes to the
    origin. Raises :class:`DomainError` reporting the intersection dimension
    otherwise.
    """
    A, B = L1.basis, L2.basis
    dim = A.shape[1]
    d = dim // 2
    if A.shape[0] != d or B.shape[0] != d or B.shape[1] != dim:
        raise ValueError("the two subspaces must be Lagrangian (dimension d) in the same R^{2d}")
    stacked = np.vstack([A, B])
    rank = np.linalg.matrix_rank(stacked)
    if rank != dim:
        raise DomainError(f"subspaces are not transverse: directions intersect in dimension {dim - rank}")

    # Darboux pairing: rescale the second basis so omega(a_i, b'_j) = delta_ij.
    M = omega(A[:, None], B)
    Bp = np.linalg.solve(M.T, B)

    # columns (a_1..a_d, b'_1..b'_d) -> columns (e_x1..e_xd, e_y1..e_yd)
    P = np.column_stack([A.T, Bp.T])
    E = np.zeros((dim, dim))
    for i in range(d):
        E[2 * i, i] = 1.0
        E[2 * i + 1, d + i] = 1.0
    S = E @ np.linalg.inv(P)

    O = omega_matrix(dim)
    resid = np.max(np.abs(S.T @ O @ S - O))
    if resid > scale_tol(S):
        raise DomainError(f"normalization lost symplecticity (residual {resid:.3e}); pair too ill-conditioned")

    # unique intersection point: base1 + A^T s = base2 + B^T t
    rhs = L2.base - L1.base
    sol, *_ = np.linalg.lstsq(np.column_stack([A.T, -B.T]), rhs, rcond=None)
    z0 = L1.base + A.T @ sol[:d]
    return AffineSymplectic(S, -S @ z0, _checked=True)
