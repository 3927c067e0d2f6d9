"""Linear symplectic algebra on R^{2d} in interleaved coordinates.

Points are plain float arrays of even length, interleaved as
(x1, y1, ..., xd, yd). The symplectic form is

    omega(u, v) = sum_i (u_{x_i} v_{y_i} - u_{y_i} v_{x_i}),

and J is the per-pair quarter turn (x, y) -> (-y, x), so that
omega(u, v) = <J u, v> with the Euclidean inner product and J^2 = -Id.

The q-block/p-block layout used by Lagrangian-graph tables is converted at
that module's boundary via :func:`interleave` / :func:`split_xy`; signed
areas everywhere use the single convention above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

GEOMETRIC_TOL = 1e-10


def as_phase_vector(v) -> np.ndarray:
    """Validate and return a finite float vector of even length >= 2."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or arr.size % 2 != 0:
        raise ValueError(f"phase vector must be 1-d of even length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phase vector has non-finite entries")
    return arr


def scale_tol(*arrays, tol: float = GEOMETRIC_TOL) -> float:
    """Absolute tolerance scaled by the largest input magnitude (floor 1)."""
    m = 1.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            m = max(m, float(np.max(np.abs(a))))
    return tol * m


def omega(u, v) -> float:
    """The standard symplectic form of two interleaved vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2:
        raise ValueError(f"omega needs two equal even-dimensional vectors, got {u.shape} and {v.shape}")
    return float(u[0::2] @ v[1::2] - u[1::2] @ v[0::2])


def omega_pairwise(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-by-row omega of two stacks of vectors, shape (n, 2d) each -> (n,)."""
    return np.einsum("ij,ij->i", U[:, 0::2], V[:, 1::2]) - np.einsum(
        "ij,ij->i", U[:, 1::2], V[:, 0::2]
    )


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
    """Per-pair rotation (x, y) -> (-y, x); omega(u, v) = <J u, v>."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size % 2:
        raise ValueError("J needs an even-dimensional vector")
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


def interleave(x, y) -> np.ndarray:
    """Assemble (x1, y1, ..., xd, yd) from the x-block and y-block."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("blocks must be 1-d and of equal length")
    out = np.empty(2 * x.size)
    out[0::2] = x
    out[1::2] = y
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
    A = np.array([apply_J(b) for b in B])
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
        tol = scale_tol(B)
        for i in range(B.shape[0]):
            for j in range(i + 1, B.shape[0]):
                w = omega(B[i], B[j])
                if abs(w) > tol:
                    raise ValueError(f"basis pair ({i},{j}) is not isotropic: omega = {w:.3e}")
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
        """Image of one point (2d,) or of a stack of points (N, 2d)."""
        return np.asarray(z, dtype=float) @ self.S.T + self.b

    def apply_vector(self, v) -> np.ndarray:
        """Push forward a tangent vector (linear part only)."""
        return self.S @ np.asarray(v, dtype=float)

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
    M = np.array([[omega(a, b) for b in B] for a in A])
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
