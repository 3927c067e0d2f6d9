"""Exact multivariate polynomials as coefficient maps.

A polynomial in n variables is a finite map exponent-tuple -> coefficient.
Differentiation is symbolic (exact on the coefficients), so gradient,
Hessian and third-derivative tensors of generating functions carry no
finite-difference noise. Every evaluation, of the value or of any derivative
order, goes through :meth:`Poly.partials`: one monomial table per order,
summed in a fixed sequential order, so a point gives the same bits alone and
as a row of a stack.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

import numpy as np


class Poly:
    """Immutable polynomial R^n -> R with exact coefficient arithmetic."""

    __slots__ = ("n", "terms", "_tables")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], float]) -> None:
        if n < 1:
            raise ValueError("need at least one variable")
        clean: dict[tuple[int, ...], float] = {}
        for exps, c in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != n or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exps} for {n} variables")
            c = float(c)
            if c != 0.0:
                clean[key] = clean.get(key, 0.0) + c
        clean = {k: v for k, v in clean.items() if v != 0.0}
        self.n = n
        self.terms = dict(sorted(clean.items()))
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def is_homogeneous(self, deg: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(k) for k in self.terms}
        if len(degs) != 1:
            return False
        return deg is None or degs == {deg}

    def __call__(self, q) -> float | np.ndarray:
        """Evaluate at a point (n,), giving a float, or a batch (..., n)."""
        return self.partials(q, 0)

    def _table(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Exponents (B, n) of the monomials in the order-th partials, and their coefficients (B, n^order).

        Partial (i, j, ...) is the exact ``diff`` chain over the sorted indices,
        so the tensor is symmetric bit for bit. Rows follow the sorted exponent
        tuples, the order of each partial's own ``terms``.
        """
        table = self._tables.get(order)
        if table is None:
            chains: dict[tuple[int, ...], Poly] = {(): self}
            for _ in range(order):
                chains = {k + (i,): p.diff(i) for k, p in chains.items() for i in range(k[-1] if k else 0, self.n)}
            parts = [chains[tuple(sorted(k))] for k in product(range(self.n), repeat=order)]
            rows = {e: b for b, e in enumerate(sorted({e for p in parts for e in p.terms}))}
            coeffs = np.zeros((len(rows), len(parts)))
            for k, p in enumerate(parts):
                for e, c in p.terms.items():
                    coeffs[rows[e], k] = c
            exps = np.array(list(rows), dtype=float).reshape(len(rows), self.n)
            exps.flags.writeable = coeffs.flags.writeable = False
            table = self._tables[order] = (exps, coeffs)
        return table

    def partials(self, q, order: int) -> float | np.ndarray:
        """All order-th partial derivatives at a point (n,) or a batch (..., n).

        Returns shape (..., n, ..., n) with ``order`` trailing axes (a float for
        order 0 at one point). The monomials are evaluated once and summed one
        after another, so each row of a batch equals its one-point call bit for bit.
        """
        q = np.asarray(q, dtype=float)
        if q.shape[-1] != self.n:
            raise ValueError(f"expected last axis {self.n}, got {q.shape}")
        exps, coeffs = self._table(order)
        terms = np.prod(q[..., None, :] ** exps, axis=-1)[..., :, None] * coeffs
        # a running sum from +0.0, not a BLAS product, whose summation order
        # depends on the batch size
        vals = np.zeros(q.shape[:-1] + coeffs.shape[1:])
        for b in range(len(coeffs)):
            vals += terms[..., b, :]
        vals = vals.reshape(q.shape[:-1] + (self.n,) * order)
        return float(vals) if order == 0 and q.ndim == 1 else vals

    def diff(self, i: int) -> "Poly":
        """Exact partial derivative in variable i."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range")
        out: dict[tuple[int, ...], float] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[key] = out.get(key, 0.0) + c * e
        return Poly(self.n, out)

    def __add__(self, other: "Poly") -> "Poly":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, 0.0) + v
        return Poly(self.n, merged)

    def scaled(self, a: float) -> "Poly":
        return Poly(self.n, {k: a * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.terms.items())))

    def __repr__(self) -> str:
        def mono(exps: tuple[int, ...]) -> str:
            parts = [f"q{i + 1}^{e}" if e > 1 else f"q{i + 1}" for i, e in enumerate(exps) if e]
            return "*".join(parts) or "1"

        body = " + ".join(f"{c:g}*{mono(e)}" for e, c in self.terms.items()) or "0"
        return f"Poly({self.n}, {body})"


def poly_from_pairs(n: int, pairs: Iterable[tuple[Iterable[int], float]]) -> Poly:
    """Build from [(exponents, coefficient), ...] pairs (the JSON encoding)."""
    return Poly(n, {tuple(int(e) for e in exps): float(c) for exps, c in pairs})

