from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from osbk import Poly, poly_from_pairs

from .oracles import fd_gradient

coeff = st.floats(-5.0, 5.0, allow_nan=False)


def cubic2(a, b, c, d):
    return Poly(2, {(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d})


# five terms in three variables with inexact coefficients: a BLAS dot and
# mat-vec round these sums differently
CUBIC3 = Poly(3, {(2, 1, 0): 0.7, (0, 1, 2): -1.3, (1, 1, 1): 2.1, (3, 0, 0): 0.3, (0, 0, 3): -0.9})


class TestEvaluation:
    def test_monomials(self):
        p = Poly(2, {(2, 1): 3.0})
        assert p(np.array([2.0, 5.0])) == 60.0
        assert Poly(1, {(0,): 7.0})(np.array([123.0])) == 7.0

    def test_batch_matches_scalar(self):
        pts = np.random.default_rng(1).normal(scale=2.0, size=(200, 3))
        assert all(CUBIC3(pts)[i] == CUBIC3(pts[i]) for i in range(200))
        for order in range(4):
            vals = CUBIC3.partials(pts, order)
            assert vals.shape == (200,) + (3,) * order
            for i in range(200):
                assert np.array_equal(vals[i], CUBIC3.partials(pts[i], order))
            # a batch of any shape gives the same bits
            assert np.array_equal(CUBIC3.partials(pts.reshape(10, 20, 3), order).reshape(vals.shape), vals)

    def test_zero_poly(self):
        z = Poly(3, {})
        assert z.degree == -1
        assert z(np.ones(3)) == 0.0
        assert z(np.ones((4, 3))).shape == (4,)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            cubic2(1, 0, 0, 0)(np.ones(3))

    def test_term_merging_and_zero_pruning(self):
        p = Poly(1, {(2,): 1.0}) + Poly(1, {(2,): -1.0})
        assert p.terms == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            Poly(0, {})
        with pytest.raises(ValueError):
            Poly(2, {(1, -1): 1.0})
        with pytest.raises(ValueError):
            Poly(2, {(1,): 1.0})


class TestCalculus:
    def test_diff_exact(self):
        p = Poly(2, {(3, 2): 4.0})
        dp = p.diff(0)
        assert dp.terms == {(2, 2): 12.0}
        assert p.diff(1).terms == {(3, 1): 8.0}
        assert Poly(1, {(0,): 5.0}).diff(0).terms == {}

    @given(coeff, coeff, coeff, coeff, st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, a, b, c, d, seed):
        p = cubic2(a, b, c, d)
        q = np.random.default_rng(seed).uniform(-2, 2, size=2)
        exact = p.partials(q, 1)
        approx = fd_gradient(p, q, h=1e-6)
        assert np.allclose(exact, approx, rtol=1e-5, atol=1e-5)

    def test_hessian_symmetric(self):
        p = Poly(3, {(2, 1, 0): 1.0, (0, 1, 2): -3.0, (1, 1, 1): 2.0})
        M = p.partials(np.array([0.3, -1.2, 0.7]), 2)
        assert M.shape == (3, 3)
        assert np.allclose(M, M.T)

    def test_third_tensor_constant_for_cubics(self):
        p = cubic2(1.0, 1.0, 0.0, 0.0)
        M = p.partials(np.zeros(2), 3)
        # F = q1^3 + q1^2 q2: F_111 = 6, F_112 = 2, F_122 = 0, F_222 = 0
        assert M[0][0][0] == 6.0
        assert M[0][0][1] == M[0][1][0] == M[1][0][0] == 2.0
        assert M[1][1][1] == 0.0

    @pytest.mark.parametrize(
        "p",
        [
            Poly(1, {(3,): 0.1, (1,): -2.0, (0,): 0.3}),
            Poly(2, {(4, 0): 0.1, (2, 1): 1.0, (1, 2): 1.0}),
            CUBIC3,
            Poly(3, {(0, 0, 0): 4.5}),
            Poly(2, {}),
        ],
        ids=["n1", "quartic", "cubic3", "constant", "zero"],
    )
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_partials_match_nested_diff(self, p, order):
        pts = np.random.default_rng(7).uniform(-2, 2, size=(4, p.n))
        stack = p.partials(pts, order)
        assert stack.shape == (4,) + (p.n,) * order
        for q, row in zip(pts, stack):
            got = p.partials(q, order)
            assert np.shape(got) == (p.n,) * order
            assert np.array_equal(got, row)
            for idx in product(range(p.n), repeat=order):
                # the table holds the diff chain over the sorted indices, which
                # sums the same monomials in the same order
                assert row[idx] == reduce(Poly.diff, sorted(idx), p)(q)
                assert row[idx] == pytest.approx(reduce(Poly.diff, idx, p)(q), rel=1e-14, abs=1e-14)

    def test_partials_validation(self):
        with pytest.raises(ValueError):
            CUBIC3.partials(np.ones(2), 1)
        with pytest.raises(ValueError):
            CUBIC3.partials(np.ones(3), -1)

    def test_diff_index_validation(self):
        with pytest.raises(ValueError):
            cubic2(1, 0, 0, 0).diff(2)


class TestStructure:
    def test_homogeneity(self):
        assert cubic2(1, 2, 3, 4).is_homogeneous(3)
        assert not cubic2(1, 2, 3, 4).is_homogeneous(2)
        mixed = Poly(2, {(3, 0): 1.0, (1, 0): 1.0})
        assert not mixed.is_homogeneous()
        assert Poly(2, {}).is_homogeneous()

    def test_degree(self):
        assert cubic2(0, 0, 1, 0).degree == 3
        assert Poly(2, {(0, 0): 2.0}).degree == 0

    def test_add_and_scale(self):
        p = cubic2(1, 0, 0, 0)
        q = cubic2(0, 0, 0, 2)
        s = (p + q).scaled(3.0)
        assert s.terms == {(3, 0): 3.0, (0, 3): 6.0}
        with pytest.raises(ValueError):
            p + Poly(3, {})

    def test_eq_and_hash(self):
        assert cubic2(1, 2, 0, 0) == cubic2(1, 2, 0, 0)
        assert cubic2(1, 2, 0, 0) != cubic2(1, 2, 0, 1)
        assert hash(cubic2(1, 0, 0, 1)) == hash(cubic2(1, 0, 0, 1))

    def test_from_pairs(self):
        p = poly_from_pairs(2, [((2, 1), 1.0), ((1, 2), 1.0)])
        assert p == Poly(2, {(2, 1): 1.0, (1, 2): 1.0})
