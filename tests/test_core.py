import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osbk
from osbk.core import omega_matrix, omega_pairwise, scale_tol, solve_stack

from .conftest import random_symplectic

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


class TestOmega:
    def test_plane_unit_vectors(self):
        assert osbk.omega([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert osbk.omega([0.0, 1.0], [1.0, 0.0]) == -1.0
        assert osbk.omega([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_interleaved_pairing(self):
        # x1 pairs with y1, never with y2
        e_x1 = np.array([1.0, 0, 0, 0])
        e_y1 = np.array([0, 1.0, 0, 0])
        e_y2 = np.array([0, 0, 0, 1.0])
        assert osbk.omega(e_x1, e_y1) == 1.0
        assert osbk.omega(e_x1, e_y2) == 0.0

    @given(vectors(6), vectors(6))
    def test_antisymmetry(self, u, v):
        assert osbk.omega(u, v) == pytest.approx(-osbk.omega(v, u), abs=1e-9)

    @given(vectors(4), vectors(4), vectors(4), finite)
    def test_linearity(self, u, v, w, a):
        lhs = osbk.omega(u + a * v, w)
        rhs = osbk.omega(u, w) + a * osbk.omega(v, w)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)

    @given(vectors(4), vectors(4))
    def test_omega_is_Ju_dot_v(self, u, v):
        assert osbk.omega(u, v) == pytest.approx(float(osbk.apply_J(u) @ v), rel=1e-12, abs=1e-9)

    @given(vectors(4), vectors(4))
    def test_matches_matrix_form(self, u, v):
        O = omega_matrix(4)
        assert osbk.omega(u, v) == pytest.approx(float(u @ O @ v), rel=1e-12, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            osbk.omega([1.0, 0.0], [1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            osbk.omega([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(0)
        U = rng.normal(size=(7, 6))
        V = rng.normal(size=(7, 6))
        rows = omega_pairwise(U, V)
        for i in range(7):
            assert rows[i] == pytest.approx(osbk.omega(U[i], V[i]), rel=1e-12)


class TestJ:
    @given(vectors(6))
    def test_J_squared_is_minus_identity(self, v):
        assert np.allclose(osbk.apply_J(osbk.apply_J(v)), -v)

    def test_quarter_turn(self):
        assert np.allclose(osbk.apply_J([1.0, 0.0]), [0.0, 1.0])
        assert np.allclose(osbk.apply_J([0.0, 1.0]), [-1.0, 0.0])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            osbk.apply_J([1.0, 2.0, 3.0])


class TestLayout:
    @given(vectors(3), vectors(3))
    def test_interleave_split_round_trip(self, x, y):
        v = osbk.interleave(x, y)
        xs, ys = osbk.split_xy(v)
        assert np.array_equal(xs, x)
        assert np.array_equal(ys, y)

    def test_interleave_order(self):
        v = osbk.interleave([1.0, 2.0], [10.0, 20.0])
        assert np.array_equal(v, [1.0, 10.0, 2.0, 20.0])

    def test_as_phase_vector_validation(self):
        with pytest.raises(ValueError):
            osbk.as_phase_vector([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            osbk.as_phase_vector([np.nan, 0.0])
        with pytest.raises(ValueError):
            osbk.as_phase_vector([[1.0, 2.0]])
        out = osbk.as_phase_vector([1, 2])
        assert out.dtype == float


class TestSymplecticComplement:
    def test_line_in_plane(self):
        # complement of a line in R^2 is the line itself
        C = osbk.symplectic_complement([[2.0, 0.0]])
        assert C.shape == (1, 2)
        assert abs(osbk.omega(C[0], [2.0, 0.0])) < 1e-12

    def test_dimension_count(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(2, 6))
        C = osbk.symplectic_complement(B)
        assert C.shape == (4, 6)
        for c in C:
            for b in B:
                assert abs(osbk.omega(c, b)) < 1e-9

    def test_lagrangian_subspace_is_self_complementary(self):
        # span(e_x1, e_x2) in R^4
        B = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        C = osbk.symplectic_complement(B)
        assert C.shape == (2, 4)
        # same span: stacking does not raise the rank
        assert np.linalg.matrix_rank(np.vstack([B, C])) == 2

    def test_dependent_input_rejected(self):
        with pytest.raises(ValueError, match="vector 1"):
            osbk.symplectic_complement([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])


class TestAffineLagrangian:
    def test_coordinate_plane_accepted(self):
        L = osbk.AffineLagrangian(np.zeros(4), [[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        assert L.dim == 2

    def test_non_isotropic_rejected(self):
        with pytest.raises(ValueError, match="isotropic"):
            osbk.AffineLagrangian(np.zeros(4), [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            osbk.AffineLagrangian(np.zeros(4), [[1.0, 0, 0, 0], [1.0, 0, 0, 0]])


class TestAffineSymplectic:
    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            osbk.AffineSymplectic(2.0 * np.eye(2), np.zeros(2))

    def test_identity(self):
        T = osbk.AffineSymplectic.identity(4)
        z = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(T(z), z)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_inverse_round_trip(self, d, seed):
        rng = np.random.default_rng(seed)
        T = random_symplectic(d, rng)
        z = rng.normal(size=2 * d)
        assert np.allclose(T.inverse()(T(z)), z, atol=1e-8)

    @given(st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_compose_is_application_order(self, d, seed):
        rng = np.random.default_rng(seed)
        T1 = random_symplectic(d, rng)
        T2 = random_symplectic(d, rng)
        z = rng.normal(size=2 * d)
        assert np.allclose(T1.compose(T2)(z), T1(T2(z)), atol=1e-8)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_preserves_omega(self, d, seed):
        rng = np.random.default_rng(seed)
        T = random_symplectic(d, rng)
        u = rng.normal(size=2 * d)
        v = rng.normal(size=2 * d)
        lhs = osbk.omega(T.apply_vector(u), T.apply_vector(v))
        assert lhs == pytest.approx(osbk.omega(u, v), rel=1e-8, abs=1e-8)


class TestNormalizeLagrangianPair:
    def test_coordinate_pair_gives_identity(self):
        L1, L2 = osbk.coordinate_lagrangian_pair(4)
        T = osbk.normalize_lagrangian_pair(L1, L2)
        assert np.allclose(T.S, np.eye(4))
        assert np.allclose(T.b, 0.0)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_random_pair_normalizes(self, d, seed):
        rng = np.random.default_rng(seed)
        U = random_symplectic(d, rng)
        L1x, L2x = osbk.coordinate_lagrangian_pair(2 * d)
        L1 = osbk.AffineLagrangian(U(L1x.base), L1x.basis @ U.S.T)
        L2 = osbk.AffineLagrangian(U(L2x.base), L2x.basis @ U.S.T)
        T = osbk.normalize_lagrangian_pair(L1, L2)
        # points of L1 land in the x-subspace, points of L2 in the y-subspace
        for s in (-1.0, 0.4, 2.0):
            p1 = T(L1.base + s * L1.basis.sum(axis=0))
            p2 = T(L2.base + s * L2.basis.sum(axis=0))
            assert np.max(np.abs(p1[1::2])) < 1e-7 * max(1.0, np.max(np.abs(p1)))
            assert np.max(np.abs(p2[0::2])) < 1e-7 * max(1.0, np.max(np.abs(p2)))

    def test_non_transverse_pair_rejected(self):
        base = np.zeros(4)
        B = [[1.0, 0, 0, 0], [0, 0, 1.0, 0]]
        L = osbk.AffineLagrangian(base, B)
        with pytest.raises(osbk.DomainError, match="transverse"):
            osbk.normalize_lagrangian_pair(L, L)


class TestScaleTol:
    def test_floor_is_one(self):
        assert scale_tol(np.array([0.5])) == pytest.approx(1e-10)

    def test_scales_with_magnitude(self):
        assert scale_tol(np.array([2000.0])) == pytest.approx(2e-7)


class TestSolveStack:
    def test_singular_system_gets_least_squares(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 3, 3))
        A[2] = np.outer([1.0, 2.0, -1.0], [0.5, 1.0, 3.0])  # rank 1
        b = rng.normal(size=(5, 3))
        x, singular = solve_stack(A, b, 1e-10)
        assert singular.tolist() == [False, False, True, False, False]
        np.testing.assert_array_equal(x[2], np.linalg.lstsq(A[2], b[2], rcond=None)[0])
        for k in (0, 1, 3, 4):
            np.testing.assert_allclose(x[k], np.linalg.solve(A[k], b[k]), rtol=1e-13, atol=1e-13)

    def test_threshold_is_relative_to_the_largest_singular_value(self):
        A = np.array([np.diag([1e6, 1e-3]), np.diag([1.0, 1e-3])])
        _, singular = solve_stack(A, np.ones((2, 2)), 1e-8)
        assert singular.tolist() == [True, False]
