import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osbk
from osbk._pool import task_rng, task_uniform_blocks
from osbk.core import _distinct, _params_close, _row_norms, _rows, minimize_scalar, omega_matrix, scale_tol, solve_stack

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

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_stacks_round_as_one_vector_calls(self, dim):
        # a stack gives each row bit for bit, broadcast rows too
        rng = np.random.default_rng(dim)
        U = rng.normal(size=(50, 40, dim)) * 10.0 ** rng.uniform(-3, 3, size=(50, 40, 1))
        V = rng.normal(size=(50, 1, dim))
        got = osbk.omega(U, V)
        assert got.shape == (50, 40)
        assert got.tolist() == [[osbk.omega(u, v[0]) for u in Ui] for Ui, v in zip(U, V)]


class TestRowNorms:
    @pytest.mark.parametrize("width", range(2, 41))
    def test_rows_round_as_one_row_norm(self, width):
        rng = np.random.default_rng(width)
        X = rng.normal(size=(40, width)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
        assert _row_norms(X).tolist() == [float(np.linalg.norm(x)) for x in X]

    def test_stacks_and_strided_rows(self):
        # a broadcast difference stack and a strided view give each row bit for bit
        rng = np.random.default_rng(0)
        S = rng.normal(size=(6, 4, 2)) * 10.0 ** rng.uniform(-3, 3, size=(6, 4, 1))
        D = S[:, :, None] - S[:, None, :]
        assert _row_norms(D).shape == (6, 4, 4)
        assert _row_norms(D).tolist() == [[[float(np.linalg.norm(r)) for r in Dj] for Dj in Di] for Di in D]
        X = rng.normal(size=(30, 12))[:, ::3]
        assert _row_norms(X).tolist() == [float(np.linalg.norm(x)) for x in X]


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

    def test_error_names_first_bad_pair(self):
        # x1, x2, y1 + y2: pairs (0, 2) and (1, 2) both fail, (0, 2) comes first
        basis = [[1.0, 0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0], [0, 1.0, 0, 1.0, 0, 0]]
        with pytest.raises(ValueError, match=r"basis pair \(0,2\) is not isotropic: omega = 1\.000e\+00"):
            osbk.AffineLagrangian(np.zeros(6), basis)

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


class TestRowRule:
    """`_rows` computes a lone row as a row of a two-row gemm, so that every row of
    a stacked evaluation equals its one-point call. That rests on BLAS computing
    each row of a gemm alike whatever the row count. This canary checks it on the
    fixed matrices osbk multiplies rows by: the phase and order tables of the
    reference trig tables, plain and under a frame, and frames of R^2, R^4, R^6."""

    @staticmethod
    def fixed_matrices() -> list[np.ndarray]:
        rng = np.random.default_rng(53)
        mats = []
        for trig in (osbk.circle(), osbk.chebyshev_curve(), osbk.sphere_torus(),
                     osbk.SymplecticEllipsoid((1.0, 2.0)).to_immersion()):
            for T in (trig, trig.transformed(random_symplectic(trig.ambient_dim // 2, rng))):
                mats += [T._freq.T] + [T._order_table(k) for k in range(4)]
        return mats + [random_symplectic(d, rng).S.T for d in (1, 2, 3)]

    def test_gemm_rows_do_not_depend_on_the_row_count(self):
        rng = np.random.default_rng(59)
        differ = []
        for i, M in enumerate(self.fixed_matrices()):
            X = rng.uniform(-1.0, 1.0, (500, M.shape[0]))
            full = X @ M
            rows, n = _rows(X[:1])
            if not np.array_equal((rows @ M)[:n], full[:1]):
                differ.append((i, 1))
            differ += [(i, N) for N in range(2, 41) if not np.array_equal(X[:N] @ M, full[:N])]
        assert differ == []


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


class TestDedup:
    """The one rule by which step partners and orbits found twice merge."""

    def test_radius_is_strict_max_norm(self):
        A = np.array([[0.5, 1.0]])
        assert _params_close(A, A + [[9e-7, -9e-7]], angular=False, shifts=False)
        assert not _params_close(A, A + [[0.0, 2e-6]], angular=False, shifts=False)

    def test_cyclic_shift_merges_periodic_orbits_not_chains(self):
        U = np.array([[0.1, 0.2], [1.3, 0.4], [2.5, 0.6]])
        shifted = np.roll(U, 1, axis=0)
        assert _distinct(["orbit", "shifted"], [U, shifted], angular=True, shifts=True) == ["orbit"]
        assert _distinct(["chain", "shifted"], [U, shifted], angular=False, shifts=False) == ["chain", "shifted"]

    def test_first_of_each_cluster_kept_in_order(self):
        params = [np.array([[x]]) for x in (3.0, 1.0, 3.0 + 1e-7, 1.0 - 1e-7, 2.0)]
        assert _distinct(list("abcde"), params, angular=False, shifts=False) == ["a", "b", "e"]
        assert _distinct([], [], angular=True, shifts=True) == []
        assert _distinct(["x"], params[:1], angular=True, shifts=True) == ["x"]


class TestMinimizeScalar:
    """The in-repo bounded minimizer is a port of scipy's: results must be equal, not close."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(20)
        for _ in range(60):
            c = rng.normal(size=5)
            lo = float(rng.uniform(-4.0, 4.0))
            hi = lo + float(rng.uniform(1e-4, 5.0))
            yield (lambda x, c=c: c[0] * np.sin(c[1] * x + c[2]) + c[3] * x * x + c[4] * x), (lo, hi)
        yield (lambda x: (x - 0.3) ** 2), (0.3, 0.3)  # empty interval
        yield (lambda x: abs(x - 1.0)), (0.0, 2.0)  # kink at the minimum
        yield (lambda x: -x), (0.0, 1.0)  # minimum on the bound

    @pytest.mark.parametrize("xatol", [1e-5, 1e-12, 1e-13])
    def test_equal_to_scipy(self, xatol):
        opt = pytest.importorskip("scipy.optimize")
        for fun, bounds in self.cases():
            ref = opt.minimize_scalar(fun, bounds=bounds, method="bounded", options={"xatol": xatol})
            x, fx = minimize_scalar(fun, bounds, xatol=xatol)
            assert (x, fx) == (ref.x, ref.fun)

    def test_equal_to_scipy_at_the_maxiter_cap(self):
        opt = pytest.importorskip("scipy.optimize")
        calls = []

        def fun(x):
            calls.append(x)
            return np.cos(3.0 * x) + 0.1 * x

        for maxiter in (2, 3, 6):  # the first step always runs, so 2 calls is the fewest
            opts = {"xatol": 1e-13, "maxiter": maxiter}
            ref = opt.minimize_scalar(fun, bounds=(-2.0, 2.0), method="bounded", options=opts)
            assert ref.status == 1
            calls.clear()
            x, fx = minimize_scalar(fun, (-2.0, 2.0), xatol=1e-13, maxiter=maxiter)
            assert (x, fx) == (ref.x, ref.fun)
            assert len(calls) == maxiter

    def test_finds_interior_minimum(self):
        x, fx = minimize_scalar(lambda t: (t - 0.7) ** 2 + 1.0, (0.0, 2.0), xatol=1e-12)
        assert x == pytest.approx(0.7, abs=1e-7)  # the tolerance is xatol/3 + 1.5e-8 |x|
        assert fx == pytest.approx(1.0, abs=1e-15)
        assert type(x) is float

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t * t, bounds)


class TestTaskRng:
    @pytest.mark.parametrize("seed", [0, 1, 123456789, 2**64 + 5, 2**127 - 1, 2**127 + 3])
    @pytest.mark.parametrize("task", [0, 1, 17, 999_999, 2**70])
    def test_same_streams_as_jumped_philox(self, seed, task):
        ref = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)).jumped(task))
        rng = task_rng(seed, task)
        state, ref_state = rng.bit_generator.state["state"], ref.bit_generator.state["state"]
        for part in ("counter", "key"):
            np.testing.assert_array_equal(state[part], ref_state[part])
        for draw in (
            lambda g: g.uniform(-2.0, 2.0, 7),
            lambda g: g.normal(size=5),
            lambda g: g.integers(0, 1000, 9),
            lambda g: g.random(3),
        ):
            np.testing.assert_array_equal(draw(rng), draw(ref))

    @pytest.mark.parametrize("seed", [0, 123456789, 2**64 + 5, 2**127 + 3])
    def test_uniform_blocks_equal_task_rng_draws(self, seed):
        # classify draws Q then W, two doubles each, per attempt: one Philox block
        tasks = [0, 1, 17, 999_999, 2**70]
        for blocks in (0, 1, 5, [3, 0, 2, 1, 4]):
            got = task_uniform_blocks(seed, tasks, blocks, -2.0, 2.0)
            assert got.shape == (len(tasks), 4)
            for row, task, skip in zip(got, tasks, np.broadcast_to(blocks, (len(tasks),)).tolist()):
                rng = task_rng(seed, task)
                for _ in range(2 * skip):
                    rng.uniform(-2.0, 2.0, 2)
                np.testing.assert_array_equal(row, np.concatenate([rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)]))
        # multi-start searches draw a whole start point per task: the draw runs
        # on through the next blocks and re-keying empties the buffer it leaves
        for count in (1, 2, 5, 6, 9):
            for blocks in (0, 3, [3, 0, 2, 1, 4]):
                got = task_uniform_blocks(seed, tasks, blocks, -3.0, 1.5, count=count)
                assert got.shape == (len(tasks), count)
                for row, task, skip in zip(got, tasks, np.broadcast_to(blocks, (len(tasks),)).tolist()):
                    rng = task_rng(seed, task)
                    rng.uniform(-3.0, 1.5, 4 * skip)
                    np.testing.assert_array_equal(row, rng.uniform(-3.0, 1.5, count))

    def test_uniform_blocks_of_no_tasks(self):
        assert task_uniform_blocks(0, np.arange(0), 3, -1.0, 1.0).shape == (0, 4)


CIRCLE, CUBIC = osbk.spec_for(osbk.circle()), osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0}))


class TestCountArguments:
    """Start and trial counts below 1 raise a ValueError naming the argument."""

    CALLS = {
        "classify_cubic_table": ("trials", lambda k: osbk.classify_cubic_table(osbk.CubicForm2(0, 1, 1, 0), trials=k)),
        "find_periodic_orbit": ("starts", lambda k: osbk.find_periodic_orbit(CIRCLE, 3, starts=k)),
        "find_boundary_orbit": (
            "starts",
            lambda k: osbk.find_boundary_orbit(CIRCLE, *osbk.coordinate_lagrangian_pair(2), 2, starts=k),
        ),
        "search_even_periodic": ("starts", lambda k: osbk.search_even_periodic(CIRCLE, 4, starts=k)),
        "step_graph_numeric": ("starts", lambda k: osbk.step_graph_numeric(CUBIC, np.ones(4), starts=k)),
    }

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_count_below_one_rejected(self, call, count):
        name, fn = self.CALLS[call]
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {count}$"):
            fn(count)
