import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osbk
from osbk.variational import ORBIT_DEDUP, MidpointPolygon, _params_close, ambient_gradients, orbit_midpoints

from .conftest import random_symplectic
from .oracles import fd_gradient, fd_jacobian, shoelace_area

SQRT3 = np.sqrt(3.0)

odd_n = st.sampled_from([3, 5, 7, 9])
small_d = st.sampled_from([1, 2])


def random_polygon(n, d, seed):
    return np.random.default_rng(seed).uniform(-2, 2, size=(n, 2 * d))


class TestGenFunPeriodic:
    def test_frozen_triangle(self):
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert osbk.gen_fun_periodic(Q) == pytest.approx(2.0)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            osbk.gen_fun_periodic(np.zeros((4, 2)))

    @given(odd_n, small_d, st.integers(0, 2**32 - 1))
    def test_equals_area_of_reconstruction(self, n, d, seed):
        Q = random_polygon(n, d, seed)
        orbit = osbk.reconstruct_periodic(Q)
        scale = max(1.0, float(np.max(np.abs(orbit.vertices)) ** 2))
        assert abs(orbit.area - osbk.gen_fun_periodic(Q)) < 1e-9 * scale

    @given(odd_n, st.integers(0, 2**32 - 1))
    def test_cyclic_shift_invariance(self, n, seed):
        Q = random_polygon(n, 2, seed)
        assert osbk.gen_fun_periodic(np.roll(Q, 2, axis=0)) == pytest.approx(
            osbk.gen_fun_periodic(Q), rel=1e-12, abs=1e-12
        )


class TestGenFunBoundary:
    def test_frozen_single_point(self):
        assert osbk.gen_fun_boundary(np.array([[3.0, 2.0]])) == pytest.approx(12.0)

    def test_frozen_two_points(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert osbk.gen_fun_boundary(Q) == pytest.approx(0.0)

    @given(st.integers(1, 9), small_d, st.integers(0, 2**32 - 1))
    def test_equals_area_of_reconstruction(self, n, d, seed):
        Q = random_polygon(n, d, seed)
        chain = osbk.reconstruct_boundary(Q)
        scale = max(1.0, float(np.max(np.abs(chain.vertices)) ** 2))
        assert abs(chain.area - osbk.gen_fun_boundary(Q)) < 1e-9 * scale


class TestReconstruction:
    def test_frozen_periodic_triangle(self):
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        orbit = osbk.reconstruct_periodic(Q)
        assert np.allclose(orbit.vertices, [[-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        assert orbit.kind == "periodic"
        assert orbit.area == pytest.approx(2.0)

    def test_frozen_boundary_chains(self):
        single = osbk.reconstruct_boundary(np.array([[3.0, 2.0]]))
        assert np.allclose(single.vertices, [[6.0, 0.0], [0.0, 4.0]])
        double = osbk.reconstruct_boundary(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(double.vertices, [[2.0, 0.0], [0.0, 0.0], [0.0, 2.0]])

    @given(odd_n, small_d, st.integers(0, 2**32 - 1))
    def test_periodic_midpoints_round_trip(self, n, d, seed):
        Q = random_polygon(n, d, seed)
        orbit = osbk.reconstruct_periodic(Q)
        mids = orbit_midpoints(orbit.vertices, "periodic")
        assert np.allclose(mids, Q, atol=1e-9)

    @given(st.integers(1, 9), small_d, st.integers(0, 2**32 - 1))
    def test_boundary_chain_properties(self, n, d, seed):
        Q = random_polygon(n, d, seed)
        chain = osbk.reconstruct_boundary(Q)
        Z = chain.vertices
        assert Z.shape == (n + 1, 2 * d)
        # endpoints pinned to the coordinate Lagrangian subspaces
        assert np.max(np.abs(Z[0, 1::2])) < 1e-12
        assert np.max(np.abs(Z[-1, 0::2])) < 1e-12
        assert np.allclose(orbit_midpoints(Z, "boundary"), Q, atol=1e-9)

    def test_even_periodic_without_anchor_still_requires_closure(self):
        Q = random_polygon(4, 1, 0)
        with pytest.raises(osbk.ClosureError):
            osbk.reconstruct_periodic(Q)

    def test_even_periodic_generic_polygon_does_not_close(self):
        Q = random_polygon(4, 1, 1)
        assert np.linalg.norm(osbk.closure_defect(Q)) > 1e-6
        with pytest.raises(osbk.ClosureError) as exc:
            osbk.reconstruct_periodic(Q, z1=np.array([1.0, 0.0]))
        assert exc.value.defect is not None

    def test_even_periodic_closing_polygon_round_trips(self):
        Z = random_polygon(6, 2, 3)
        Q = orbit_midpoints(Z, "periodic")
        assert np.linalg.norm(osbk.closure_defect(Q)) < 1e-12
        orbit = osbk.reconstruct_periodic(Q, z1=Z[0])
        assert np.allclose(orbit.vertices, Z, atol=1e-9)


class TestSymplecticArea:
    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    def test_matches_shoelace_in_the_plane(self, n, seed):
        Z = random_polygon(n, 1, seed)
        assert osbk.symplectic_area(Z, "periodic") == pytest.approx(shoelace_area(Z), rel=1e-10, abs=1e-10)

    def test_boundary_excludes_closing_edge(self):
        Z = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert osbk.symplectic_area(Z, "boundary") == pytest.approx(2.0)

    def test_kind_required_for_raw_arrays(self):
        with pytest.raises(ValueError):
            osbk.symplectic_area(np.zeros((3, 2)))


class TestMakeOrbit:
    def test_degenerate_consecutive_midpoints(self):
        Z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        orbit = osbk.make_orbit(Z, "periodic")
        assert orbit.degenerate

    def test_degeneracy_threshold_scales_with_vertices(self):
        gap = 5.0e-7
        small = np.array([[1.0, 0.0], [1.001, 0.0], [1.0 + 2 * gap, 0.0]])
        big = small + 2000.0
        assert not osbk.make_orbit(small, "periodic").degenerate
        assert osbk.make_orbit(big, "periodic").degenerate

    def test_even_search_noise_gap_is_degenerate(self):
        # Chebyshev 4-orbit from even-search at seed 3181222872: the four midpoints
        # coincide to the sqrt(eps) accuracy a singular least-squares solve reaches.
        Z = np.array([
            [21.131695530873696, 22.543700013609577, -7.859326800928149, -1.9944289967431155],
            [-19.765664215934585, -24.004507477516345, 7.725368354322421, -0.001079744050314524],
            [21.13169550883014, 22.543699992996192, -7.859326861152519, -1.994428992700254],
            [-19.765664242464062, -24.004507502324607, 7.725368281842237, -0.0010797391847183757],
        ])
        assert osbk.make_orbit(Z, "periodic").degenerate


class TestGradients:
    @pytest.mark.parametrize("kind", ["periodic", "boundary"])
    def test_ambient_gradients_match_fd(self, kind):
        fun = osbk.gen_fun_periodic if kind == "periodic" else osbk.gen_fun_boundary
        n = 5 if kind == "periodic" else 4
        Q = random_polygon(n, 2, 17)
        g = ambient_gradients(Q, kind)
        for i in range(n):
            def fi(p, i=i):
                Q2 = Q.copy()
                Q2[i] = p
                return fun(Q2)

            assert np.allclose(g[i], fd_gradient(fi, Q[i]), atol=1e-6)

    @pytest.mark.parametrize("kind", ["periodic", "boundary"])
    def test_param_gradients_match_fd(self, circle_spec, kind):
        n = 3 if kind == "periodic" else 2
        rng = np.random.default_rng(23)
        U = rng.uniform(0, 2 * np.pi, size=(n, 1))
        poly = MidpointPolygon.from_params(circle_spec, U)
        fun = osbk.gen_fun_periodic if kind == "periodic" else osbk.gen_fun_boundary
        grads = osbk.grad_gen_fun(circle_spec, poly, kind)

        def f_of_params(flat):
            pts = np.array([circle_spec.embed(u) for u in flat.reshape(n, 1)])
            return fun(pts)

        fd = fd_gradient(f_of_params, U.ravel()).reshape(n, 1)
        for i in range(n):
            assert np.allclose(grads[i], fd[i], atol=1e-6)

    @pytest.mark.parametrize("kind", ["periodic", "boundary"])
    def test_stationarity_hessian_matches_fd(self, circle_spec, kind):
        n = 3 if kind == "periodic" else 2
        rng = np.random.default_rng(29)
        U = rng.uniform(0, 2 * np.pi, size=(n, 1))
        H = osbk.stationarity_hessian(circle_spec, U, kind)

        def grad_flat(flat):
            poly = MidpointPolygon.from_params(circle_spec, flat.reshape(n, 1))
            return np.concatenate(osbk.grad_gen_fun(circle_spec, poly, kind))

        Hfd = fd_jacobian(grad_flat, U.ravel())
        assert np.allclose(H, Hfd, atol=1e-5)
        assert np.allclose(H, H.T, atol=1e-9)


class TestStackedEvaluation:
    @pytest.mark.parametrize("kind", ["periodic", "boundary"])
    def test_stack_matches_one_polygon_at_a_time(self, torus_spec, kind):
        fun = osbk.gen_fun_periodic if kind == "periodic" else osbk.gen_fun_boundary
        P = np.random.default_rng(2).uniform(-2, 2, size=(5, 3, 4))
        assert isinstance(fun(P[0]), float)
        np.testing.assert_allclose(fun(P), [fun(p) for p in P], rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(
            ambient_gradients(P, kind), [ambient_gradients(p, kind) for p in P], rtol=1e-13, atol=1e-12
        )
        U = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(4, 3, 2))
        H = osbk.stationarity_hessian(torus_spec, U, kind)
        assert H.shape == (4, 6, 6)
        np.testing.assert_allclose(
            H, [osbk.stationarity_hessian(torus_spec, u, kind) for u in U], rtol=1e-13, atol=1e-12
        )


class TestStartIndependence:
    """Start i draws from task_rng(seed, i) whatever the start count, so a k-start
    search finds nothing that the 2k-start search at the same seed misses."""

    @staticmethod
    def assert_covered(small, large, angular, shifts):
        assert small.orbits
        for o in small.orbits:
            assert any(_params_close(o.params, p.params, angular, ORBIT_DEDUP, shifts) for p in large.orbits)

    @pytest.mark.parametrize("spec_name, k", [("circle_spec", 8), ("torus_spec", 8)])
    def test_periodic(self, request, spec_name, k):
        spec = request.getfixturevalue(spec_name)
        small = osbk.find_periodic_orbit(spec, 3, starts=k, seed=5)
        large = osbk.find_periodic_orbit(spec, 3, starts=2 * k, seed=5)
        self.assert_covered(small, large, spec.params_are_angles, shifts=True)

    def test_shoot(self, circle_spec):
        L1, L2 = osbk.coordinate_lagrangian_pair(2)
        small = osbk.find_boundary_orbit(circle_spec, L1, L2, 2, starts=12, seed=5)
        large = osbk.find_boundary_orbit(circle_spec, L1, L2, 2, starts=24, seed=5)
        self.assert_covered(small, large, True, shifts=False)


class TestPeriodicSearch:
    def test_circle_triangle_frozen(self, circle_spec):
        res = osbk.find_periodic_orbit(circle_spec, 3, starts=16, seed=0)
        assert not res.failed
        best = res.best
        assert best.value == pytest.approx(3.0 * SQRT3, abs=1e-9)
        assert best.grad_norm < 1e-7
        assert not best.orbit.degenerate
        assert best.orbit.max_residual < 1e-8

    def test_circle_min_mode_is_reflection(self, circle_spec):
        res = osbk.find_periodic_orbit(circle_spec, 3, starts=16, seed=0, mode="min")
        assert res.best.value == pytest.approx(-3.0 * SQRT3, abs=1e-9)

    def test_orbit_links_verify(self, circle_spec):
        best = osbk.find_periodic_orbit(circle_spec, 3, starts=16, seed=1).best
        Z = best.orbit.vertices
        n = Z.shape[0]
        for i in range(n):
            rep = osbk.verify_pair(circle_spec, Z[i], Z[(i + 1) % n], best.params[i])
            assert rep.midpoint_residual < 1e-8
            assert rep.orthogonality_residual < 1e-7

    def test_even_n_rejected(self, circle_spec):
        with pytest.raises(ValueError):
            osbk.find_periodic_orbit(circle_spec, 4)

    def test_n_one_rejected(self, circle_spec):
        with pytest.raises(ValueError):
            osbk.find_periodic_orbit(circle_spec, 1)

    def test_bad_mode_rejected(self, circle_spec):
        with pytest.raises(ValueError):
            osbk.find_periodic_orbit(circle_spec, 3, mode="widest")

    def test_flat_objective_detected(self, lagrangian_plane_curve):
        res = osbk.find_periodic_orbit(lagrangian_plane_curve, 3, starts=8, seed=0)
        assert res.flat_objective
        assert res.best is None

    def test_torus_orbit_exists(self, torus_spec):
        res = osbk.find_periodic_orbit(torus_spec, 3, starts=32, seed=0)
        assert not res.failed
        assert not res.best.orbit.degenerate
        assert res.best.grad_norm <= 1e-7 * max(1.0, abs(res.best.value))


class TestBoundarySearch:
    @pytest.mark.parametrize("n,value", [(1, 1.0), (2, 2.0 + 2.0 * np.sqrt(2.0))])
    def test_circle_coordinate_pair_frozen(self, circle_spec, n, value):
        L1, L2 = osbk.coordinate_lagrangian_pair(2)
        res = osbk.find_boundary_orbit(circle_spec, L1, L2, n, starts=24, seed=0)
        assert not res.failed
        assert res.best_max.value == pytest.approx(value, abs=1e-8)
        assert res.best_min.value == pytest.approx(-value, abs=1e-8)
        assert not res.best_max.orbit.degenerate
        assert not res.best_min.orbit.degenerate

    def test_chain_endpoints_on_lagrangians(self, circle_spec):
        L1, L2 = osbk.coordinate_lagrangian_pair(2)
        res = osbk.find_boundary_orbit(circle_spec, L1, L2, 2, starts=24, seed=0)
        Z = res.best_max.vertices_ambient
        assert abs(Z[0, 1]) < 1e-8
        assert abs(Z[-1, 0]) < 1e-8

    def test_symplectic_invariance_of_values(self, circle_spec):
        U = random_symplectic(1, np.random.default_rng(31))
        L1x, L2x = osbk.coordinate_lagrangian_pair(2)
        L1 = osbk.AffineLagrangian(U(L1x.base), L1x.basis @ U.S.T)
        L2 = osbk.AffineLagrangian(U(L2x.base), L2x.basis @ U.S.T)
        moved_spec = osbk.spec_for(circle_spec.table, transform=U)
        res = osbk.find_boundary_orbit(moved_spec, L1, L2, 1, starts=24, seed=0)
        assert not res.failed
        assert res.best_max.value == pytest.approx(1.0, abs=1e-7)
        # ambient endpoints lie on the moved Lagrangians
        Z = res.best_max.vertices_ambient
        for endpoint, L in ((Z[0], L1), (Z[-1], L2)):
            coef, *_ = np.linalg.lstsq(L.basis.T, endpoint - L.base, rcond=None)
            assert np.linalg.norm(L.basis.T @ coef - (endpoint - L.base)) < 1e-7

    def test_non_transverse_pair_rejected(self, circle_spec):
        L1, _ = osbk.coordinate_lagrangian_pair(2)
        with pytest.raises(osbk.DomainError):
            osbk.find_boundary_orbit(circle_spec, L1, L1, 1)


class TestGraphSearchBox:
    @pytest.mark.parametrize("seed", range(4))
    def test_orbits_lie_in_the_box(self, ft_spec, seed):
        # on q1^2 q2 + q1 q2^2 the ascent runs away to parameters near 1e22; such starts are rejected
        L1, L2 = osbk.coordinate_lagrangian_pair(4)
        lo, hi = ft_spec.box
        for res in (
            osbk.find_boundary_orbit(ft_spec, L1, L2, 2, starts=8, seed=seed),
            osbk.find_periodic_orbit(ft_spec, 3, starts=8, seed=seed),
        ):
            assert res.failed or all(np.all((lo <= o.params) & (o.params <= hi)) for o in res.orbits)


class TestEvenSearch:
    def test_circle_squares_found(self, circle_spec):
        res = osbk.search_even_periodic(circle_spec, 4, starts=48, seed=0)
        assert res.converged > 0
        assert len(res.nondegenerate) > 0
        areas = {round(f.orbit.area, 6) for f in res.nondegenerate}
        assert 4.0 in areas or -4.0 in areas

    def test_chebyshev_finds_only_degenerate(self, cheb_spec):
        res = osbk.search_even_periodic(cheb_spec, 4, starts=48, seed=0)
        assert len(res.nondegenerate) == 0
        assert res.converged > 0
        assert all(f.orbit.degenerate for f in res.orbits)

    def test_orbits_close_up(self, circle_spec):
        res = osbk.search_even_periodic(circle_spec, 4, starts=16, seed=2)
        for f in res.orbits:
            mids = orbit_midpoints(f.orbit.vertices, "periodic")
            assert np.linalg.norm(osbk.closure_defect(mids)) < 1e-6

    def test_odd_n_rejected(self, circle_spec):
        with pytest.raises(ValueError):
            osbk.search_even_periodic(circle_spec, 3)
