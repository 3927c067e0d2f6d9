import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osbk

from .conftest import random_symplectic

SQRT3 = np.sqrt(3.0)


class TestReflect:
    def test_point_reflection(self):
        z = np.array([1.0, 2.0])
        Q = np.array([0.0, 0.5])
        assert np.allclose(osbk.reflect(z, Q), [-1.0, -1.0])

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_involution(self, vals):
        z = np.array(vals)
        Q = np.array([0.3, -0.1, 2.0, 1.0])
        assert np.allclose(osbk.reflect(osbk.reflect(z, Q), Q), z, atol=1e-9)


class TestOrthogonalityResidual:
    def test_symplectically_orthogonal_chord(self):
        # chord along x1 vs tangent along x1: omega = 0
        delta = np.array([2.0, 0.0, 0.0, 0.0])
        rows = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert osbk.orthogonality_residual(delta, rows) == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_directions_detected(self):
        # residual is normalized by |delta| |row|
        delta = np.array([2.0, 0.0])
        rows = np.array([[0.0, 1.0]])
        assert osbk.orthogonality_residual(delta, rows) == pytest.approx(1.0)
        assert osbk.orthogonality_residual(delta, 5.0 * rows) == pytest.approx(1.0)


class TestCurveScan:
    def test_circle_exterior_point_two_roots(self):
        scan = osbk.scan_curve_roots(osbk.circle(), np.array([2.0, 0.0]))
        assert scan.sign_change_count == 2
        ts = sorted(r.t for r in scan.roots)
        # omega(gamma - z, gamma') = 1 - 2 cos t: roots at +-pi/3
        assert ts == pytest.approx([np.pi / 3, 5 * np.pi / 3], abs=1e-9)
        assert not any(r.tangential for r in scan.roots)

    def test_interior_point_no_roots(self):
        scan = osbk.scan_curve_roots(osbk.circle(), np.array([0.1, 0.0]))
        assert scan.sign_change_count == 0

    def test_on_curve_point_has_tangential_root(self):
        g = osbk.circle()
        z = g.deriv(0.5, 0)
        scan = osbk.scan_curve_roots(g, z)
        assert any(r.tangential for r in scan.roots)
        tang = [r.t for r in scan.roots if r.tangential]
        assert min(abs(t - 0.5) for t in tang) < 1e-5

    def test_grid_history_recorded(self):
        scan = osbk.scan_curve_roots(osbk.circle(), np.array([3.0, 1.0]), grid=64)
        assert scan.history[0][0] == 64
        assert scan.history[-1][1] == scan.sign_change_count


class TestCircleStep:
    def test_forward_frozen_values(self):
        cands = osbk.step_curve(osbk.circle(), np.array([2.0, 0.0]))
        partners = sorted((round(c.partner[0], 9), round(c.partner[1], 9)) for c in cands)
        assert len(cands) == 2
        assert partners[0] == pytest.approx((-1.0, -SQRT3), abs=1e-9)
        assert partners[1] == pytest.approx((-1.0, SQRT3), abs=1e-9)
        for c in cands:
            assert c.residual < 1e-10
            assert not c.degenerate

    def test_agrees_with_closed_form(self):
        # the unit circle is the d = 1 ellipsoid; the root-scan route and the
        # closed-form route must produce the same two partners
        z = np.array([2.0, 0.0])
        curve_partners = {tuple(np.round(c.partner, 10)) for c in osbk.step_curve(osbk.circle(), z)}
        ell = osbk.SymplecticEllipsoid((1.0,))
        ell_partners = {
            tuple(np.round(osbk.step_ellipsoid(ell, z, branch=b).partner, 10)) for b in (+1, -1)
        }
        assert curve_partners == ell_partners

    def test_candidate_reports_midpoint_on_curve(self):
        for c in osbk.step_curve(osbk.circle(), np.array([2.0, 0.0])):
            assert np.linalg.norm(c.midpoint) == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(0.5 * (np.array([2.0, 0.0]) + c.partner), c.midpoint, atol=1e-9)

    def test_on_curve_start_flags_degenerate(self):
        g = osbk.circle()
        cands = osbk.step_curve(g, g.deriv(0.25, 0))
        assert any(c.degenerate or c.on_wall for c in cands)


class TestEllipsoidStep:
    def test_frozen_d1(self):
        ell = osbk.SymplecticEllipsoid((1.0,))
        c = osbk.step_ellipsoid(ell, np.array([2.0, 0.0]), branch=+1)
        assert np.allclose(c.partner, [-1.0, -SQRT3], atol=1e-12)
        assert np.allclose(c.midpoint, [0.5, -SQRT3 / 2], atol=1e-12)
        c2 = osbk.step_ellipsoid(ell, np.array([2.0, 0.0]), branch=-1)
        assert np.allclose(c2.partner, [-1.0, SQRT3], atol=1e-12)

    def test_midpoint_on_level_set_and_residual(self, ell2):
        rng = np.random.default_rng(0)
        z = np.array([2.0, 0.3, -1.0, 2.5])
        for branch in (+1, -1):
            c = osbk.step_ellipsoid(ell2, z, branch=branch)
            assert ell2.level(c.midpoint) == pytest.approx(1.0, abs=1e-10)
            rep = osbk.verify_pair(osbk.spec_for(ell2), z, c.partner, c.midpoint_param)
            assert rep.midpoint_residual < 1e-9
            assert rep.orthogonality_residual < 1e-9

    def test_interior_point_rejected(self, ell2):
        with pytest.raises(osbk.DomainError):
            osbk.step_ellipsoid(ell2, np.array([0.1, 0.0, 0.0, 0.0]))

    def test_point_on_surface_rejected(self, ell2):
        with pytest.raises(osbk.DomainError):
            osbk.step_ellipsoid(ell2, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_branches_are_inverse_of_each_other(self, ell2):
        z = np.array([1.5, 0.5, 1.0, -2.0])
        fwd = osbk.step_ellipsoid(ell2, z, branch=+1).partner
        back = osbk.step_ellipsoid(ell2, fwd, branch=-1).partner
        assert np.allclose(back, z, atol=1e-9)

    def test_pair_norms_conserved(self):
        ell = osbk.SymplecticEllipsoid((0.8, 1.7, 2.9))
        z = np.array([2.0, 0.1, -1.3, 0.4, 0.2, 1.9])
        orbit = osbk.iterate_ellipsoid(ell, z, steps=100)
        pairs0 = z[0::2] ** 2 + z[1::2] ** 2
        for row in orbit:
            pairs = row[0::2] ** 2 + row[1::2] ** 2
            assert np.allclose(pairs, pairs0, rtol=1e-11, atol=1e-11)

    def test_iterate_shape_and_start(self, ell2):
        z = np.array([2.0, 0.0, 0.0, 1.8])
        orbit = osbk.iterate_ellipsoid(ell2, z, steps=5)
        assert orbit.shape == (6, 4)
        assert np.array_equal(orbit[0], z)


class TestIterate:
    @pytest.mark.parametrize("branch", [1, -1])
    def test_circle_curve_route_matches_ellipsoid_route(self, branch):
        # the unit circle is the d = 1 ellipsoid; a curve's +1 moves along gamma',
        # the ellipsoid's +1 takes the positive root t, which is the other sense
        z = np.array([2.0, 0.3])
        curve = osbk.iterate(osbk.circle(), z, 6, branch=branch)
        ell = osbk.iterate(osbk.SymplecticEllipsoid((1.0,)), z, 6, branch=-branch)
        assert curve.shape == (7, 2)
        assert np.allclose(curve, ell, rtol=0.0, atol=1e-9)

    def test_ellipsoid_frame_equivariance(self, ell2):
        T = random_symplectic(2, np.random.default_rng(21))
        z = np.array([2.0, 0.3, -1.0, 2.5])
        plain = osbk.iterate(osbk.spec_for(ell2), z, 8)
        moved = osbk.iterate(osbk.spec_for(ell2, T), T(z), 8)
        assert np.allclose(moved, T(plain), rtol=0.0, atol=1e-9)
        assert np.array_equal(plain, osbk.iterate_ellipsoid(ell2, z, 8))

    def test_failures(self, circle_spec, torus_spec, ft_spec):
        with pytest.raises(osbk.SearchFailedError, match="after 0 steps"):
            osbk.iterate(circle_spec, np.array([0.1, 0.0]), 3)
        for spec, z in ((torus_spec, np.full(4, 3.0)), (ft_spec, np.ones(4))):
            with pytest.raises(ValueError, match="iterate supports"):
                osbk.iterate(spec, z, 3)
        with pytest.raises(ValueError, match="branch"):
            osbk.iterate(circle_spec, np.array([2.0, 0.0]), 3, branch=0)


class TestCubicGraphStep:
    def test_frozen_two_candidates(self, ft_graph):
        z = np.array([1.0, 0.0, 0.0, 0.0])
        cands = osbk.step_cubic_graph(ft_graph, z)
        partners = sorted(tuple(np.round(c.partner, 9)) for c in cands)
        assert partners[0] == pytest.approx((-1.0, 0.0, 0.0, 0.0), abs=1e-9)
        assert partners[1] == pytest.approx((3.0, 0.0, 0.0, 8.0), abs=1e-9)

    def test_pairs_verify(self, ft_graph, ft_spec):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.uniform(-2, 2, size=4)
            for c in osbk.step_cubic_graph(ft_graph, z):
                rep = osbk.verify_pair(ft_spec, z, c.partner, c.midpoint_param)
                assert rep.midpoint_residual < 1e-8
                assert rep.orthogonality_residual < 1e-7

    def test_numeric_route_agrees(self, ft_graph):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rng.uniform(-1.5, 1.5, size=4)
            exact = {tuple(np.round(c.partner, 6)) for c in osbk.step_cubic_graph(ft_graph, z)}
            numeric = {tuple(np.round(c.partner, 6)) for c in osbk.step_graph_numeric(ft_graph, z)}
            assert exact == numeric

    def test_numeric_route_on_nonhomogeneous_graph(self):
        g = osbk.GeneratingGraph(osbk.Poly(2, {(3, 0): 1.0, (1, 1): 1.0, (0, 4): 0.25}), box=(-4, 4))
        spec = osbk.spec_for(g)
        # build a start with a known partner: midpoint m on the graph, chord
        # (u, H(m) u), which is omega-orthogonal to every tangent (e, H e)
        m = np.array([0.9, -0.4])
        u = np.array([0.6, -0.3])
        delta = osbk.interleave(u, g.hess(m) @ u)
        z = g.embed(m) - 0.5 * delta
        expected_partner = g.embed(m) + 0.5 * delta
        cands = osbk.step_graph_numeric(g, z, starts=128, seed=1)
        assert cands, "expected at least one partner for a constructed valid start"
        best = min(np.linalg.norm(c.partner - expected_partner) for c in cands)
        assert best < 1e-7
        for c in cands:
            rep = osbk.verify_pair(spec, z, c.partner, c.midpoint_param)
            assert rep.midpoint_residual < 1e-7
            assert rep.orthogonality_residual < 1e-6

    def test_numeric_partners_are_conic_partners(self):
        # the Newton route may miss a partner, but everything it finds the exact route finds too
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(24):
            a, b, c, d = rng.normal(size=4)
            g = osbk.GeneratingGraph(osbk.Poly(2, {(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d}))
            spec = osbk.spec_for(g)
            z = rng.uniform(-1.5, 1.5, size=4)
            exact = [c.partner for c in osbk.step_cubic_graph(g, z)]
            for cand in osbk.step_graph_numeric(g, z, starts=32, seed=3):
                assert min(np.max(np.abs(cand.partner - p)) for p in exact) <= 1e-9
                rep = osbk.verify_pair(spec, z, cand.partner, cand.midpoint_param)
                assert rep.midpoint_residual <= 1e-8
                assert rep.orthogonality_residual <= 1e-8
                found += 1
        assert found >= 24

    @pytest.mark.parametrize("seed", range(3))
    def test_fewer_starts_find_a_subset(self, ft_graph, seed):
        # start i draws from task_rng(seed, i) whatever the start count
        g = osbk.GeneratingGraph(osbk.Poly(2, {(3, 0): 1.0, (1, 1): 1.0, (0, 4): 0.25}), box=(-4, 4))
        m, u = np.array([0.9, -0.4]), np.array([0.6, -0.3])  # a start with a known partner, as above
        z_g = g.embed(m) - 0.5 * osbk.interleave(u, g.hess(m) @ u)
        z_ft = np.random.default_rng(seed).uniform(-1.5, 1.5, size=4)
        for graph, z in ((ft_graph, z_ft), (g, z_g)):
            few = osbk.step_graph_numeric(graph, z, starts=16, seed=seed)
            many = osbk.step_graph_numeric(graph, z, starts=64, seed=seed)
            assert few
            for c in few:
                assert min(np.max(np.abs(c.partner - p.partner)) for p in many) <= 1e-9

    def test_quadratic_graph_is_walled_or_empty(self):
        g = osbk.GeneratingGraph(osbk.Poly(2, {(2, 0): 1.0, (0, 2): 1.0}))
        # W = 2Q: the defining equations hold identically in q, nothing isolated
        z_on = np.array([1.0, 2.0, 0.0, 0.0])
        cands = osbk.step_graph_numeric(g, z_on, starts=16)
        assert all(c.on_wall for c in cands)
        # W != 2Q: no solutions at all
        z_off = np.array([1.0, 0.0, 0.0, 0.0])
        assert osbk.step_graph_numeric(g, z_off, starts=16) == []

    def test_non_cubic_rejected_by_exact_route(self):
        quartic = osbk.GeneratingGraph(osbk.Poly(2, {(4, 0): 1.0}))
        with pytest.raises(ValueError):
            osbk.step_cubic_graph(quartic, np.zeros(4))


class TestStepDispatcher:
    def test_curve_spec(self, circle_spec):
        cands = osbk.step(circle_spec, np.array([2.0, 0.0]))
        assert len(cands) == 2

    def test_ellipsoid_spec_uses_branch(self, ell2):
        spec = osbk.spec_for(ell2)
        z = np.array([2.0, 0.3, -1.0, 2.5])
        c1 = osbk.step(spec, z, branch=+1)
        c2 = osbk.step(spec, z, branch=-1)
        assert len(c1) == 1 and len(c2) == 1
        assert not np.allclose(c1[0].partner, c2[0].partner)

    def test_graph_spec(self, ft_spec):
        cands = osbk.step(ft_spec, np.array([1.0, 0.0, 0.0, 0.0]))
        assert len(cands) == 2

    def test_trig_surface_rejected(self, torus_spec):
        with pytest.raises(ValueError):
            osbk.step(torus_spec, np.ones(4))

    def test_transform_equivariance_curve(self, circle_spec):
        T = random_symplectic(1, np.random.default_rng(12))
        spec_t = osbk.spec_for(circle_spec.table, transform=T)
        z = np.array([2.0, 0.0])
        base = np.array(sorted(tuple(T(c.partner)) for c in osbk.step(circle_spec, z)))
        moved = np.array(sorted(tuple(c.partner) for c in osbk.step(spec_t, T(z))))
        assert np.allclose(base, moved, atol=1e-7)

    def test_transform_equivariance_ellipsoid(self, ell2):
        T = random_symplectic(2, np.random.default_rng(13))
        z = np.array([2.0, 0.3, -1.0, 2.5])
        plain = osbk.step_ellipsoid(ell2, z, branch=+1).partner
        moved = osbk.step(osbk.spec_for(ell2, transform=T), T(z), branch=+1)
        assert len(moved) == 1
        assert np.allclose(moved[0].partner, T(plain), atol=1e-8)


class TestVerifyPair:
    def test_clean_pair(self, circle_spec):
        z = np.array([2.0, 0.0])
        zp = np.array([-1.0, SQRT3])
        rep = osbk.verify_pair(circle_spec, z, zp, np.array([np.pi / 3]))
        assert rep.midpoint_residual < 1e-12
        assert rep.orthogonality_residual < 1e-12

    def test_bad_pair_reports_large_residual(self, circle_spec):
        z = np.array([2.0, 0.0])
        zp = np.array([0.0, 2.0])
        rep = osbk.verify_pair(circle_spec, z, zp, np.array([0.0]))
        assert rep.midpoint_residual > 1e-2
