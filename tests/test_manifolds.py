import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osbk
from osbk.core import NOISE_ULPS, omega
from osbk.manifolds import trig_product

from .conftest import random_symplectic
from .oracles import fd_gradient, fd_jacobian

angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


class TestTrigImmersion:
    @pytest.mark.parametrize("coeffs", [((), ()), ((((1,), 0.0, 0.0),), (((1,), 0.0, 0.0), ((2,), 0.0, -0.0)))])
    def test_table_without_a_nonzero_term_rejected(self, coeffs):
        with pytest.raises(ValueError, match="no nonzero term"):
            osbk.TrigImmersion(1, coeffs)

    @given(angles)
    def test_circle_closed_form(self, t):
        c = osbk.circle(2.5)
        u = np.array([t])
        assert np.allclose(c.value(u), [2.5 * np.cos(t), 2.5 * np.sin(t)], atol=1e-12)
        assert np.allclose(c.jacobian(u).ravel(), [-2.5 * np.sin(t), 2.5 * np.cos(t)], atol=1e-12)

    @given(angles)
    def test_chebyshev_closed_form(self, t):
        g = osbk.chebyshev_curve()
        v = g.value(np.array([t]))
        assert np.allclose(v, [np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], atol=1e-12)

    @given(angles, angles)
    def test_sphere_torus_closed_form(self, a, b):
        s = osbk.sphere_torus()
        v = s.value(np.array([a, b]))
        expect = [
            np.cos(a) * np.cos(b),
            np.sin(a) * np.sin(b),
            np.sin(a) * np.cos(b),
            -np.cos(a) * np.sin(b),
        ]
        assert np.allclose(v, expect, atol=1e-12)
        # the torus lies on the unit sphere
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @given(angles, angles)
    def test_jacobian_matches_finite_differences(self, a, b):
        s = osbk.sphere_torus()
        u = np.array([a, b])
        J = s.jacobian(u)
        Jfd = fd_jacobian(s.value, u)
        assert np.allclose(J, Jfd, atol=1e-8)

    @given(angles)
    def test_hessian_matches_finite_differences(self, t):
        g = osbk.chebyshev_curve()
        u = np.array([t])
        H = g.hessian(u)
        Hfd = fd_jacobian(lambda v: g.jacobian(v).ravel(), u).reshape(H.shape)
        assert np.allclose(H, Hfd, atol=1e-6)

    def test_curve_batch_matches_deriv(self):
        g = osbk.chebyshev_curve()
        ts = np.linspace(0, 2 * np.pi, 9)
        for order in range(4):
            batch = g.curve_batch(ts, order=order)
            rows = np.array([g.deriv(t, order=order) for t in ts])
            assert np.allclose(batch, rows, atol=1e-12)

    def test_curve_jet_matches_curve_batch_bitwise(self):
        ts = np.random.default_rng(3).uniform(-7.0, 7.0, 257)
        for g in (osbk.circle(1.5), osbk.chebyshev_curve()):
            jet = g.curve_jet(ts, (0, 1, 2, 3))
            for order in range(4):
                assert jet[order].tobytes() == g.curve_batch(ts, order).tobytes()
            assert [j.tobytes() for j in g.curve_jet(ts, (2, 0))] == [jet[2].tobytes(), jet[0].tobytes()]

    @given(angles)
    def test_deriv_order_one_is_tangent(self, t):
        g = osbk.circle()
        h = 1e-6
        fd = (g.deriv(t + h) - g.deriv(t - h)) / (2 * h)
        assert np.allclose(g.deriv(t, order=1), fd, atol=1e-7)

    def test_constant_map_fails_immersion_check(self):
        with pytest.raises(osbk.ImmersionError):
            osbk.TrigImmersion(1, ((((0,), 1.0, 0.0),), (((0,), 2.0, 0.0),)))

    def test_transformed_is_pointwise_conjugation(self):
        rng = np.random.default_rng(5)
        T = random_symplectic(2, rng)
        s = osbk.sphere_torus()
        st_ = s.transformed(T)
        u = np.array([0.3, 1.1])
        assert np.allclose(st_.value(u), T(s.value(u)), atol=1e-10)
        assert np.allclose(st_.jacobian(u), T.S @ s.jacobian(u), atol=1e-10)

    def test_trig_product_expansion(self):
        # cos a sin b = (sin(a+b) - sin(a-b)) / 2
        terms = trig_product([("cos", 0), ("sin", 1)], 2)
        a, b = 0.4, 1.3

        def eval_terms(u):
            tot = 0.0
            for freq, ca, sa in terms:
                ph = float(np.dot(freq, u))
                tot += ca * np.cos(ph) + sa * np.sin(ph)
            return tot

        assert eval_terms(np.array([a, b])) == pytest.approx(np.cos(a) * np.sin(b), abs=1e-12)


class TestEllipsoid:
    def test_level_and_axes(self):
        e = osbk.SymplecticEllipsoid((1.0, 4.0))
        assert e.d == 2
        assert e.level(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert e.level(np.array([0.0, 0.0, 2.0, 0.0])) == pytest.approx(1.0)

    def test_axes_must_be_positive(self):
        with pytest.raises((ValueError, osbk.ConfigError)):
            osbk.SymplecticEllipsoid((1.0, -2.0))

    @pytest.mark.parametrize("axes", [(1.0,), (1.0, 2.0), (0.5, 1.5, 3.0)])
    def test_param_round_trip(self, axes):
        e = osbk.SymplecticEllipsoid(axes)
        imm = e.to_immersion()
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.uniform(0.05, np.pi - 0.05, size=imm.m) if imm.m > 1 else rng.uniform(0, 2 * np.pi, size=1)
            u[-1] = rng.uniform(0, 2 * np.pi)
            z = imm.value(u)
            assert e.level(z) == pytest.approx(1.0, abs=1e-10)
            u2 = e.param_of(z)
            assert np.allclose(imm.value(u2), z, atol=1e-9)

    @pytest.mark.parametrize("axes", [(1.0,), (1.0, 2.0), (0.5, 1.5, 3.0)])
    def test_chart_has_full_rank_on_the_check_grid(self, axes):
        # to_immersion skips the sampled check; the same coefficients as a
        # user table run it, and pass
        chart = osbk.SymplecticEllipsoid(axes).to_immersion()
        assert not chart.check
        assert osbk.TrigImmersion(chart.m, chart.coeffs) == chart

    def test_immersion_lies_on_level_set(self):
        e = osbk.SymplecticEllipsoid((0.7, 2.0, 3.0))
        imm = e.to_immersion()
        spec = osbk.spec_for(imm)
        for u in osbk.manifolds.sample_params(spec, points=64, cap=50):
            assert e.level(imm.value(u)) == pytest.approx(1.0, abs=1e-9)


class TestGeneratingGraph:
    def test_derivatives_match_finite_differences(self, ft_graph):
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = rng.uniform(-2, 2, size=2)
            g = ft_graph.grad(q)
            gfd = fd_gradient(lambda x: ft_graph.F(x), q, h=1e-6)
            assert np.allclose(g, gfd, atol=1e-6)
            H = ft_graph.hess(q)
            Hfd = fd_jacobian(ft_graph.grad, q)
            assert np.allclose(H, Hfd, atol=1e-6)

    def test_third_tensor_symmetric_and_constant(self, ft_graph):
        T0 = ft_graph.third(np.zeros(2))
        T1 = ft_graph.third(np.array([3.0, -1.0]))
        assert np.allclose(T0, T1)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.allclose(T0, np.transpose(T0, perm))

    def test_embed_interleaves_gradient(self, ft_graph):
        q = np.array([1.0, 2.0])
        z = ft_graph.embed(q)
        g = ft_graph.grad(q)
        assert np.allclose(z, [q[0], g[0], q[1], g[1]])

    def test_homogeneous_cubic_detection(self, ft_graph):
        assert ft_graph.is_homogeneous_cubic()
        quartic = osbk.GeneratingGraph(osbk.Poly(2, {(4, 0): 1.0}))
        assert not quartic.is_homogeneous_cubic()

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            osbk.GeneratingGraph(osbk.Poly(2, {(1, 0): 1.0}))

    def test_bad_box_rejected(self, ft_graph):
        with pytest.raises((ValueError, osbk.ConfigError)):
            osbk.GeneratingGraph(ft_graph.F, box=(2.0, -2.0))


class TestManifoldSpec:
    def test_kinds(self, circle_spec, ft_spec, ell2):
        assert circle_spec.kind == "trig"
        assert circle_spec.is_curve
        assert ft_spec.kind == "graph"
        espec = osbk.spec_for(ell2)
        assert espec.kind == "ellipsoid"
        assert espec.ambient_dim == 4
        assert espec.param_dim == 3

    def test_params_are_angles(self, circle_spec, ft_spec):
        assert circle_spec.params_are_angles
        assert not ft_spec.params_are_angles

    def test_tangent_basis_spans_jacobian(self, torus_spec):
        u = np.array([0.9, 2.2])
        B = torus_spec.tangent_basis(u)
        assert B.shape == (2, 4)
        Jfd = fd_jacobian(torus_spec.embed, u)
        # each finite-difference column lies in the row span of B
        coef, res, *_ = np.linalg.lstsq(B.T, Jfd, rcond=None)
        recon = B.T @ coef
        assert np.allclose(recon, Jfd, atol=1e-6)

    def test_embed_hessian_matches_fd(self, cheb_spec):
        u = np.array([0.4])
        H = cheb_spec.embed_hessian(u)
        Hfd = fd_jacobian(lambda v: fd_jacobian(cheb_spec.embed, v), u)
        assert np.allclose(H, Hfd.reshape(H.shape), atol=1e-4)

    def test_transform_applies_to_embedding(self, circle_spec):
        rng = np.random.default_rng(2)
        T = random_symplectic(1, rng)
        spec_t = osbk.spec_for(circle_spec.table, transform=T)
        u = np.array([1.234])
        assert np.allclose(spec_t.embed(u), T(circle_spec.embed(u)), atol=1e-10)


@pytest.mark.parametrize("which", ["circle", "chebyshev", "torus", "ellipsoid", "cubic", "transformed"])
def test_batch_matches_pointwise(which, ft_graph):
    spec = {
        "circle": lambda: osbk.spec_for(osbk.circle(1.5)),
        "chebyshev": lambda: osbk.spec_for(osbk.chebyshev_curve()),
        "torus": lambda: osbk.spec_for(osbk.sphere_torus()),
        "ellipsoid": lambda: osbk.spec_for(osbk.SymplecticEllipsoid((1.0, 2.0))),
        "cubic": lambda: osbk.spec_for(ft_graph),
        "transformed": lambda: osbk.spec_for(ft_graph, random_symplectic(2, np.random.default_rng(4))),
    }[which]()
    U = np.random.default_rng(3).uniform(*spec.box, size=(7, spec.param_dim))
    for evaluate, shape in (
        (spec.embed, (spec.ambient_dim,)),
        (spec.tangent_basis, (spec.param_dim, spec.ambient_dim)),
        (spec.embed_hessian, (spec.ambient_dim, spec.param_dim, spec.param_dim)),
    ):
        batch = evaluate(U)
        assert batch.shape == (7, *shape)
        np.testing.assert_allclose(batch, np.array([evaluate(u) for u in U]), rtol=1e-13, atol=1e-12)


def test_stack_with_rank_deficient_parameter_raises(ell2):
    # the angle chart loses the second phase where its radius sin(phi) is 0
    U = np.array([[0.3, 0.4, 0.7], [0.3, 0.4, 0.0], [1.0, 2.0, 0.5]])
    with pytest.raises(osbk.ImmersionError, match=re.escape(str(np.round(U[1], 6)))):
        osbk.spec_for(ell2).tangent_basis(U)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("which", ["circle", "cheb", "torus", "ellipsoid", "graph"])
    def test_round_trip(self, which, ft_graph):
        table = {
            "circle": lambda: osbk.circle(1.5),
            "cheb": osbk.chebyshev_curve,
            "torus": osbk.sphere_torus,
            "ellipsoid": lambda: osbk.SymplecticEllipsoid((0.5, 2.5)),
            "graph": lambda: ft_graph,
        }[which]()
        spec = osbk.spec_for(table)
        data = osbk.manifold_to_json(spec)
        spec2 = osbk.manifold_from_json(data)
        assert spec2.kind == spec.kind
        u = np.full(spec.param_dim, 0.7)
        assert np.allclose(spec2.embed(u), spec.embed(u), atol=1e-12)

    def test_round_trip_with_transform(self, circle_spec):
        T = random_symplectic(1, np.random.default_rng(9))
        spec = osbk.spec_for(circle_spec.table, transform=T)
        spec2 = osbk.manifold_from_json(osbk.manifold_to_json(spec))
        u = np.array([0.3])
        assert np.allclose(spec2.embed(u), spec.embed(u), atol=1e-12)

    def test_unknown_key_rejected(self):
        data = {"kind": "ellipsoid", "axes": [1.0], "extra": 1}
        with pytest.raises(osbk.ConfigError):
            osbk.manifold_from_json(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(osbk.ConfigError):
            osbk.manifold_from_json({"kind": "mystery"})


class TestConditionL:
    def test_circle_holds(self, circle_spec):
        rep = osbk.check_condition_L(circle_spec)
        assert rep.holds

    def test_torus_holds(self, torus_spec):
        assert osbk.check_condition_L(torus_spec).holds

    def test_curve_in_lagrangian_plane_fails(self, lagrangian_plane_curve):
        rep = osbk.check_condition_L(lagrangian_plane_curve)
        assert not rep.holds


class TestConditionLL:
    def test_circle_exterior_probes(self, circle_spec):
        probes = [np.array([2.0, 0.0]), np.array([-1.0, 3.0])]
        rep = osbk.check_condition_LL(circle_spec, probes)
        assert rep.holds
        assert rep.per_probe == (True, True)

    def test_probe_in_lagrangian_plane_fails(self, lagrangian_plane_curve):
        # the probe sits in the same Lagrangian plane as the curve, so
        # omega(x - P, gamma') vanishes identically along the whole curve
        rep = osbk.check_condition_LL(lagrangian_plane_curve, [np.array([3.0, 0.0, 0.5, 0.0])])
        assert not rep.holds
        assert rep.per_probe == (False,)

    def test_mixed_probes_reported_individually(self, lagrangian_plane_curve):
        good = np.array([0.0, 2.0, 0.0, -1.0])
        bad = np.array([3.0, 0.0, 0.5, 0.0])
        rep = osbk.check_condition_LL(lagrangian_plane_curve, [good, bad])
        assert rep.per_probe == (True, False)
        assert not rep.holds

    @pytest.mark.parametrize("spec_name", ["cheb_spec", "torus_spec"])
    def test_witness_is_first_largest_in_direction_sample_order(self, request, spec_name):
        spec = request.getfixturevalue(spec_name)
        rng = np.random.default_rng(8)
        probes = [rng.uniform(-3.0, 3.0, spec.ambient_dim) for _ in range(4)]
        rep = osbk.check_condition_LL(spec, probes, samples=64)
        pts = osbk.manifolds.sample_params(spec, 64)
        X, T = spec.embed(pts), spec.tangent_basis(pts)
        for P, (u, a, val) in zip(probes, rep.witnesses):
            # one probe and one direction at a time, kept only when strictly larger
            best = None
            for b in range(T.shape[1]):
                vals = omega(X - P, T[:, b, :])
                k = int(np.argmax(np.abs(vals)))
                if best is None or abs(vals[k]) > abs(best[2]):
                    best = (pts[k], b, float(vals[k]))
            assert (u.tobytes(), a, val) == (best[0].tobytes(), best[1], best[2])

    def test_no_probes_holds_vacuously(self, circle_spec):
        rep = osbk.check_condition_LL(circle_spec, [])
        assert rep.holds and rep.per_probe == () and rep.witnesses == ()


class TestConvexityProfile:
    def test_circle_constant_one(self, circle_spec):
        prof = osbk.symplectic_convexity_profile(circle_spec)
        assert prof.convex
        assert prof.min_value == pytest.approx(1.0, abs=1e-9)
        assert prof.max_value == pytest.approx(1.0, abs=1e-9)

    def test_chebyshev_constant_nine(self, cheb_spec):
        prof = osbk.symplectic_convexity_profile(cheb_spec)
        assert prof.convex
        assert prof.min_value == pytest.approx(9.0, abs=1e-6)
        assert prof.max_value == pytest.approx(9.0, abs=1e-6)

    def test_flat_profile_reports_the_first_sample(self, cheb_spec, circle_spec):
        # omega(gamma', gamma'') is constant; its grid spread is rounding noise,
        # so argmin and argmax are t = 0, not wherever the noise peaks
        for spec, value in ((cheb_spec, 9.0), (circle_spec, 1.0)):
            prof = osbk.symplectic_convexity_profile(spec)
            assert prof.argmin == prof.argmax == 0.0
            assert prof.min_value <= value <= prof.max_value
            assert prof.max_value - prof.min_value <= NOISE_ULPS * np.spacing(value)

    def test_planar_lissajous_is_not_convex(self):
        # (cos t, sin 2t): omega(gamma', gamma'') = cos t (6 - 4 cos^2 t),
        # extremes +-2 sqrt(2) at cos t = +-1/sqrt(2)
        lis = osbk.TrigImmersion(1, ((((1,), 1.0, 0.0),), (((2,), 0.0, 1.0),)))
        prof = osbk.symplectic_convexity_profile(lis)
        assert not prof.convex
        assert prof.min_value == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-6)
        assert prof.max_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
        # a profile with structure is still refined to its extremes
        assert np.cos(prof.argmin) == pytest.approx(-np.sqrt(0.5), abs=1e-6)
        assert np.cos(prof.argmax) == pytest.approx(np.sqrt(0.5), abs=1e-6)

    def test_rejects_non_curves(self, torus_spec):
        with pytest.raises((ValueError, osbk.DomainError)):
            osbk.symplectic_convexity_profile(torus_spec)
