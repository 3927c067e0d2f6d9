import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osbk
from osbk import variational
from osbk._pool import task_rng
from osbk.core import DEDUP_RADIUS, _params_close
from osbk.variational import MidpointPolygon, ambient_gradients, orbit_midpoints

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

    @pytest.mark.parametrize("spec_name", ["circle_spec", "torus_spec"])
    def test_kernel_with_offset_matches_fd(self, request, spec_name):
        # the even search's system: n = 4 midpoints, an offset added to each vertex difference
        spec = request.getfixturevalue(spec_name)
        n, m, dim = 4, spec.param_dim, spec.ambient_dim
        rng = np.random.default_rng(53)
        U, offset = rng.uniform(0, 2 * np.pi, (1, n, m)), rng.normal(size=(1, n, dim))
        pts, R, full, grad, H = variational._stationarity(spec, U, "periodic", offset, hessian=True)
        assert full.all()
        np.testing.assert_array_equal(pts[0], spec.embed(U[0]))
        np.testing.assert_array_equal(R[0], spec.tangent_basis(U[0]))
        z, diffs = np.zeros(dim), []  # the open chain z_{i+1} = 2 Q_i - z_i from z_1 = 0
        for q in pts[0]:
            diffs.append(2.0 * q - 2.0 * z)
            z = 2.0 * q - z
        want = [[-osbk.omega(d + o, zeta) for zeta in rows] for d, o, rows in zip(diffs, offset[0], R[0])]
        np.testing.assert_allclose(grad[0], want, rtol=1e-12, atol=1e-12)

        def grad_flat(x):
            return variational._stationarity(spec, x.reshape(1, n, m), "periodic", offset)[3].ravel()

        Hfd = fd_jacobian(grad_flat, U.ravel())
        assert H.shape == (1, n * m, n * m)
        assert np.allclose(H[0], Hfd, atol=1e-5)


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


@pytest.fixture(scope="module")
def moved_torus():
    return osbk.spec_for(osbk.sphere_torus(), transform=random_symplectic(2, np.random.default_rng(7)))


class TestRowIndependence:
    """Each row of a stacked evaluation equals its one-point call bit for bit,
    whatever the stack; the search's step ladder relies on it. Every public
    evaluator is checked on every reference table, with and without a change
    of frame, on stacks of 1, 2, 7 and 500 seeded points."""

    TABLES = {
        "circle": osbk.circle(),
        "chebyshev": osbk.chebyshev_curve(),
        "torus": osbk.sphere_torus(),
        "ellipsoid": osbk.SymplecticEllipsoid((1.0, 2.0)),
        "cubic": osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0})),
        "quartic": osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0, (4, 0): 0.1}), (-3.0, 3.0)),
    }
    one_point: dict = {}  # (table, framed) -> evaluator name -> the 500 one-point results

    @staticmethod
    def evaluators(spec) -> dict:
        """Name -> (stacked call, one-point call, 500 seeded inputs) for every evaluator that applies to spec."""
        rng = np.random.default_rng(41)
        U = rng.uniform(*spec.box, (500, spec.param_dim))
        X = spec.embed(U)
        P = X[rng.integers(0, 500, (500, 3))]  # polygons of three table points
        cases = {
            "embed": (spec.embed, U),
            "tangent_basis": (spec.tangent_basis, U),
            "tangent_frame": (spec.tangent_frame, U),
            "embed_hessian": (spec.embed_hessian, U),
            "gen_fun_periodic": (osbk.gen_fun_periodic, P),
            "gen_fun_boundary": (osbk.gen_fun_boundary, P),
            "gen_fun_boundary n=1": (osbk.gen_fun_boundary, P[:, :1]),
            "ambient_gradients periodic": (lambda Q: ambient_gradients(Q, "periodic"), P),
            "ambient_gradients boundary": (lambda Q: ambient_gradients(Q, "boundary"), P),
        }
        if spec.transform is not None:
            cases["AffineSymplectic.__call__"] = (spec.transform, X)
            cases["AffineSymplectic.apply_vector"] = (spec.transform.apply_vector, X)
        if spec.kind == "graph":
            for k in range(4):
                cases[f"Poly.partials {k}"] = (lambda q, k=k: spec.table.F.partials(q, k), U)
        if spec.kind == "ellipsoid" or (spec.kind == "graph" and spec.table.is_homogeneous_cubic()):
            cases["IntegralSet.values"] = (osbk.integrals_for(osbk.spec_for(spec.table)).values, X)
        cases = {name: (fn, fn, inputs) for name, (fn, inputs) in cases.items()}
        if spec.is_curve:
            trig, orders = spec.as_trig, (0, 1, 2, 3)
            jet = lambda ts: np.stack(trig.curve_jet(ts, orders), axis=-2)
            cases["curve_jet"] = (jet, lambda t: jet(t)[0], U[:, 0])
            cases["deriv"] = (jet, lambda t: np.stack([trig.deriv(t, k) for k in orders]), U[:, 0])
        return cases

    @pytest.mark.parametrize("N", [1, 2, 7, 500])
    @pytest.mark.parametrize("framed", [False, True], ids=["plain", "framed"])
    @pytest.mark.parametrize("table", list(TABLES))
    def test_rows_equal_one_point_calls(self, table, framed, N):
        base = self.TABLES[table]
        d = base.ambient_dim // 2
        spec = osbk.spec_for(base, random_symplectic(d, np.random.default_rng(47)) if framed else None)
        cases = self.evaluators(spec)
        if (table, framed) not in self.one_point:
            self.one_point[table, framed] = {name: [one(x) for x in inputs] for name, (_, one, inputs) in cases.items()}
        singles = self.one_point[table, framed]
        differ = []
        for name, (stacked, _, inputs) in cases.items():
            got = stacked(inputs[:N])
            got = got if isinstance(got, tuple) else (got,)
            want = [o if isinstance(o, tuple) else (o,) for o in singles[name][:N]]
            if not all(np.array_equal(g, np.stack([w[j] for w in want])) for j, g in enumerate(got)):
                differ.append(name)
        assert differ == []


class TestStepLadder:
    """A backtracking round tries ``_LADDER_RUNGS`` halvings in one objective call.
    With one rung it is one-halving-per-pass backtracking; both accept the same steps."""

    @staticmethod
    def outcome(res):
        return res.message, res.failed, res.flat_objective, [o.as_dict() for o in res.orbits]

    def assert_matches_one_rung(self, monkeypatch, search):
        ladder = self.outcome(search())
        monkeypatch.setattr(variational, "_LADDER_RUNGS", 1)
        assert self.outcome(search()) == ladder

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "spec_name, n", [("torus_spec", 3), ("cheb_spec", 5), ("quartic_spec", 3), ("moved_torus", 3)]
    )
    def test_periodic(self, request, monkeypatch, spec_name, n, seed):
        spec = request.getfixturevalue(spec_name)
        self.assert_matches_one_rung(monkeypatch, lambda: osbk.find_periodic_orbit(spec, n, starts=16, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec_name, n", [("circle_spec", 2), ("moved_torus", 2)])
    def test_shoot(self, request, monkeypatch, spec_name, n, seed):
        spec = request.getfixturevalue(spec_name)
        L1, L2 = osbk.coordinate_lagrangian_pair(spec.ambient_dim)
        self.assert_matches_one_rung(
            monkeypatch, lambda: osbk.find_boundary_orbit(spec, L1, L2, n, starts=16, seed=seed, mode="both")
        )

    @pytest.mark.parametrize("scale, depth", [(1e-9, 46), (0.99999e-4, 46), (1.0001e-4, 14)])
    def test_backtracking_past_the_ladder(self, torus_spec, monkeypatch, scale, depth):
        # Scaling F by s < 1 leaves the search's gradients alone, so the Armijo test
        # sees a slope 1/s too steep. At 1e-9 no step passes and every start halves
        # 0.5 down past the 1e-14 floor (46 trials) and stops; just below 1e-4 only
        # rounding noise passes tiny steps, some of them beside the floor; just above
        # it steps pass after many halvings. `depth` is the longest run of objective
        # calls between two gradient passes with one rung, one halving per call.
        events, rungs = [], variational._LADDER_RUNGS
        gen_fun, grads = variational.gen_fun_periodic, variational.ambient_gradients
        monkeypatch.setattr(variational, "gen_fun_periodic", lambda Q: events.append("f") or scale * gen_fun(Q))
        monkeypatch.setattr(variational, "ambient_gradients", lambda Q, kind: events.append("G") or grads(Q, kind))
        search = lambda: self.outcome(osbk.find_periodic_orbit(torus_spec, 3, starts=16, seed=0))
        ladder = search()
        monkeypatch.setattr(variational, "_LADDER_RUNGS", 1)
        events.clear()
        assert search() == ladder
        runs = [len(list(group)) for key, group in itertools.groupby(events) if key == "f"]
        assert max(runs) == depth > rungs


class TestLockstepModes:
    """Mode "both" runs the max and min searches as one lockstep stack; a stacked row
    does not depend on its stack, so it returns exactly the merge of the two runs."""

    @staticmethod
    def counts(message):
        conv = re.search(r"(\d+) converged starts", message)
        ended = re.search(r"(\d+) starts ended at a rank-deficient chart point", message)
        return int(conv.group(1)) if conv else None, int(ended.group(1)) if ended else 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec_name", ["circle_spec", "moved_torus"])
    def test_both_is_the_merge_of_max_and_min(self, request, spec_name, seed):
        spec = request.getfixturevalue(spec_name)
        L1, L2 = osbk.coordinate_lagrangian_pair(spec.ambient_dim)
        search = lambda mode: osbk.find_boundary_orbit(spec, L1, L2, 2, starts=16, seed=seed, mode=mode)
        hi, lo, both = search("max"), search("min"), search("both")
        close = lambda o, p: _params_close(o.params, p.params, spec.params_are_angles, DEDUP_RADIUS, False)
        merged = list(hi.orbits) + [o for o in lo.orbits if not any(close(o, p) for p in hi.orbits)]
        merged.sort(key=lambda o: -o.value)
        assert [o.as_dict() for o in both.orbits] == [o.as_dict() for o in merged]
        ended = self.counts(hi.message)[1] + self.counts(lo.message)[1]
        note = f", {ended} starts ended at a rank-deficient chart point" if ended else ""
        if merged:
            assert both.best_max.as_dict() == merged[0].as_dict()
            assert both.best_min.as_dict() == merged[-1].as_dict()
            assert both.message == f"{len(merged)} distinct critical orbits{note}"
        else:
            converged = self.counts(hi.message)[0] + self.counts(lo.message)[0]
            assert both.failed and both.best_max is None and both.best_min is None
            assert both.message == f"search failed: {converged} converged starts, none verified{note}"

    def test_odd_search_evaluates_each_polygon_once_per_pass(self, torus_spec, monkeypatch):
        # the ascent and the Newton polish take gradient, rank mask and Hessian from one kernel
        # call; only tangent_basis raises at rank-deficient points, and the searches never call it
        calls = []
        basis = osbk.ManifoldSpec.tangent_basis
        monkeypatch.setattr(osbk.ManifoldSpec, "tangent_basis", lambda self, u: calls.append(u) or basis(self, u))
        res = osbk.find_periodic_orbit(torus_spec, 3, starts=16, seed=0)
        assert not res.failed
        assert calls == []


class TestStartIndependence:
    """Start i draws from task_rng(seed, i) whatever the start count, so a k-start
    search finds nothing that the 2k-start search at the same seed misses."""

    @staticmethod
    def assert_covered(small, large, angular, shifts):
        assert small.orbits
        for o in small.orbits:
            assert any(_params_close(o.params, p.params, angular, DEDUP_RADIUS, shifts) for p in large.orbits)

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

    @pytest.mark.parametrize("spec_name", ["circle_spec", "cheb_spec"])
    def test_even(self, request, spec_name):
        spec = request.getfixturevalue(spec_name)
        small = osbk.search_even_periodic(spec, 4, starts=8, seed=5)
        large = osbk.search_even_periodic(spec, 4, starts=16, seed=5)
        self.assert_covered(small, large, spec.params_are_angles, shifts=True)


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

    @pytest.mark.parametrize("mode", ["max", "both"])
    def test_flat_objective_detected(self, lagrangian_plane_curve, mode):
        L1, L2 = osbk.coordinate_lagrangian_pair(4)
        res = osbk.find_boundary_orbit(lagrangian_plane_curve, L1, L2, 2, starts=8, seed=0, mode=mode)
        assert res.flat_objective and not res.failed
        assert res.orbits == () and res.best_max is None and res.best_min is None
        assert res.message == "flat objective: G is constant on M^n"

    def test_non_transverse_pair_rejected(self, circle_spec):
        L1, _ = osbk.coordinate_lagrangian_pair(2)
        with pytest.raises(osbk.DomainError):
            osbk.find_boundary_orbit(circle_spec, L1, L1, 1)


class TestEllipsoidSearch:
    """The ascent drives starts onto the ellipsoid chart's rank-deficient set; they end there, counted."""

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_starts_end_without_immersion_error(self, ell2, seed):
        spec = osbk.spec_for(ell2)
        periodic = osbk.find_periodic_orbit(spec, 3, starts=16, seed=seed)
        boundary = osbk.find_boundary_orbit(spec, *osbk.coordinate_lagrangian_pair(4), 2, starts=16, seed=seed)
        links = [(o.orbit.vertices, np.roll(o.orbit.vertices, -1, axis=0), o.params) for o in periodic.orbits]
        links += [(o.vertices_ambient[:-1], o.vertices_ambient[1:], o.params) for o in boundary.orbits]
        for Z, Z_next, U in links:
            for z, z_next, u in zip(Z, Z_next, U):
                rep = osbk.verify_pair(spec, z, z_next, u)
                assert rep.midpoint_residual < 1e-8 and rep.orthogonality_residual < 1e-7
        for res in (periodic, boundary):
            assert res.failed == (not res.orbits)
            assert re.search(r"\d+ starts ended at a rank-deficient chart point$", res.message)


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


class _FirstEvaluation(Exception):
    pass


class TestEvenSearch:
    @pytest.mark.parametrize("spec_name, n", [("circle_spec", 2), ("circle_spec", 4), ("torus_spec", 2), ("ft_spec", 4)])
    def test_starts_equal_one_draw_per_start(self, request, monkeypatch, spec_name, n):
        # the first stationarity call sees every start: its midpoints, and offsets whose first row is -2 z_1
        spec = request.getfixturevalue(spec_name)
        seen = []

        def first_call(spec, U, kind, offset, hessian):
            seen.append((U.copy(), offset[:, 0] / -2.0))
            raise _FirstEvaluation

        monkeypatch.setattr(variational, "_stationarity", first_call)
        lo, hi = spec.box
        m = spec.param_dim
        zscale = max(1.0, float(np.max(np.abs(spec.embed(np.full(m, 0.5 * (lo + hi)))))))
        for seed in (0, 7, 2**40 + 3, 2**64 - 1):
            with pytest.raises(_FirstEvaluation):
                osbk.search_even_periodic(spec, n, starts=9, seed=seed)
            U, z1 = seen.pop()
            for i in range(9):
                rng = task_rng(seed, i)
                assert U[i].tobytes() == rng.uniform(lo, hi, (n, m)).tobytes()
                assert z1[i].tobytes() == rng.uniform(-3.0 * zscale, 3.0 * zscale, spec.ambient_dim).tobytes()

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
