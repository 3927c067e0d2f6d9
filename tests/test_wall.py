import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osbk
from osbk import wall
from osbk.errors import ConsistencyError
from osbk.wall import CubicForm2, ConicPair

from .oracles import brute_conic_solutions, reference_classify_trials, reference_zero_divisor

coef = st.floats(-3.0, 3.0, allow_nan=False)

FT = CubicForm2(0.0, 1.0, 1.0, 0.0)  # q1^2 q2 + q1 q2^2
DIAG = CubicForm2(1.0, 0.0, 0.0, 1.0)  # q1^3 + q2^3
RULED = CubicForm2(1.0, 1.0, 0.0, 0.0)  # q1^3 + q1^2 q2
# small scale: r = Q.A Q - W is nearly -W, so the |r| >= 0.3 filter redraws about 2% of the probes
SMALL = CubicForm2(0.01, 0.0, 0.0, 0.01)


class TestWallSamples:
    def test_circle_frozen(self):
        samples = osbk.curve_wall_samples(osbk.circle(), [0.0])
        assert len(samples) == 1
        s = samples[0]
        assert s.rank == 2
        assert np.allclose(s.P, [1.0, 0.0])
        assert s.singular_residual == pytest.approx(-1.0, abs=1e-12)

    def test_residual_vanishes_only_with_curvature_term(self, cheb_spec):
        # at P = gamma(t) the affine terms cancel and the residual reduces to
        # -omega(gamma', gamma''), constant 9 for this curve
        for t in (0.0, 0.7, 2.4):
            P = cheb_spec.embed(np.array([t]))
            assert osbk.curve_wall_singular(cheb_spec, P, t) == pytest.approx(-9.0, abs=1e-9)

    def test_plane_grid_spans_kernel(self, cheb_spec):
        t_grid = [0.3, 1.1]
        samples = osbk.curve_wall_samples(cheb_spec, t_grid, plane_grid=(-1.0, 0.0, 1.0))
        # ambient R^4, two constraints, rank 2: kernel dimension 2, 9 points per t
        assert len(samples) == 2 * 9
        for s in samples:
            g0 = cheb_spec.table.deriv(s.t, 0)
            g1 = cheb_spec.table.deriv(s.t, 1)
            g2 = cheb_spec.table.deriv(s.t, 2)
            # both defining equations hold along the sampled plane
            assert abs(osbk.omega(s.P - g0, g1)) < 1e-8
            assert abs(osbk.omega(s.P - g0, g2)) < 1e-7
            assert s.rank == 2

    def test_circle_wall_is_tangent_line_family(self):
        # for the unit circle the wall at t consists of points P with
        # omega(P - gamma, gamma') = 0, i.e. P on the tangent line
        for s in osbk.curve_wall_samples(osbk.circle(), [0.5, 2.0], plane_grid=(-2.0, 2.0)):
            gm = osbk.circle().deriv(s.t, 0)
            gp = osbk.circle().deriv(s.t, 1)
            assert abs(osbk.omega(s.P - gm, gp)) < 1e-9


    def test_singular_stack_equals_one_point_calls(self, cheb_spec):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 2 * np.pi, 64)
        P = cheb_spec.embed(t[:, None]) + rng.normal(size=(64, 4))
        got = osbk.curve_wall_singular(cheb_spec, P, t)
        assert got.shape == (64,)
        assert got.tolist() == [osbk.curve_wall_singular(cheb_spec, p, s) for p, s in zip(P, t)]
        with pytest.raises(ValueError, match="shape"):
            osbk.curve_wall_singular(cheb_spec, P, t[:5])

    def test_samples_equal_the_per_point_construction(self, cheb_spec):
        # each sample is gamma(t) + s @ kernel and its residual the scalar-omega
        # sum at that one point, bit for bit
        t_grid, grid = np.arange(16) * (2 * np.pi / 16), (0.0, 0.5, -0.5)
        samples = osbk.curve_wall_samples(cheb_spec, t_grid, grid)
        assert len(samples) == 16 * 9
        for k, s in enumerate(samples):
            g0, g1, g2, g3 = (v[0] for v in cheb_spec.table.curve_jet(t_grid[k // 9], range(4)))
            rows = -osbk.apply_J(np.stack([g1, g2]))
            kernel = np.linalg.svd(rows)[2][2:]
            P = g0 + np.asarray(s.plane_params) @ kernel
            assert s.t == t_grid[k // 9] and s.plane_params == list(product(grid, repeat=2))[k % 9]
            assert s.P.tolist() == P.tolist()
            residual = osbk.omega(P, g3) - osbk.omega(g1, g2) - osbk.omega(g0, g3)
            assert s.singular_residual == residual == osbk.curve_wall_singular(cheb_spec, P, s.t)


class TestMultiplicity:
    def test_circle_frozen_counts(self):
        assert osbk.multiplicity_curve(osbk.circle(), np.array([2.0, 0.0])) == 2
        assert osbk.multiplicity_curve(osbk.circle(), np.array([0.2, -0.1])) == 0

    def test_probe_pair_across_curve(self, cheb_spec):
        t0 = 0.9
        g0 = cheb_spec.embed(np.array([t0]))
        g2 = cheb_spec.table.deriv(t0, 2)
        delta = 1e-2
        plus = osbk.multiplicity_curve(cheb_spec, g0 + delta * g2)
        minus = osbk.multiplicity_curve(cheb_spec, g0 - delta * g2)
        assert plus == 0
        assert minus == 2

    def test_point_on_curve_is_unstable(self):
        g = osbk.circle()
        with pytest.raises(osbk.UnstableCountError) as exc:
            osbk.multiplicity_curve(g, g.deriv(1.0, 0))
        assert exc.value.lower is not None
        assert exc.value.upper == exc.value.lower + 2

    def test_stack_entries_equal_one_probe_calls(self, cheb_spec, lagrangian_plane_curve):
        # counts, refusals near the wall and a continuum of partners, each as
        # multiplicity_curve gives it for that probe alone
        cheb = cheb_spec.table
        near_wall = [cheb.deriv(t, 0) + e * cheb.deriv(t, 2) for t in (0.4, 2.9) for e in (1e-2, -1e-2, 0.0, 1e-9)]
        in_plane = [[0.4, 0.0, -0.3, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        for spec, probes in ((cheb_spec, near_wall), (lagrangian_plane_curve, in_plane)):
            got = osbk.multiplicity_curve_stack(spec, probes)
            for P, entry in zip(probes, got, strict=True):
                try:
                    want = osbk.multiplicity_curve(spec, P)
                except osbk.OsbkError as e:
                    want = e
                if isinstance(want, osbk.OsbkError):
                    assert (type(entry), str(entry), vars(entry)) == (type(want), str(want), vars(want))
                else:
                    assert entry == want
            assert {type(e) for e in got} != {int}
        assert osbk.multiplicity_curve_stack(cheb_spec, []) == []


class TestEtaExpansion:
    def test_circle(self):
        assert osbk.eta_expansion_check(osbk.circle()) == pytest.approx(-0.5, abs=1e-3)

    def test_chebyshev(self, cheb_spec):
        assert osbk.eta_expansion_check(cheb_spec) == pytest.approx(-0.5, abs=1e-3)

    def test_speed_invariance(self):
        # doubling the parameter speed must not move the coefficient
        fast = osbk.TrigImmersion(1, ((((2,), 1.0, 0.0),), (((2,), 0.0, 1.0),)))
        assert osbk.eta_expansion_check(fast) == pytest.approx(-0.5, abs=1e-3)

    def test_narrow_fit_window(self, cheb_spec):
        got = osbk.eta_expansion_check(cheb_spec, t_range=(1e-4, 1e-2))
        assert got == pytest.approx(-0.5, rel=0.02)

    def test_flat_start_rejected(self):
        # (sin t, sin 2t) has omega(gamma', gamma'') = 0 at t = 0
        flat = osbk.TrigImmersion(1, ((((1,), 0.0, 1.0),), (((2,), 0.0, 1.0),)))
        with pytest.raises(ValueError):
            osbk.eta_expansion_check(flat)


class TestCubicForm:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CubicForm2(0.0, 0.0, 0.0, 0.0)

    def test_poly_round_trip(self):
        p = FT.to_poly()
        assert p.terms == {(2, 1): 1.0, (1, 2): 1.0}
        assert CubicForm2.from_poly(p) == FT

    def test_from_poly_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            CubicForm2.from_poly(osbk.Poly(2, {(2, 1): 1.0, (1, 0): 1.0}))

    def test_to_graph(self):
        g = FT.to_graph()
        assert g.is_homogeneous_cubic()

    def test_conic_pair_frozen_matrices(self):
        pair = ConicPair.from_cubic(FT)
        assert np.allclose(pair.A1, [[0.0, 1.0], [1.0, 1.0]])
        assert np.allclose(pair.A2, [[1.0, 1.0], [1.0, 0.0]])

    def test_conic_pair_requires_symmetry(self):
        with pytest.raises(ValueError):
            ConicPair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestConicIntersections:
    def test_identity_diagonal_four_solutions(self):
        pair = ConicPair(np.eye(2), np.diag([1.0, -1.0]))
        sols = osbk.conic_intersections(pair, 1.0, 0.0)
        assert len(sols) == 4
        r = 1.0 / np.sqrt(2.0)
        got = sorted(tuple(np.round(s, 9)) for s in sols)
        expect = sorted([(-r, -r), (-r, r), (r, -r), (r, r)])
        assert np.allclose(got, expect, atol=1e-9)

    def test_ft_frozen_two_solutions(self):
        pair = ConicPair.from_cubic(FT)
        sols = osbk.conic_intersections(pair, 0.0, 1.0)
        # w A1 w = 2 w1 w2 + w2^2, w A2 w = w1^2 + 2 w1 w2
        got = sorted(tuple(np.round(s, 9)) for s in sols)
        assert len(got) == 2
        assert np.allclose(got, [(-1.0, 0.0), (1.0, 0.0)], atol=1e-9)

    def test_zero_rhs_definite_gives_origin(self):
        pair = ConicPair(np.eye(2), np.diag([2.0, 1.0]))
        sols = osbk.conic_intersections(pair, 0.0, 0.0)
        assert len(sols) == 1
        assert np.allclose(sols[0], [0.0, 0.0])

    def test_zero_rhs_shared_null_lines_degenerate(self):
        A = np.diag([1.0, -1.0])
        with pytest.raises(osbk.DegeneratePencilError):
            osbk.conic_intersections(ConicPair(A, A.copy()), 0.0, 0.0)

    def test_proportional_data_degenerate(self):
        A = np.array([[1.0, 0.5], [0.5, -2.0]])
        with pytest.raises(osbk.DegeneratePencilError):
            osbk.conic_intersections(ConicPair(A, 2.0 * A), 1.0, 2.0)

    def test_solutions_satisfy_both_conics(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            M1 = rng.normal(size=(2, 2))
            M2 = rng.normal(size=(2, 2))
            pair = ConicPair(M1 + M1.T, M2 + M2.T)
            r1, r2 = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            try:
                sols = osbk.conic_intersections(pair, float(r1), float(r2))
            except osbk.DegeneratePencilError:
                continue
            for w in sols:
                assert w @ pair.A1 @ w == pytest.approx(r1, abs=1e-9)
                assert w @ pair.A2 @ w == pytest.approx(r2, abs=1e-9)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 25:
            M1 = rng.normal(size=(2, 2))
            M2 = rng.normal(size=(2, 2))
            A1, A2 = M1 + M1.T, M2 + M2.T
            r1, r2 = (float(v) for v in rng.uniform(0.5, 2.0, size=2) * rng.choice([-1, 1], size=2))
            try:
                exact = osbk.conic_intersections(ConicPair(A1, A2), r1, r2)
            except osbk.DegeneratePencilError:
                continue
            gaps = [np.linalg.norm(a - b) for i, a in enumerate(exact) for b in exact[i + 1:]]
            if gaps and min(gaps) < 1e-2:
                continue  # grid cells cannot separate near-coincident roots
            brute = brute_conic_solutions(A1, A2, r1, r2)
            assert len(exact) == len(brute)
            for a, b in zip(exact, brute):
                assert np.allclose(a, b, atol=1e-6)
            checked += 1


class TestDiscriminantAndResultant:
    def test_frozen_values(self):
        assert osbk.cubic_discriminant(FT) == pytest.approx(1.0)
        assert osbk.cubic_discriminant(DIAG) == pytest.approx(-27.0)
        assert osbk.cubic_discriminant(RULED) == pytest.approx(0.0)

    @given(coef, coef, coef, coef)
    def test_resultant_is_minus_three_discriminant(self, a, b, c, d):
        if abs(a) + abs(b) + abs(c) + abs(d) < 1e-6:
            return
        f = CubicForm2(a, b, c, d)
        D = osbk.cubic_discriminant(f)
        R = osbk.cubic_resultant(f)
        scale = max(1.0, abs(D))
        assert abs(R + 3.0 * D) < 1e-9 * scale

    def test_discriminant_detects_repeated_roots(self):
        # (q1 - q2)^2 (q1 + q2) has a double linear factor
        p = osbk.Poly(2, {(3, 0): 1.0, (2, 1): -1.0, (1, 2): -1.0, (0, 3): 1.0})
        assert osbk.cubic_discriminant(CubicForm2.from_poly(p)) == pytest.approx(0.0, abs=1e-12)


class TestRuledTest:
    def test_frozen_directions(self):
        w = osbk.ruled_test(RULED)
        assert w is not None
        assert np.allclose(w, [0.0, 1.0], atol=1e-12)
        assert osbk.ruled_test(CubicForm2(0.0, 0.0, 0.0, 1.0)) is not None
        assert osbk.ruled_test(FT) is None
        assert osbk.ruled_test(DIAG) is None

    def test_direction_gives_embedded_line(self):
        w = osbk.ruled_test(RULED)
        g = RULED.to_graph()
        for s in np.linspace(-3.0, 3.0, 11):
            assert np.max(np.abs(g.grad(s * w))) < 1e-10

    @given(coef, coef)
    def test_scaled_difference_cubes_are_ruled(self, u, v):
        # (u q1 + v q2)^3 vanishes along the orthogonal direction
        if abs(u) < 0.1 and abs(v) < 0.1:
            return
        f = CubicForm2(u**3, 3 * u**2 * v, 3 * u * v**2, v**3)
        w = osbk.ruled_test(f)
        assert w is not None
        g = f.to_graph()
        for s in (-2.0, 0.5, 1.5):
            assert np.max(np.abs(g.grad(s * w))) < 1e-8 * max(1.0, abs(u) ** 2, abs(v) ** 2)


class TestClassification:
    def test_positive_discriminant_multiplicity_two(self):
        rep = osbk.classify_cubic_table(FT, trials=64, seed=0)
        assert rep.D == pytest.approx(1.0)
        assert rep.cls == "multiplicity-2"
        assert set(rep.histogram) == {2}
        assert rep.histogram[2] == 64

    def test_negative_discriminant_zero_or_four(self):
        rep = osbk.classify_cubic_table(DIAG, trials=200, seed=0)
        assert rep.D == pytest.approx(-27.0)
        assert rep.cls == "multiplicity-0-or-4"
        assert set(rep.histogram) <= {0, 4}
        assert set(rep.histogram) == {0, 4}

    def test_zero_discriminant_ruled(self):
        rep = osbk.classify_cubic_table(RULED, trials=8, seed=0)
        assert rep.D == pytest.approx(0.0)
        assert rep.ruling is not None
        assert np.allclose(rep.ruling, [0.0, 1.0], atol=1e-10)

    def test_report_serializes(self):
        d = osbk.classify_cubic_table(FT, trials=16, seed=3).as_dict()
        assert d["class"] == "multiplicity-2"
        assert d["D"] == pytest.approx(1.0)
        assert d["trials"] == 16


class TestStackedClassifyTrials:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("f", [FT, DIAG, SMALL], ids=["FT", "DIAG", "SMALL"])
    def test_counts_and_attempts_equal_the_per_trial_oracle(self, f, seed):
        pair = ConicPair.from_cubic(f)
        counts, attempts = wall._classify_trials(pair, 500, seed)
        ref_counts, ref_attempts = reference_classify_trials(pair, 500, seed)
        assert counts.tolist() == ref_counts
        assert attempts.tolist() == ref_attempts
        if f is SMALL:
            assert np.sum(attempts > 1) >= 3  # the masked redraw rounds did run

    def test_no_generic_probe_in_200_attempts(self, monkeypatch):
        rounds = []

        def zeros(seed, tasks, blocks, low, high):  # Q = W = 0: r = 0 is never generic
            rounds.append(blocks)
            return np.zeros((len(tasks), 4))

        monkeypatch.setattr(wall, "task_uniform_blocks", zeros)
        with pytest.raises(ConsistencyError, match="could not draw a generic probe in 200 attempts"):
            osbk.classify_cubic_table(FT, trials=5, seed=0)
        assert rounds == list(range(200))

    def test_conic_rows_equal_single_pair_calls(self):
        # conic_intersections is row 0 of the stacked solve: any row of a stack gives its bits
        rng = np.random.default_rng(4)
        pair = ConicPair.from_cubic(DIAG)
        r1, r2 = rng.uniform(-3.0, 3.0, (2, 64))
        W, found, bad = wall._conic_stack(pair, r1, r2)
        for k in range(64):
            single = osbk.conic_intersections(pair, float(r1[k]), float(r2[k]))
            assert not bad[k]
            assert sorted(w.tobytes() for w in W[k, found[k]]) == sorted(w.tobytes() for w in single)


    def test_degenerate_rows_are_flagged_where_the_single_pair_call_raises(self):
        A = np.array([[1.0, 0.5], [0.5, -1.0]])
        shared = ConicPair(np.diag([1.0, 0.0]), np.diag([0.0, 0.0]))  # every A2 line is null: w2-axis shared
        for pair, r1, r2, reason in ((shared, 0.0, 0.0, 1), (ConicPair(A, 2.0 * A), 1.0, 2.0, 2)):
            W, found, bad = wall._conic_stack(pair, np.array([r1, 3.0]), np.array([r2, -0.5]))
            assert bad.tolist() == [reason, 0]
            assert not found[0].any() and not W[0].any()
            with pytest.raises(osbk.DegeneratePencilError, match=re.escape(wall._PENCIL_ERRORS[reason])):
                osbk.conic_intersections(pair, r1, r2)


class TestZeroDivisor:
    def test_ft_positive_minimum(self, ft_graph):
        rep = osbk.zero_divisor_test(ft_graph, np.array([1.0, 0.0]))
        assert rep.min_value == pytest.approx(2.0, abs=1e-9)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(rep.witness, [r, -r], atol=1e-9)

    def test_diagonal_cubic_has_zero_divisor(self):
        g = DIAG.to_graph()
        rep = osbk.zero_divisor_test(g, np.array([1.0, 1.0]))
        assert rep.min_value == pytest.approx(0.0, abs=1e-12)
        # the witness direction annihilates the determinant form
        w = rep.witness
        assert abs(osbk.lagrangian_delta_det(g, np.array([1.0, 1.0]), w)) < 1e-9

    def test_witness_attains_minimum(self, ft_graph):
        q = np.array([0.7, -1.2])
        rep = osbk.zero_divisor_test(ft_graph, q)
        attained = abs(osbk.lagrangian_delta_det(ft_graph, q, rep.witness))
        assert attained == pytest.approx(rep.min_value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_three_variables_match_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        exps = [e for e in np.ndindex(4, 4, 4) if sum(e) == 3]
        g = osbk.GeneratingGraph(osbk.Poly(3, {e: rng.normal() for e in exps}))
        q = rng.uniform(-2.0, 2.0, 3)
        rep = osbk.zero_divisor_test(g, q, seed=seed)
        v, w = reference_zero_divisor(g, q, seed=seed)
        assert rep.min_value == v and np.array_equal(rep.witness, w)
        assert rep.witness.shape == (3,) and np.linalg.norm(rep.witness) == pytest.approx(1.0)


class TestLagrangianDeltaDet:
    def test_frozen_value(self, ft_graph):
        # D(q, w) = det(third(q) . w) for n = 2
        val = osbk.lagrangian_delta_det(ft_graph, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert val == pytest.approx(-12.0)

    def test_zero_direction(self, ft_graph):
        assert osbk.lagrangian_delta_det(ft_graph, np.ones(2), np.zeros(2)) == 0.0

    def test_matches_direct_determinant(self, ft_graph):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.normal(size=2)
            w = rng.normal(size=2)
            T = ft_graph.third(q)
            expect = float(np.linalg.det(np.einsum("ijk,k->ij", T, w)))
            assert osbk.lagrangian_delta_det(ft_graph, q, w) == pytest.approx(expect, rel=1e-12, abs=1e-12)
