import json
from dataclasses import replace

import numpy as np
import pytest

import osbk
from osbk import cli
from osbk._pool import task_rng
from osbk.core import NOISE_ULPS, interleave
from osbk.integrability import AuditReport, IntegralSet, audit_chords, poisson_bracket

from .conftest import random_symplectic
from .oracles import fd_gradient, reference_audit_chords

FT_JSON = json.dumps({"kind": "graph", "n": 2, "terms": [[[2, 1], 1.0], [[1, 2], 1.0]], "box": [-5.0, 5.0]})
CUBIC3 = osbk.GeneratingGraph(
    osbk.Poly(3, {(2, 1, 0): 1.0, (0, 1, 2): -0.5, (1, 1, 1): 0.7, (3, 0, 0): 0.3}), (-3.0, 3.0)
)


def valid_graph_pair(graph, q, w):
    """A correspondence pair for any generating graph: midpoint embed(q),
    chord (w, H(q) w), which is omega-orthogonal to every tangent vector."""
    delta = osbk.interleave(w, graph.hess(q) @ w)
    return graph.embed(q) - 0.5 * delta, graph.embed(q) + 0.5 * delta


def cli_cubic_chords(graph, seed, pairs):
    """The chords (A, B) of `osbk integrability --pairs` on a cubic graph at ``seed``."""
    rng = task_rng(seed, 2)
    lo, hi = graph.box
    A, B = [], []
    for _ in range(pairs):
        q = rng.uniform(lo, hi, graph.n)
        w = rng.uniform(-1.0, 1.0, graph.n)
        while float(np.linalg.norm(w)) < 1e-3:
            w = rng.uniform(-1.0, 1.0, graph.n)
        g, Hw = graph.grad(q), graph.hess(q) @ w
        A.append(osbk.interleave(q + w, g + Hw))
        B.append(osbk.interleave(q - w, g - Hw))
    return np.array(A), np.array(B)


class TestIntegralsFor:
    def test_ellipsoid_pair_energies(self, ell2):
        ints = osbk.integrals_for(osbk.spec_for(ell2))
        assert ints.kind == "ellipsoid"
        assert len(ints.evaluators) == 2
        z = np.array([1.0, 0.0, 2.0, 0.0])
        assert np.allclose(ints.values(z), [1.0, 4.0])

    def test_cubic_graph_momenta(self, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        assert ints.kind == "cubic-graph"
        assert len(ints.evaluators) == 2
        # z = (q1, p1, q2, p2) = (1, 0, 0, 0): grad F = (2q1q2+q2^2, q1^2+2q1q2) = (0, 1)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(ints.values(z), [0.0, -1.0])

    def test_values_vanish_on_graph(self, ft_graph, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = ft_graph.embed(rng.uniform(-2, 2, size=2))
            assert np.max(np.abs(ints.values(z))) < 1e-12

    def test_trig_tables_unsupported(self, circle_spec):
        with pytest.raises(osbk.DomainError, match="no known integrals"):
            osbk.integrals_for(circle_spec)

    def test_transformed_tables_unsupported(self, ell2):
        T = random_symplectic(2, np.random.default_rng(1))
        with pytest.raises(osbk.DomainError, match="transformed"):
            osbk.integrals_for(osbk.spec_for(ell2, transform=T))

    def test_non_cubic_graph_unsupported(self):
        quartic = osbk.GeneratingGraph(osbk.Poly(2, {(4, 0): 1.0}))
        with pytest.raises(osbk.DomainError):
            osbk.integrals_for(osbk.spec_for(quartic))


class TestEvaluators:
    def test_gradients_match_fd(self, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        rng = np.random.default_rng(5)
        for ev in ints.evaluators:
            z = rng.uniform(-2, 2, size=4)
            assert np.allclose(ev.grad(z), fd_gradient(ev.value, z), atol=1e-6)

    def test_ellipsoid_gradients_match_fd(self, ell2):
        ints = osbk.integrals_for(osbk.spec_for(ell2))
        z = np.array([0.3, -1.2, 0.8, 0.4])
        for ev in ints.evaluators:
            assert np.allclose(ev.grad(z), fd_gradient(ev.value, z), atol=1e-6)


class TestStacks:
    @pytest.mark.parametrize("table", [osbk.SymplecticEllipsoid((0.5, 1.5, 3.0)), "ft"])
    def test_stack_rows_equal_pointwise(self, table, ft_graph):
        ints = osbk.integrals_for(osbk.spec_for(ft_graph if table == "ft" else table))
        evs = ints.evaluators
        Z = np.random.default_rng(6).uniform(-3, 3, size=(16, 2 * len(evs)))
        assert ints.values(Z).shape == (16, len(evs))
        assert np.array_equal(ints.values(Z), [ints.values(z) for z in Z])
        for ev in evs:
            assert np.array_equal(ev.value(Z), [ev.value(z) for z in Z])
            assert np.array_equal(ev.grad(Z), [ev.grad(z) for z in Z])
        b = poisson_bracket(evs[0], evs[1], Z)
        assert b.shape == (16,)
        assert np.array_equal(b, [poisson_bracket(evs[0], evs[1], z) for z in Z])
        assert np.array_equal(poisson_bracket(evs[0].poly, evs[1].poly, Z), b)

    @pytest.mark.parametrize(
        "z",
        [np.ones(3), np.ones((2, 3)), np.ones((2, 2, 4)), np.float64(1.0), np.ones((2, 6)), [1.0, np.nan, 0.0, 0.0],
         [[1.0, 0.0, np.inf, 0.0]]],
        ids=["odd", "odd-stack", "3-d", "scalar", "wrong-dim", "nan", "inf-stack"],
    )
    def test_bad_points_rejected(self, z, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        ev = ints.evaluators[0]
        for call in (ints.values, ev.value, ev.grad, lambda z: poisson_bracket(ev, ints.evaluators[1], z)):
            with pytest.raises(ValueError):
                call(z)

    def test_audit_chords_needs_equal_stacks(self, ft_graph, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        A, B = cli_cubic_chords(ft_graph, 0, 4)
        for a, b in ((A, B[:3]), (A[0], B[0]), (A, np.where(B > 0, np.nan, B))):
            with pytest.raises(ValueError):
                audit_chords(ft_spec, ints, a, b)


class TestPoissonBracket:
    def test_canonical_pairs(self):
        x1 = osbk.PolyIntegral(osbk.Poly(4, {(1, 0, 0, 0): 1.0}))
        y1 = osbk.PolyIntegral(osbk.Poly(4, {(0, 1, 0, 0): 1.0}))
        y2 = osbk.PolyIntegral(osbk.Poly(4, {(0, 0, 0, 1): 1.0}))
        z = np.random.default_rng(2).normal(size=4)
        assert poisson_bracket(x1, y1, z) == pytest.approx(1.0)
        assert poisson_bracket(y1, x1, z) == pytest.approx(-1.0)
        assert poisson_bracket(x1, y2, z) == pytest.approx(0.0)

    def test_ellipsoid_integrals_commute_exactly(self):
        ints = osbk.integrals_for(osbk.spec_for(osbk.SymplecticEllipsoid((0.7, 1.9, 3.0))))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.uniform(-2, 2, size=6)
            for i in range(3):
                for j in range(i + 1, 3):
                    b = poisson_bracket(ints.evaluators[i], ints.evaluators[j], z)
                    assert abs(b) < 1e-12

    def test_cubic_graph_integrals_commute(self, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.uniform(-3, 3, size=4)
            b = poisson_bracket(ints.evaluators[0], ints.evaluators[1], z)
            assert abs(b) < 1e-12 * max(1.0, np.max(np.abs(z)) ** 4)


class TestAuditInvariance:
    def test_ellipsoid_orbit_drift(self, ell2):
        spec = osbk.spec_for(ell2)
        ints = osbk.integrals_for(spec)
        z0 = np.array([2.0, 0.1, -1.0, 2.2])
        orbit = osbk.iterate_ellipsoid(ell2, z0, steps=1000)
        rep = osbk.audit_invariance(spec, ints, orbit)
        assert rep.steps == 1000
        scale = max(1.0, float(np.max(np.abs(ints.values(z0)))))
        assert rep.worst_drift < 1e-10 * scale
        assert rep.worst_step is not None

    @pytest.mark.parametrize("table", ["ellipsoid", "cubic"])
    def test_orbit_audit_evaluates_each_point_once(self, table, ell2, ft_graph, monkeypatch):
        if table == "ellipsoid":
            spec = osbk.spec_for(ell2)
            pts = osbk.iterate_ellipsoid(ell2, np.array([2.0, 0.1, -1.0, 2.2]), steps=300)
        else:
            spec = osbk.spec_for(ft_graph)
            q, w = np.array([0.7, -0.2]), np.array([0.3, 0.4])
            g, Hw = ft_graph.grad(q), ft_graph.hess(q) @ w
            pts = np.array([interleave(q + w, g + Hw), interleave(q - w, g - Hw), interleave(q, g)])
        ints = osbk.integrals_for(spec)
        chords = audit_chords(spec, ints, pts[:-1], pts[1:])
        evaluated = []
        values = IntegralSet.values
        monkeypatch.setattr(IntegralSet, "values", lambda self, z: evaluated.append(len(z)) or values(self, z))
        rep = osbk.audit_invariance(spec, ints, pts)
        assert evaluated == [len(pts)]
        assert np.array_equal(rep.point_values, values(ints, pts))
        assert np.array_equal(rep.chord_drift, chords.chord_drift)
        assert rep.as_dict() == chords.as_dict() and rep.value_scale == chords.value_scale
        assert chords.point_values is None

    def test_cli_drift_csv_reads_the_audited_values(self, tmp_path, monkeypatch):
        evaluated = []
        values = IntegralSet.values
        monkeypatch.setattr(IntegralSet, "values", lambda self, z: evaluated.append(len(z)) or values(self, z))
        man = json.dumps({"kind": "ellipsoid", "axes": [1.0, 2.0]})
        argv = ["integrability", "--manifold", man, "--z", "2,0.1,-1,2.2", "--steps", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert evaluated == [201]
        spec = osbk.manifold_from_json(json.loads(man))
        pts = osbk.iterate(spec, [2.0, 0.1, -1.0, 2.2], 200)
        rows = np.loadtxt(tmp_path / "drift.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:], values(osbk.integrals_for(spec), pts))

    def test_lone_point_orbit_has_no_chords(self, ell2):
        spec = osbk.spec_for(ell2)
        rep = osbk.audit_invariance(spec, osbk.integrals_for(spec), [np.array([2.0, 0.1, -1.0, 2.2])])
        assert rep.steps == 0 and rep.value_scale == 0.0
        assert rep.point_values.shape == (1, 2)

    def test_worst_step_of_rounding_noise_is_the_first_chord(self, ell2):
        # every chord drifts by a few ulp of the integrals; none is worse than another
        spec = osbk.spec_for(ell2)
        ints = osbk.integrals_for(spec)
        orbit = osbk.iterate_ellipsoid(ell2, np.array([2.0, 0.1, -1.0, 2.2]), steps=2000)
        rep = osbk.audit_invariance(spec, ints, orbit)
        assert 0.0 < rep.worst_drift <= NOISE_ULPS * np.spacing(rep.value_scale)
        assert rep.worst_step == 0
        # a drift above the noise band is reported where it is
        drift = rep.chord_drift.copy()
        drift[37, 1] = 1e-9
        assert replace(rep, chord_drift=drift).worst_step == 37

    def test_worst_step_is_the_first_tie_within_noise(self):
        ulp = np.spacing(1.0)
        drift = np.array([[0.0], [1e-3], [1e-3 + 3 * ulp], [1e-3 + 4 * ulp]])
        assert AuditReport(drift, None, None, None, 1.0).worst_step == 1
        assert AuditReport(drift, None, None, None).worst_step == 3  # no scale: exact ties only

    @pytest.mark.parametrize("seed", range(4))
    def test_cubic_chord_noise_is_the_first_chord(self, seed, ft_graph, ft_spec, tmp_path):
        # the chords' drifts are tens of ulp of the largest |I| but below one
        # ulp of the absolute-coefficient bound of the integrals
        assert cli.main(["integrability", "--manifold", FT_JSON, "--pairs", "200", "--seed", str(seed),
                         "--out", str(tmp_path)]) == 0
        audit = json.loads((tmp_path / "result.json").read_text())["audit"]
        assert audit["worst_step"]["index"] == 0
        ints = osbk.integrals_for(ft_spec)
        A, B = cli_cubic_chords(ft_graph, seed, 200)
        rep = audit_chords(ft_spec, ints, A, B)
        assert rep.as_dict() == audit
        largest = float(np.max(np.abs(ints.values(np.concatenate([A, B])))))
        assert NOISE_ULPS * np.spacing(largest) < rep.worst_drift <= np.spacing(rep.value_scale)
        drift = rep.chord_drift.copy()
        drift[37, 0] += 2 * NOISE_ULPS * np.spacing(rep.value_scale)
        assert replace(rep, chord_drift=drift).worst_step == 37

    def test_cubic_pair_sign_convention(self, ft_graph, ft_spec):
        # the endpoint values equal -(1/2) third F(q)[v, v] with v the
        # half-chord; the audit reports that as matched sign "-"
        ints = osbk.integrals_for(ft_spec)
        q = np.array([1.0, 0.0])
        w = np.array([1.0, 0.0])
        z, zp = valid_graph_pair(ft_graph, q, w)
        rep = osbk.audit_invariance(ft_spec, ints, [z, zp])
        assert rep.matched_sign == "-"
        assert rep.mismatch_minus < 1e-12
        assert rep.mismatch_plus > 0.1

    def test_cubic_pair_values_conserved(self, ft_graph, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = rng.uniform(-2, 2, size=2)
            w = rng.uniform(-2, 2, size=2)
            z, zp = valid_graph_pair(ft_graph, q, w)
            # both endpoints carry the same values: -(1/8) third F(q)[w, w]
            # for the full chord w (Taylor of grad F around the midpoint)
            eighth = 0.125 * np.einsum("ijk,j,k->i", ft_graph.third(q), w, w)
            va = ints.values(z)
            vb = ints.values(zp)
            assert np.allclose(va, -eighth, atol=1e-9)
            assert np.allclose(vb, -eighth, atol=1e-9)
            assert np.allclose(va, vb, atol=1e-12)

    def test_audit_accepts_step_candidates(self, ell2):
        spec = osbk.spec_for(ell2)
        ints = osbk.integrals_for(spec)
        z = np.array([2.0, 0.1, -1.0, 2.2])
        cands = [osbk.step_ellipsoid(ell2, z, branch=+1)]
        rep = osbk.audit_invariance(spec, ints, cands)
        assert rep.steps == 1
        assert rep.worst_drift < 1e-10

    def test_zero_chord_skipped(self, ft_graph, ft_spec):
        ints = osbk.integrals_for(ft_spec)
        z = ft_graph.embed(np.array([0.5, -0.5]))
        rep = osbk.audit_invariance(ft_spec, ints, [z, z.copy()])
        assert rep.worst_drift == 0.0

    def test_as_dict_shape(self, ell2):
        spec = osbk.spec_for(ell2)
        ints = osbk.integrals_for(spec)
        orbit = osbk.iterate_ellipsoid(ell2, np.array([2.0, 0.0, 0.0, 1.8]), steps=3)
        d = osbk.audit_invariance(spec, ints, orbit).as_dict()
        assert set(d) >= {"max_drift", "worst_step", "steps"}
        assert d["worst_step"] is None or "index" in d["worst_step"]


class TestAuditParity:
    """The one-pass audit against the per-chord reference audit."""

    def check(self, spec, A, B):
        ints = osbk.integrals_for(spec)
        rep = audit_chords(spec, ints, A, B)
        drift, sign, mis_minus, mis_plus = reference_audit_chords(spec, ints, zip(A, B))
        return rep, drift, sign, mis_minus, mis_plus

    @pytest.mark.parametrize(
        "axes, z0, steps",
        [((1.0, 2.0), (2.0, 0.1, -1.0, 2.2), 2000), ((0.5, 1.5, 3.0), (0.6, 0.1, -1.0, 0.4, 0.2, 2.9), 500)],
    )
    def test_ellipsoid_orbits_bit_equal(self, axes, z0, steps):
        spec = osbk.spec_for(osbk.SymplecticEllipsoid(axes))
        pts = osbk.iterate(spec, z0, steps)
        rep, drift, sign, mis_minus, mis_plus = self.check(spec, pts[:-1], pts[1:])
        assert np.array_equal(rep.chord_drift, drift)
        assert rep.matched_sign is sign is None
        assert rep.mismatch_minus is mis_minus is None and rep.mismatch_plus is mis_plus is None
        assert np.array_equal(osbk.audit_invariance(spec, osbk.integrals_for(spec), pts).chord_drift, drift)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_variable_cubic_bit_equal(self, seed, ft_graph, ft_spec):
        rep, drift, sign, mis_minus, mis_plus = self.check(ft_spec, *cli_cubic_chords(ft_graph, seed, 200))
        assert np.array_equal(rep.chord_drift, drift)
        assert (rep.matched_sign, rep.mismatch_minus, rep.mismatch_plus) == (sign, mis_minus, mis_plus)
        assert sign == "-"

    @pytest.mark.parametrize("seed", range(3))
    def test_three_variable_cubic_bit_equal(self, seed):
        spec = osbk.spec_for(CUBIC3)
        rep, drift, sign, mis_minus, mis_plus = self.check(spec, *cli_cubic_chords(CUBIC3, seed, 200))
        assert np.array_equal(rep.chord_drift, drift)
        assert (rep.matched_sign, rep.mismatch_minus, rep.mismatch_plus) == (sign, mis_minus, mis_plus)
        assert sign == "-"
