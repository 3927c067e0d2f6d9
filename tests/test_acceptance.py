"""Acceptance suite.

One test per shipped guarantee, each asserting the stated tolerance and
printing a single PASS line with the measured margin. Run with -s to see
the lines; under plain pytest the test name itself carries the verdict.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import osbk
from osbk import GeneratingGraph, MidpointPolygon, Poly
from osbk.wall import ConicPair, CubicForm2

from .oracles import brute_conic_solutions, fd_gradient

CIRCLE_JSON = json.dumps({"kind": "trig", "m": 1, "coeffs": [[[[1], 1.0, 0.0]], [[[1], 0.0, 1.0]]]})
ELL_JSON = json.dumps({"kind": "ellipsoid", "axes": [1.0, 2.0]})
CHEB_JSON = json.dumps(osbk.manifold_to_json(osbk.spec_for(osbk.chebyshev_curve())))
CUBIC_JSON = json.dumps({"kind": "graph", "n": 2, "terms": [[[2, 1], 1.0], [[1, 2], 1.0]], "box": [-5.0, 5.0]})


def test_criterion_01_ellipsoid_conservation():
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        axes = tuple(float(a) for a in rng.uniform(0.5, 3.0, size=d))
        ell = osbk.SymplecticEllipsoid(axes)
        u = rng.normal(size=2 * d)
        z0 = u * np.sqrt(rng.uniform(2.0, 5.0) / ell.level(u))
        orbit = osbk.iterate_ellipsoid(ell, z0, 10_000)
        for j in range(d):
            inv = orbit[:, 2 * j] ** 2 + orbit[:, 2 * j + 1] ** 2
            drift = float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))
            worst = max(worst, drift)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"PASS criterion 1: ellipsoid invariants, rel drift {worst:.2e} over 1e4 steps, {elapsed:.2f}s")


def test_criterion_02_circle_dual_route(circle_spec):
    t0 = time.perf_counter()
    z = np.array([2.0, 0.0])
    expected = {1: np.array([-1.0, np.sqrt(3.0)]), -1: np.array([-1.0, -np.sqrt(3.0)])}

    cands = osbk.step_curve(circle_spec, z)
    assert len(cands) == 2
    scanned = {1 if c.partner[1] > 0 else -1: c.partner for c in cands}
    unit = osbk.SymplecticEllipsoid((1.0,))
    closed_both = [osbk.step_ellipsoid(unit, z, branch=b).partner for b in (1, -1)]
    closed = {1 if p[1] > 0 else -1: p for p in closed_both}
    assert set(closed) == {1, -1}
    for sign, target in expected.items():
        assert np.allclose(scanned[sign], target, atol=1e-10)
        assert np.allclose(closed[sign], target, atol=1e-10)
        assert np.allclose(closed[sign], scanned[sign], atol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: circle step (2,0) -> (-1,+-sqrt3), both routes to 1e-10, {elapsed:.2f}s")


@pytest.mark.parametrize("table", ["chebyshev", "torus"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_criterion_03_odd_periodic_existence(table, n, cheb_spec, torus_spec):
    spec = cheb_spec if table == "chebyshev" else torus_spec
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        res = osbk.find_periodic_orbit(spec, n, starts=64, seed=seed)
        assert not res.failed
        best = res.best
        assert best is not None
        assert not best.orbit.degenerate
        assert best.orbit.max_residual < 1e-8
        assert best.grad_norm < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 3: {table} n={n}, nondegenerate orbit for 3 seeds, {elapsed:.1f}s")


def test_criterion_04_area_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (3, 5, 7, 9):
        for _ in range(1000):
            d = int(rng.integers(1, 3))
            Q = rng.uniform(-3.0, 3.0, size=(n, 2 * d))
            Z = osbk.reconstruct_periodic(Q).vertices
            scale = max(1.0, float(np.max(np.abs(Z))) ** 2)
            diff = abs(osbk.symplectic_area(Z, "periodic") - osbk.gen_fun_periodic(Q))
            assert diff < 1e-9 * scale
            worst = max(worst, diff / scale)
    for n in range(1, 10):
        for _ in range(1000):
            d = int(rng.integers(1, 3))
            Q = rng.uniform(-3.0, 3.0, size=(n, 2 * d))
            Z = osbk.reconstruct_boundary(Q).vertices
            scale = max(1.0, float(np.max(np.abs(Z))) ** 2)
            diff = abs(osbk.symplectic_area(Z, "boundary") - osbk.gen_fun_boundary(Q))
            assert diff < 1e-9 * scale
            worst = max(worst, diff / scale)
    print(f"PASS criterion 4: area identity on 13000 random polygons, worst {worst:.2e} of 1e-9 budget")


def test_criterion_05_chebyshev_even_nonexistence(cheb_spec):
    res = osbk.search_even_periodic(cheb_spec, 4, starts=256, seed=0)
    assert len(res.nondegenerate) == 0
    assert res.converged == len(res.orbits)
    assert res.converged > 0
    for found in res.orbits:
        assert found.orbit.degenerate
    print(
        "PASS criterion 5: chebyshev 4-periodic search, "
        f"{res.converged} converged solutions, all degenerate, none nondegenerate"
    )


def test_criterion_06_cubic_classification():
    ft = osbk.classify_cubic_table(CubicForm2(0.0, 1.0, 1.0, 0.0), trials=1000, seed=5)
    assert ft.D == pytest.approx(1.0)
    assert ft.histogram == {2: 1000}

    diag = osbk.classify_cubic_table(CubicForm2(1.0, 0.0, 0.0, 1.0), trials=1000, seed=5)
    assert diag.D == pytest.approx(-27.0)
    assert set(diag.histogram) == {0, 4}
    assert all(v > 0 for v in diag.histogram.values())
    assert sum(diag.histogram.values()) == 1000

    ruled = osbk.classify_cubic_table(CubicForm2(1.0, 1.0, 0.0, 0.0), trials=64, seed=5)
    assert ruled.D == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ruled.ruling, [0.0, 1.0], atol=1e-9)
    graph = GeneratingGraph(Poly(2, {(3, 0): 1.0, (2, 1): 1.0}))
    w = np.asarray(ruled.ruling, dtype=float)
    w0 = graph.embed(w)
    for t in np.linspace(-3.0, 3.0, 25):
        assert np.max(np.abs(graph.grad(t * w))) <= 1e-10
        assert np.max(np.abs(graph.embed(t * w) - t * w0)) <= 1e-10
    print("PASS criterion 6: D=1 -> {2:1000}, D=-27 -> {0,4} both realized, D=0 -> ruling (0,1), line to 1e-10")


def test_criterion_07_conic_solver_vs_grid():
    rng = np.random.default_rng(41)
    checked = 0
    redraws = 0
    while checked < 200:
        M1, M2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        A1, A2 = M1 + M1.T, M2 + M2.T
        r1, r2 = (float(v) for v in rng.uniform(0.5, 2.0, size=2) * rng.choice([-1, 1], size=2))
        try:
            exact = osbk.conic_intersections(ConicPair(A1, A2), r1, r2)
        except osbk.DegeneratePencilError:
            redraws += 1
            continue
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(exact) for b in exact[i + 1 :]]
        if gaps and min(gaps) < 1e-2:
            redraws += 1  # grid cells cannot separate near-coincident roots
            continue
        brute = brute_conic_solutions(A1, A2, r1, r2)
        assert len(exact) == len(brute)
        for a, b in zip(exact, brute):
            assert np.allclose(a, b, atol=1e-6)
        checked += 1
    print(f"PASS criterion 7: conic solver vs 400x400 grid, 200 instances, {redraws} redraws")


def test_criterion_08_cubic_graph_integrals():
    rng = np.random.default_rng(8)
    worst_pair = worst_bracket = 0.0
    for nv in (2, 3):
        mono = [e for e in itertools.product(range(4), repeat=nv) if sum(e) == 3]
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, size=len(mono))
            graph = GeneratingGraph(Poly(nv, {e: float(c) for e, c in zip(mono, coeffs)}))
            ints = osbk.integrals_for(osbk.spec_for(graph))
            assert ints.kind == "cubic-graph"
            for _ in range(100):
                q = rng.uniform(-1.0, 1.0, nv)
                w = rng.uniform(-1.0, 1.0, nv)
                delta = osbk.interleave(w, graph.hess(q) @ w)
                za = graph.embed(q) - 0.5 * delta
                zb = graph.embed(q) + 0.5 * delta
                gap = float(np.max(np.abs(ints.values(za) - ints.values(zb))))
                assert gap < 1e-10
                worst_pair = max(worst_pair, gap)
            for _ in range(10):  # 100 cubics x 10 points = 1e3 points per arity
                z = rng.uniform(-1.0, 1.0, 2 * nv)
                for fa, fb in itertools.combinations(ints.evaluators, 2):
                    br = abs(osbk.poisson_bracket(fa, fb, z))
                    assert br < 1e-12
                    worst_bracket = max(worst_bracket, br)
    print(
        "PASS criterion 8: cubic-graph integrals, pair gap "
        f"{worst_pair:.2e} < 1e-10, brackets {worst_bracket:.2e} < 1e-12"
    )


def test_criterion_09_gradient_correctness(circle_spec, torus_spec, ell2, ft_spec):
    rng = np.random.default_rng(77)

    def run(spec, draw):
        worst = 0.0
        for k in range(100):
            kind = "periodic" if k % 2 == 0 else "boundary"
            n = int(rng.integers(1, 3)) * 2 + 1 if kind == "periodic" else int(rng.integers(2, 6))
            U = draw(rng, (n, spec.param_dim))
            poly = MidpointPolygon.from_params(spec, U)
            grads = np.concatenate(osbk.grad_gen_fun(spec, poly, kind))
            fun = osbk.gen_fun_periodic if kind == "periodic" else osbk.gen_fun_boundary

            def f(flat):
                pts = np.array([spec.embed(u) for u in flat.reshape(n, -1)])
                return fun(pts)

            fd = fd_gradient(f, U.ravel())
            rel = float(np.linalg.norm(grads - fd) / max(1.0, np.linalg.norm(fd)))
            assert rel < 1e-6
            worst = max(worst, rel)
        return worst

    angles = lambda r, s: r.uniform(0.0, 2.0 * np.pi, s)
    box = lambda r, s: r.uniform(-2.0, 2.0, s)
    margins = {
        "curve": run(circle_spec, angles),
        "surface": run(torus_spec, angles),
        "ellipsoid": run(osbk.spec_for(ell2), angles),
        "graph": run(ft_spec, box),
    }
    worst = max(margins.values())
    print(f"PASS criterion 9: grad vs central differences, 100 configs per kind, worst rel {worst:.2e}")


def test_criterion_10_multiplicity_and_eta(cheb_spec):
    curve = cheb_spec.table
    rng = np.random.default_rng(19)
    delta = 1e-2
    for _ in range(200):
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        gamma = curve.curve_batch(np.array([t]), 0)[0]
        gpp = curve.curve_batch(np.array([t]), 2)[0]
        assert osbk.multiplicity_curve(cheb_spec, gamma + delta * gpp) == 0
        assert osbk.multiplicity_curve(cheb_spec, gamma - delta * gpp) == 2
    eta = osbk.eta_expansion_check(cheb_spec, t_range=(1e-4, 1e-2))
    assert abs(eta - (-0.5)) <= 0.02 * 0.5
    print(f"PASS criterion 10: 200 probes split 0/+ and 2/-, eta {eta:.6f} within 2% of -1/2")


def test_criterion_11_thread_count_determinism(tmp_path):
    cases = {
        "classify": ["classify", "--coeffs", "0,1,1,0", "--trials", "200", "--seed", "3"],
        "periodic": ["periodic", "--manifold", CIRCLE_JSON, "--n", "3", "--starts", "8", "--seed", "1"],
        "integrability": ["integrability", "--manifold", ELL_JSON, "--z", "2,0.1,-1,2.2", "--steps", "300"],
        "iterate-ellipsoid": ["iterate", "--manifold", ELL_JSON, "--z", "2,0.1,-1,2.2", "--steps", "2000"],
        "integrability-cubic": ["integrability", "--manifold", CUBIC_JSON, "--pairs", "50"],
        "even-search": ["even-search", "--manifold", CHEB_JSON, "--n", "4", "--starts", "32"],
    }
    for name, argv in cases.items():
        blobs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"{name}-{threads}"
            env = dict(os.environ, OSBK_THREADS=threads)
            r = subprocess.run(
                [sys.executable, "-m", "osbk.cli", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert r.returncode == 0, r.stderr
            files = sorted(p.name for p in out.iterdir())
            blobs.append({f: (out / f).read_bytes() for f in files})
        assert blobs[0] == blobs[1] == blobs[2]
    print("PASS criterion 11: byte-identical JSON/CSV artifacts at 1, 2, and 8 worker threads")


def test_note_boundary_extremes_on_certified_table(circle_spec):
    rng = np.random.default_rng(2)
    ring = [2.0 * np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
    probes = ring + [np.array([0.3, 0.1]), rng.uniform(-2.0, 2.0, size=2)]
    rep = osbk.check_condition_LL(circle_spec, probes)
    assert rep.holds

    L1, L2 = osbk.coordinate_lagrangian_pair(2)
    expected = {1: 1.0, 2: 2.0 + 2.0 * np.sqrt(2.0), 3: 6.0 + 3.0 * np.sqrt(3.0)}
    values = []
    for n, target in expected.items():
        res = osbk.find_boundary_orbit(circle_spec, L1, L2, n, starts=32, seed=0)
        assert not res.failed
        for found, sign in ((res.best_max, 1.0), (res.best_min, -1.0)):
            assert found is not None
            assert not found.orbit.degenerate
            assert found.grad_norm < 1e-7
            assert found.value == pytest.approx(sign * target, abs=1e-8)
            values.append(found.value)
    gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]]
    assert min(gaps) > 1e-3
    print("PASS note: boundary max/min orbits for n in {1,2,3} distinct and nondegenerate on certified table")
