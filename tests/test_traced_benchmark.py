"""The benchmark's traced mode hooks osbk names from outside the package.

``perfbench/spans.py`` looks several osbk names up when ``--trace 1`` installs
its hooks (the ``minimize_scalar`` imported into ``correspondence`` and
``manifolds``, ``_pool.thread_count``, ...). A rename of any of them crashes
the traced benchmark; this test makes it fail here first.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import osbk
from osbk import cli
from osbk.core import interleave

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# (cos t, sin 2t): not convex, so the convexity profile is refined with minimize_scalar
LISSAJOUS = {"kind": "trig", "m": 1, "coeffs": [[[[1], 1.0, 0.0]], [[[2], 0.0, 1.0]]]}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("osbk_perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_check_records_minimize_scalar_spans(spans, tmp_path):
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rec.op_id, rec.active = 0, True
        rc = cli.main(["check", "--manifold", json.dumps(LISSAJOUS), "--out", str(tmp_path / "check")])
        rec.active = False
    finally:
        uninstall()
    assert rc == 0
    names = [rec.names[i] for i in rec.name]
    assert names.count("scipy.minimize_scalar") == 2  # argmin and argmax refinement
    assert "manifolds.symplectic_convexity_profile" in names
    metrics = spans.layer_metrics(rec, 1)
    assert metrics["scipy.minimize_scalar.calls"] == 2.0
    assert metrics["manifolds.checks_ms"] > 0.0


def test_uninstall_restores_every_hooked_name(spans):
    from osbk import correspondence, manifolds

    before = (correspondence.minimize_scalar, manifolds.minimize_scalar, osbk.step_curve)
    spans.install(spans.Recorder())()
    assert (correspondence.minimize_scalar, manifolds.minimize_scalar, osbk.step_curve) == before


def test_traced_step_on_the_quartic_graph_records_partials_spans(spans, tmp_path):
    # the benchmark's step-quartic table; the tracer wraps every public method,
    # Poly.partials included, and must leave it as it found it
    graph = osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0, (4, 0): 0.1}), (-3.0, 3.0))
    q, w = np.array([0.6, -0.4]), np.array([0.3, 0.2])
    z = interleave(q + w, graph.grad(q) + graph.hess(q) @ w)
    table = json.dumps(osbk.manifold_to_json(osbk.spec_for(graph)))
    before = osbk.Poly.partials
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rec.op_id, rec.active = 0, True
        argv = ["step", "--manifold", table, f"--z={','.join(map(repr, z.tolist()))}", "--starts", "64"]
        rc = cli.main([*argv, "--out", str(tmp_path / "step")])
        rec.active = False
    finally:
        uninstall()
    assert rc == 0
    names = [rec.names[i] for i in rec.name]
    assert names.count("poly.Poly.partials") >= 1
    assert json.loads((tmp_path / "step" / "result.json").read_text())["count"] >= 1
    assert osbk.Poly.partials is before


def test_traced_wall_probes_and_step_keep_the_scan_hook(spans, tmp_path):
    # the wall's probes go through one stacked scan, which the tracer does not
    # see; a step still calls scan_curve_roots, whose hook reads .history
    cheb = osbk.chebyshev_curve()
    probes = [(cheb.deriv(t, 0) + s * 1e-2 * cheb.deriv(t, 2)).tolist() for t in (0.4, 2.0) for s in (1.0, -1.0)]
    table = json.dumps(osbk.manifold_to_json(osbk.spec_for(cheb)))
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rec.op_id, rec.active = 0, True
        argv = ["wall", "--manifold", table, "--t-count", "64", f"--probes={json.dumps(probes)}"]
        rc_wall = cli.main([*argv, "--out", str(tmp_path / "wall")])
        rc_step = cli.main(["step", "--manifold", table, "--z=2.5,0.3,-0.4,1.1", "--out", str(tmp_path / "step")])
        rec.active = False
    finally:
        uninstall()
    assert (rc_wall, rc_step) == (0, 0)
    names = [rec.names[i] for i in rec.name]
    assert "wall.multiplicity_curve_stack" in names
    metrics = spans.layer_metrics(rec, 1)
    assert metrics["correspondence.scan.calls"] == names.count("correspondence.scan_curve_roots") >= 1
    assert metrics["correspondence.scan.grid_points"] == 9 * metrics["correspondence.scan.calls"]
