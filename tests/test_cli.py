import contextlib
import importlib.metadata
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osbk
from osbk import cli
from osbk._pool import task_rng

from .oracles import reference_csv_text, reference_fmt

CIRCLE = {"kind": "trig", "m": 1, "coeffs": [[[[1], 1.0, 0.0]], [[[1], 0.0, 1.0]]]}
LAG_PLANE = {"kind": "trig", "m": 1, "coeffs": [[[[1], 1.0, 0.0]], [], [[[1], 0.0, 1.0]], []]}
ELL = {"kind": "ellipsoid", "axes": [1.0, 2.0]}
FT = {"kind": "graph", "n": 2, "terms": [[[1, 2], 1.0], [[2, 1], 1.0]], "box": [-5.0, 5.0]}
# the benchmark's quartic table, stepped by the multi-start Newton route
QUARTIC = {"kind": "graph", "n": 2, "terms": [[[2, 1], 1.0], [[1, 2], 1.0], [[4, 0], 0.1]], "box": [-3.0, 3.0]}
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(osbk.__file__).resolve().parents[1]))


def run(argv, capsys=None):
    rc = cli.main(argv)
    if capsys is None:
        return rc, None, None
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def man(d):
    return json.dumps(d)


class TestConfigHandling:
    def test_missing_required_param(self, capsys):
        rc, _, err = run(["step", "--manifold", man(CIRCLE)], capsys)
        assert rc == 3
        assert json.loads(err)["error"]["code"] == "config"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifold": CIRCLE, "command": {"name": "step", "z": [2, 0]}, "odd": 1}))
        rc, _, err = run(["step", "--config", str(cfg)], capsys)
        assert rc == 3
        assert "odd" in json.loads(err)["error"]["message"]

    def test_unknown_command_param(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifold": CIRCLE, "command": {"name": "step", "z": [2, 0], "k": 1}}))
        rc, _, err = run(["step", "--config", str(cfg)], capsys)
        assert rc == 3

    def test_command_name_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifold": CIRCLE, "command": {"name": "iterate", "z": [2, 0]}}))
        rc, _, err = run(["step", "--config", str(cfg)], capsys)
        assert rc == 3

    def test_unknown_flag_exits_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["step", "--manifold", man(CIRCLE), "--z", "2,0", "--bogus", "1"])
        assert exc.value.code == 3

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifold": CIRCLE, "command": {"name": "step", "z": [2, 0]}, "seed": 5}))
        rc, out, _ = run(["step", "--config", str(cfg), "--seed", "9"], capsys)
        assert rc == 0
        assert json.loads(out)["seed"] == 9

    def test_manifold_from_file_reference(self, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text(man(CIRCLE))
        rc, out, _ = run(["step", "--manifold", f"@{mf}", "--z", "2,0"], capsys)
        assert rc == 0
        assert json.loads(out)["count"] == 2

    def test_bad_seed_rejected(self, capsys):
        rc, _, err = run(["step", "--manifold", man(CIRCLE), "--z", "2,0", "--seed", "-1"], capsys)
        assert rc == 3

    def test_bad_tolerances_key_rejected(self, capsys):
        for tols in ('{"slack": 1}', '{"dedup": 1e-6}'):
            rc, _, err = run(["step", "--manifold", man(CIRCLE), "--z", "2,0", "--tolerances", tols], capsys)
            assert rc == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["step", "--manifold", man(CIRCLE), "--z", "2,0", "--tolerances", "5"],
            ["step", "--manifold", man(CIRCLE), "--z", "2,0", "--tolerances", '{"residual": -1}'],
            ["step", "--manifold", man(CIRCLE), "--z", "2,0", "--tolerances", '{"residual": NaN}'],
            ["classify", "--coeffs", "0,1,1,0", "--trials", "0"],
            ["classify", "--coeffs", "0,1,1,0", "--trials", "-3"],
            ["iterate", "--manifold", man(CIRCLE), "--z", "2,0", "--steps", "-5"],
            ["classify", "--coeffs", "nan,0,0,1"],
            ["classify", "--coeffs", "inf,0,0,1"],
            ["check", "--manifold", man(CIRCLE), "--probes", "[[NaN, 0.0]]"],
            ["iterate", "--manifold", man(CIRCLE), "--z", "2,0", "--steps", "3", "--branch", "0"],
            ["iterate", "--manifold", man(CIRCLE), "--z", "2,0", "--steps", "3", "--branch", "7"],
        ],
        ids=["tolerances-number", "tolerance-negative", "tolerance-nan", "trials-0", "trials-negative",
             "steps-negative", "classify-nan", "classify-inf", "probes-nan", "branch-0", "branch-7"],
    )
    def test_out_of_range_value_rejected(self, argv, capsys):
        rc, _, err = run(argv, capsys)
        assert rc == 3
        assert json.loads(err)["error"]["code"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["step", "--manifold", man(CIRCLE), "--z", "2,0"],
            ["iterate", "--manifold", man(CIRCLE), "--z", "2,0", "--steps", "3"],
            ["wall", "--manifold", man(CIRCLE), "--t-count", "8"],
        ],
        ids=["step", "iterate", "wall"],
    )
    def test_removed_grid_flag_rejected(self, argv, capsys, tmp_path):
        # the curve root solve has no grid, so the flag is gone, not ignored;
        # a command line that does not parse names no --out, so no error.json
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "run"), "--grid", "8"])
        assert exc.value.code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config" and "--grid" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_manifold_required(self, capsys):
        rc, _, err = run(["step", "--z", "2,0"], capsys)
        assert rc == 3

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["step", "--manifold", man(CIRCLE)], "--z", "-2,0"),
            (["classify", "--trials", "50"], "--coeffs", "-1,0,0,1"),
            (["wall", "--manifold", man(CIRCLE), "--t-count", "8"], "--plane-grid", "-0.5,0.5"),
        ],
        ids=["step-z", "classify-coeffs", "wall-plane-grid"],
    )
    def test_negative_list_after_a_space(self, tmp_path, argv, flag, value):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert cli.main([*argv, flag, value, "--out", str(spaced)]) == 0
        assert cli.main([*argv, f"{flag}={value}", "--out", str(joined)]) == 0
        names = sorted(p.name for p in joined.iterdir())
        assert sorted(p.name for p in spaced.iterdir()) == names
        for name in names:
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    def test_option_after_list_flag_is_not_a_value(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["step", "--manifold", man(CIRCLE), "--z", "--seed", "1"])
        assert exc.value.code == 3

    def test_library_value_error_becomes_config_error(self, capsys):
        rc, _, err = run(["classify", "--coeffs", "0,0,0,0"], capsys)
        assert rc == 3
        assert json.loads(err)["error"]["code"] == "config"


# argv fuzz vocabulary: the flags of every command plus removed and unknown ones,
# and values of every kind; the leading counts keep each run small
_FUZZ_BASE = {
    "step": ["--z", "2,0"],
    "iterate": ["--z", "2,0", "--steps", "3"],
    "periodic": ["--n", "3", "--starts", "4"],
    "wall": ["--t-count", "8"],
    "classify": ["--coeffs", "0,1,1,0", "--trials", "20"],
    "integrability": ["--steps", "5", "--pairs", "4", "--bracket-points", "4"],
    "check": ["--samples", "8", "--probe-count", "2"],
}
_FUZZ_MANIFOLDS = [
    man(CIRCLE), man(LAG_PLANE), man(ELL), man(FT), "{", "[]", '{"kind": "nope"}', '{"kind": "trig", "m": 1}',
    '{"kind": "ellipsoid", "axes": [-1]}', '{"kind": "graph", "n": 2, "terms": [[[1], 1.0]]}', "@/nonexistent.json",
]
_FUZZ_FLAGS = [
    "--grid", "--z", "--steps", "--branch", "--starts", "--n", "--mode", "--t-count", "--plane-grid", "--probes",
    "--trials", "--coeffs", "--samples", "--seed", "--tolerances", "--pairs", "--bogus", "--manifold", "--config",
]
_FUZZ_VALUES = [
    "0", "1", "-1", "3", "1.5", "2,0", "-2,0", "0,0,0,0", "2,0,1,0", "nan", "1e400", "x", "", "max", "both",
    "[[2,0]]", "[[NaN,0]]", "[]", "{}", '{"residual": 1e-9}', '{"slack": 1}', "-0.5,0.5",
]


class TestArgvFuzz:
    @settings(max_examples=100)
    @given(
        st.sampled_from(sorted(_FUZZ_BASE)),
        st.sampled_from(_FUZZ_MANIFOLDS),
        st.lists(st.tuples(st.sampled_from(_FUZZ_FLAGS), st.sampled_from(_FUZZ_VALUES)), max_size=3),
    )
    def test_exit_code_and_error_json(self, command, manifold, extra):
        argv = [command, *_FUZZ_BASE[command], "--manifold", manifold, *(t for pair in extra for t in pair)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
        assert rc in (0, 2, 3), (argv, err.getvalue())
        if rc:
            assert isinstance(json.loads(err.getvalue())["error"]["code"], str)


class TestStep:
    def test_frozen_partners_and_csv(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["step", "--manifold", man(CIRCLE), "--z", "2,0", "--out", str(out)])
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert d["count"] == 2
        partners = sorted((c["partner"] for c in d["candidates"]), key=lambda p: p[1])
        assert np.allclose(partners, [[-1.0, -np.sqrt(3)], [-1.0, np.sqrt(3)]], atol=1e-9)
        header = (out / "candidates.csv").read_text().splitlines()[0]
        assert header.startswith("index,")
        assert "residual" in header

    def test_interior_point_zero_candidates_is_success(self, capsys):
        rc, out, _ = run(["step", "--manifold", man(CIRCLE), "--z", "0.2,0"], capsys)
        assert rc == 0
        assert json.loads(out)["count"] == 0

    def test_lagrangian_plane_source_is_domain_error(self, capsys):
        # every midpoint is a partner of a source in the curve's Lagrangian plane
        rc, out, err = run(["step", "--manifold", man(LAG_PLANE), "--z", "0,0,0,0"], capsys)
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "domain"

    def test_result_json_is_sorted_with_trailing_newline(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["step", "--manifold", man(CIRCLE), "--z", "2,0", "--out", str(out)])
        text = (out / "result.json").read_text()
        assert text.endswith("\n")
        d = json.loads(text)
        assert text == json.dumps(d, indent=2, sort_keys=True) + "\n"

    def test_numeric_graph_route_reports_its_starts(self, tmp_path):
        # z = (q + w, grad F(q) + H(q) w) has the partner (q - w, grad F(q) - H(q) w)
        graph = osbk.manifold_from_json(QUARTIC).table
        q, w = np.array([0.6, -0.4]), np.array([0.3, 0.2])
        z = osbk.interleave(q + w, graph.grad(q) + graph.hess(q) @ w)
        out = tmp_path / "r"
        argv = ["step", "--manifold", man(QUARTIC), f"--z={','.join(map(repr, z.tolist()))}", "--starts", "16"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        d = json.loads((out / "result.json").read_text())
        assert d["count_is_lower_bound"] is True
        assert d["starts"] == 16
        assert d["count"] + d["rejected"] <= d["converged_starts"] <= 16
        assert d["count"] >= 1

    def test_exact_routes_carry_no_start_counts(self, capsys):
        for argv in (["--manifold", man(CIRCLE), "--z", "2,0"], ["--manifold", man(FT), "--z", "1,0.5,-0.3,2"]):
            rc, out, _ = run(["step", *argv], capsys)
            assert rc == 0
            assert not {"starts", "converged_starts", "count_is_lower_bound"} & set(json.loads(out))


class TestIterate:
    def test_circle_orbit_is_period_three(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["iterate", "--manifold", man(CIRCLE), "--z", "2,0", "--steps", "6", "--out", str(out)])
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert np.allclose(d["end"], d["start"], atol=1e-9)
        rows = (out / "orbit.csv").read_text().splitlines()
        assert rows[0] == "index,x1,y1"
        assert len(rows) == 8  # header + start + 6 steps

    def test_ellipsoid_iterate(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(
            ["iterate", "--manifold", man(ELL), "--z", "2,0.1,-1,2.2", "--steps", "20", "--out", str(out)]
        )
        assert rc == 0
        rows = (out / "orbit.csv").read_text().splitlines()
        assert rows[0] == "index,x1,y1,x2,y2"
        assert len(rows) == 22

    @pytest.mark.parametrize("z", ["0.5,0,0,0", "1,0,0,0"])
    def test_ellipsoid_source_on_or_inside_is_domain_error(self, capsys, z):
        rc, out, err = run(["iterate", "--manifold", man(ELL), "--z", z, "--steps", "3"], capsys)
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "domain"
        assert error["message"].startswith("source must lie strictly outside the ellipsoid")

    def test_no_partner_is_search_failure_and_graph_is_config_error(self, capsys):
        rc, _, err = run(["iterate", "--manifold", man(CIRCLE), "--z", "0.1,0", "--steps", "3"], capsys)
        assert rc == 2
        error = json.loads(err)["error"]
        assert error == {"code": "search-failed", "message": "no partner in the chosen direction after 0 steps"}
        rc, _, err = run(["iterate", "--manifold", man(FT), "--z", "1,0,0,0", "--steps", "3"], capsys)
        assert rc == 3
        assert json.loads(err)["error"]["code"] == "config"


class TestPeriodic:
    def test_circle_triangle(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["periodic", "--manifold", man(CIRCLE), "--n", "3", "--starts", "8", "--out", str(out)])
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert d["best"]["area"] == pytest.approx(3 * np.sqrt(3), abs=1e-8)
        assert d["best"]["degenerate"] is False
        assert (out / "orbit.csv").exists()

    def test_orbit_round_trips_through_verify(self, tmp_path, circle_spec):
        out = tmp_path / "r"
        cli.main(["periodic", "--manifold", man(CIRCLE), "--n", "3", "--starts", "8", "--out", str(out)])
        d = json.loads((out / "result.json").read_text())
        Z = np.array(d["best"]["vertices"])
        params = np.array(d["best"]["midpoint_params"])
        n = Z.shape[0]
        for i in range(n):
            rep = osbk.verify_pair(circle_spec, Z[i], Z[(i + 1) % n], params[i])
            assert rep.midpoint_residual < 1e-8
            assert rep.orthogonality_residual < 1e-7

    def test_even_n_rejected(self, capsys):
        rc, _, err = run(["periodic", "--manifold", man(CIRCLE), "--n", "4"], capsys)
        assert rc == 3

    def test_flat_table_exits_two(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc, _, err = run(
            ["periodic", "--manifold", man(LAG_PLANE), "--n", "3", "--starts", "4", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert json.loads(err)["error"]["code"] == "flat-objective"
        stored = json.loads((out / "error.json").read_text())
        assert stored["error"]["code"] == "flat-objective"


class TestEvenSearch:
    def test_circle_squares(self, capsys):
        rc, out, _ = run(["even-search", "--manifold", man(CIRCLE), "--n", "4", "--starts", "24"], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["nondegenerate_found"] > 0

    def test_chebyshev_none_nondegenerate(self, tmp_path):
        cheb = osbk.manifold_to_json(osbk.spec_for(osbk.chebyshev_curve()))
        out = tmp_path / "r"
        rc = cli.main(["even-search", "--manifold", man(cheb), "--n", "4", "--starts", "24", "--out", str(out)])
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert d["nondegenerate_found"] == 0
        assert not (out / "orbit.csv").exists()

    def test_ellipsoid_rank_deficient_trials_do_not_end_the_search(self, capsys):
        # the ellipsoid chart has rank-deficient parameters; starts that reach
        # one are rejected steps or dropped starts, not an error for the search
        for starts in ("4", "16"):
            rc, out, err = run(["even-search", "--manifold", man(ELL), "--n", "4", "--starts", starts], capsys)
            assert rc == 0, err
            d = json.loads(out)
            assert all(o["max_residual"] <= 1e-8 for o in d["orbits"])


class TestShoot:
    def test_circle_chords_frozen(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["shoot", "--manifold", man(CIRCLE), "--n", "1", "--starts", "8", "--out", str(out)])
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert d["best_max"]["objective"] == pytest.approx(1.0, abs=1e-8)
        assert d["best_min"]["objective"] == pytest.approx(-1.0, abs=1e-8)
        assert (out / "orbit_max.csv").exists()
        assert (out / "orbit_min.csv").exists()

    def test_explicit_lagrangians(self, capsys):
        l1 = json.dumps({"base": [0.0, 0.0], "basis": [[1.0, 0.0]]})
        l2 = json.dumps({"base": [0.0, 0.0], "basis": [[0.0, 1.0]]})
        rc, out, _ = run(
            ["shoot", "--manifold", man(CIRCLE), "--n", "1", "--starts", "8", "--l1", l1, "--l2", l2],
            capsys,
        )
        assert rc == 0
        d = json.loads(out)
        assert d["best_max"]["objective"] == pytest.approx(1.0, abs=1e-8)

    def test_graph_runaway_starts_are_a_search_failure(self, capsys):
        # every converged start leaves the box (-5, 5) of the cubic graph
        rc, _, err = run(["shoot", "--manifold", man(FT), "--n", "2", "--starts", "8"], capsys)
        assert rc == 2
        assert json.loads(err)["error"]["code"] == "search-failed"

    @pytest.mark.parametrize("command, n", [("periodic", "3"), ("shoot", "2")])
    def test_ellipsoid_search_is_a_search_failure(self, capsys, command, n):
        # every start reaches the ellipsoid chart's rank-deficient set, where it ends
        rc, out, err = run([command, "--manifold", man(ELL), "--n", n, "--starts", "16"], capsys)
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "search-failed"
        assert error["message"].endswith("starts ended at a rank-deficient chart point")

    def test_bad_lagrangian_keys_rejected(self, capsys):
        l1 = json.dumps({"base": [0.0, 0.0], "basis": [[1.0, 0.0]], "name": "x"})
        rc, _, err = run(["shoot", "--manifold", man(CIRCLE), "--n", "1", "--l1", l1], capsys)
        assert rc == 3


class TestResidualTolerance:
    """The `residual` tolerance filters the orbits that periodic, shoot and even-search report."""

    TIGHT = ["--tolerances", json.dumps({"residual": 1e-30})]

    @pytest.mark.parametrize("command, n", [("periodic", "3"), ("shoot", "1")])
    def test_no_orbit_within_is_a_search_failure(self, capsys, command, n):
        argv = [command, "--manifold", man(CIRCLE), "--n", n, "--starts", "8"]
        assert run(argv, capsys)[0] == 0
        rc, _, err = run(argv + self.TIGHT, capsys)
        assert rc == 2
        assert json.loads(err)["error"] == {"code": "search-failed", "message": "no orbit within the residual tolerance"}

    def test_even_search_reports_no_orbit(self, capsys):
        argv = ["even-search", "--manifold", man(CIRCLE), "--n", "4", "--starts", "24"]
        assert json.loads(run(argv, capsys)[1])["nondegenerate_found"] > 0
        rc, out, _ = run(argv + self.TIGHT, capsys)
        d = json.loads(out)
        assert rc == 0
        assert (d["orbits"], d["nondegenerate_found"]) == ([], 0)

    def test_shoot_best_orbits_come_from_the_kept_ones(self, capsys):
        argv = ["shoot", "--manifold", man(CIRCLE), "--n", "2", "--starts", "8"]
        full = json.loads(run(argv, capsys)[1])["orbits"]
        tol = sorted(o["max_residual"] for o in full)[1]
        d = json.loads(run(argv + ["--tolerances", json.dumps({"residual": tol})], capsys)[1])
        assert d["orbits"] == [o for o in full if o["max_residual"] <= tol]
        assert 0 < len(d["orbits"]) < len(full)
        assert (d["best_max"], d["best_min"]) == (d["orbits"][0], d["orbits"][-1])


class TestWall:
    def test_csv_layout_and_probe_counts(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(
            [
                "wall",
                "--manifold",
                man(CIRCLE),
                "--t-count",
                "4",
                "--probes",
                "[[2.0,0.0],[0.1,0.0],[1.0,0.0]]",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        by_point = {tuple(p["point"]): p for p in d["probes"]}
        assert by_point[(2.0, 0.0)]["count"] == 2
        assert by_point[(0.1, 0.0)]["count"] == 0
        on_wall = by_point[(1.0, 0.0)]
        assert on_wall["error"]["code"] == "unstable-count"
        assert (on_wall["error"]["lower"], on_wall["error"]["upper"]) == (0, 2)
        lines = (out / "wall.csv").read_text().splitlines()
        assert lines[0] == "t,s1,s2,x1,y1,singular_residual"
        assert len(lines) == 5
        assert (out / "multiplicity.csv").exists()

    def test_probe_entries_equal_one_probe_calls(self, tmp_path):
        # probes either side of the Chebyshev curve's wall, plus one on the
        # curve, which is refused: every entry is what multiplicity_curve says
        # for that probe alone
        spec = osbk.spec_for(osbk.chebyshev_curve())
        probes = [spec.table.deriv(0.0, 0).tolist()]
        for t in np.random.default_rng(7).uniform(0.0, 2 * np.pi, 5):
            g0, g2 = spec.table.deriv(t, 0), spec.table.deriv(t, 2)
            probes += [(g0 + 1e-2 * g2).tolist(), (g0 - 1e-2 * g2).tolist()]
        out = tmp_path / "w"
        table = man(osbk.manifold_to_json(spec))
        argv = ["wall", "--manifold", table, "--t-count", "16", f"--probes={json.dumps(probes)}", "--out", str(out)]
        assert cli.main(argv) == 0
        entries = json.loads((out / "result.json").read_text())["probes"]
        assert [e["point"] for e in entries] == probes
        for point, entry in zip(probes, entries):
            try:
                want = {"count": osbk.multiplicity_curve(spec, point)}
            except osbk.OsbkError as e:
                want = {"error": {"code": e.code, "message": str(e), "lower": e.lower, "upper": e.upper}}
            assert {k: v for k, v in entry.items() if k != "point"} == want
        assert entries[0]["error"]["code"] == "unstable-count"
        assert sorted(e["count"] for e in entries[1:]) == [0] * 5 + [2] * 5
        counts = (out / "multiplicity.csv").read_text().splitlines()
        assert [int(row.split(",")[0]) for row in counts[1:]] == list(range(1, 11))

    def test_singular_residual_constant_for_circle(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["wall", "--manifold", man(CIRCLE), "--t-count", "8", "--out", str(out)])
        rows = (out / "wall.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[-1]) == pytest.approx(-1.0, abs=1e-9)


class TestClassify:
    def test_ft_table(self, capsys):
        rc, out, _ = run(["classify", "--coeffs", "0,1,1,0", "--trials", "32"], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["D"] == pytest.approx(1.0)
        assert d["class"] == "multiplicity-2"
        assert d["resultant"] == pytest.approx(-3.0, abs=1e-9)
        assert d["histogram"] == {"2": 32}

    def test_ruled_table(self, capsys):
        rc, out, _ = run(["classify", "--coeffs", "1,1,0,0", "--trials", "8"], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["class"] in ("ruled", "boundary")
        assert np.allclose(d["ruling"], [0.0, 1.0], atol=1e-9)


class TestIntegrability:
    def test_ellipsoid_drift_csv(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(
            ["integrability", "--manifold", man(ELL), "--z", "2,0.1,-1,2.2", "--steps", "50", "--out", str(out)]
        )
        assert rc == 0
        d = json.loads((out / "result.json").read_text())
        assert d["kind"] == "ellipsoid"
        assert d["brackets_max"] <= 1e-12
        assert max(d["audit"]["max_drift"]) < 1e-10
        lines = (out / "drift.csv").read_text().splitlines()
        assert lines[0] == "step,I_1,I_2"
        assert len(lines) == 52  # header + start + 50 steps

    def test_ellipsoid_requires_start(self, capsys):
        rc, _, err = run(["integrability", "--manifold", man(ELL)], capsys)
        assert rc == 3

    def test_graph_pairs(self, capsys):
        rc, out, _ = run(["integrability", "--manifold", man(FT), "--pairs", "10"], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["kind"] == "cubic-graph"
        assert d["pairs"] == 10
        assert max(d["audit"]["max_drift"]) < 1e-9
        assert d["audit"]["matched_sign"] == "-"

    def test_trig_table_rejected(self, capsys):
        rc, _, err = run(["integrability", "--manifold", man(CIRCLE), "--z", "2,0"], capsys)
        assert rc == 2
        assert json.loads(err)["error"]["code"] == "domain"


class TestCheck:
    def test_circle_all_hold(self, capsys):
        rc, out, _ = run(["check", "--manifold", man(CIRCLE)], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["condition_L"]["holds"] is True
        assert d["condition_LL"]["holds"] is True
        assert d["convexity"]["convex"] is True

    def test_lagrangian_plane_curve_fails(self, capsys):
        rc, out, _ = run(["check", "--manifold", man(LAG_PLANE)], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["condition_L"]["holds"] is False

    def test_explicit_probes(self, capsys):
        rc, out, _ = run(["check", "--manifold", man(CIRCLE), "--probes", "[[2.0,0.0]]"], capsys)
        assert rc == 0
        d = json.loads(out)
        assert d["condition_LL"]["probes"] == [[2.0, 0.0]]


# a circle of radius 1e200: the product of two of its chords overflows
HUGE_CIRCLE = {"kind": "trig", "m": 1, "coeffs": [[[[1], 1e200, 0.0]], [[[1], 0.0, 1e200]]]}


class TestOutOfRangeTables:
    @pytest.mark.parametrize(
        "axes, argv", [([1e-300, 1.0], ["step", "--z", "2,0,0,1"]), ([1e300, 1.0], ["iterate", "--z", "2e160,0,0,1"])]
    )
    def test_ellipsoid_axis_squares_must_be_normal_floats(self, capsys, axes, argv):
        rc, out, err = run([argv[0], "--manifold", man({"kind": "ellipsoid", "axes": axes}), *argv[1:]], capsys)
        assert (rc, out) == (3, "")
        e = json.loads(err)["error"]
        assert e["code"] == "config"
        assert f"axis {axes[0]!r} is out of range" in e["message"]

    def test_check_names_the_overflowing_magnitude(self, capsys):
        rc, _, err = run(["check", "--manifold", man(HUGE_CIRCLE)], capsys)
        assert rc == 2
        e = json.loads(err)["error"]
        assert e["code"] == "domain"
        assert "2.000e+200" in e["message"]

    @pytest.mark.parametrize("argv", [["periodic", "--n", "3"], ["even-search", "--n", "2"]])
    def test_failed_linear_algebra_is_not_a_config_error(self, capsys, argv):
        rc, _, err = run([argv[0], "--manifold", man(HUGE_CIRCLE), *argv[1:]], capsys)
        assert rc == 2
        assert json.loads(err)["error"]["code"] == "linalg"

    def test_empty_trig_table_says_so(self, capsys):
        rc, _, err = run(["step", "--manifold", man({"kind": "trig", "m": 1, "coeffs": [[], []]}), "--z", "2,0"], capsys)
        assert rc == 3
        assert "no nonzero term" in json.loads(err)["error"]["message"]

    def test_auto_probes_equal_one_draw_per_probe(self, cheb_spec):
        X = cheb_spec.embed(osbk.manifolds.sample_params(cheb_spec, 32))
        lo, hi = X.min(axis=0), X.max(axis=0)
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo) + 1.0
        for seed in (0, 7, 2**40 + 3, 2**64 - 1):
            rng = task_rng(seed, 3)
            want = [center + rng.uniform(-1.5, 1.5, X.shape[1]) * half for _ in range(9)]
            assert [p.tobytes() for p in cli._auto_probes(cheb_spec, 9, seed)] == [p.tobytes() for p in want]


class TestCsvWriter:
    """The one-template writer against the per-value oracle writer."""

    CASES = {
        "step-circle": ["step", "--manifold", man(CIRCLE), "--z", "2,0"],
        "step-quartic": ["step", "--manifold", man(QUARTIC), "--z", "0.9,0.53,-0.2,-0.92", "--starts", "16"],
        "iterate-circle": ["iterate", "--manifold", man(CIRCLE), "--z", "2,0.3", "--steps", "12"],
        "iterate-ellipsoid": ["iterate", "--manifold", man(ELL), "--z", "2,0.1,-1,2.2", "--steps", "400"],
        "periodic": ["periodic", "--manifold", man(CIRCLE), "--n", "3", "--starts", "8"],
        "shoot": ["shoot", "--manifold", man(CIRCLE), "--n", "2", "--starts", "8"],
        "wall": [
            "wall",
            "--manifold",
            man(CIRCLE),
            "--t-count",
            "8",
            "--plane-grid=-1,0,0.5",
            "--probes",
            "[[2.0,0.0],[0.1,0.0],[1.0,0.0],[-0.0,3.5]]",
        ],
        "integrability-ellipsoid": ["integrability", "--manifold", man(ELL), "--z", "2,0.1,-1,2.2", "--steps", "300"],
        "integrability-cubic": ["integrability", "--manifold", man(FT), "--pairs", "40"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_csv_equals_the_oracle_writer(self, name, tmp_path, monkeypatch):
        written = []
        write = cli._write_csv

        def keep(path, header, rows):
            rows = list(rows)
            written.append((path, header, rows))
            write(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", keep)
        assert cli.main([*self.CASES[name], "--out", str(tmp_path)]) == 0
        assert written
        for path, header, rows in written:
            assert rows
            assert Path(path).read_bytes() == reference_csv_text(header, rows).encode()

    def test_crafted_rows(self, tmp_path):
        header = ["index", "x1", "y1", "count", "on_wall", "degenerate"]
        rows = [
            (0, -0.0, 5e-324, 0, True, False),
            (np.int64(1), 1e16, 2**53, np.int64(2**53), False, np.True_),
            (2**53, np.float64(0.1), np.float64(-5e-324), 7, np.False_, True),
            (3, float("inf"), -float("inf"), 1, 0, 1),
            (4, float("nan"), 2.0**-1074 * 3, 2, 1, 0),
        ]
        path = tmp_path / "crafted.csv"
        cli._write_csv(str(path), header, iter(rows))
        assert path.read_bytes() == reference_csv_text(header, rows).encode()
        assert path.read_text().splitlines()[1:3] == [
            "0,-0,4.9406564584124654e-324,0,1,0",
            "1,10000000000000000,9007199254740992,9007199254740992,0,1",
        ]

    def test_float_template_equals_format_on_random_bit_patterns(self):
        x = np.random.default_rng(3).integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False).view(np.float64)
        values = x.tolist() + [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324]
        assert ["%.17g" % v for v in values] == [reference_fmt(v) for v in values]


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_classify_bytes_stable_across_thread_counts(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("OSBK_THREADS", threads)
        out = tmp_path / f"t{threads}"
        rc = cli.main(["classify", "--coeffs", "0,1,1,0", "--trials", "64", "--seed", "7", "--out", str(out)])
        assert rc == 0
        blob = (out / "result.json").read_bytes()
        ref_dir = tmp_path.parent / "classify_ref"
        ref = ref_dir / "result.json"
        if ref.exists():
            assert blob == ref.read_bytes()
        else:
            ref_dir.mkdir(exist_ok=True)
            ref.write_bytes(blob)

    def test_repeat_run_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cli.main(["periodic", "--manifold", man(CIRCLE), "--n", "3", "--starts", "8", "--out", str(out)])
            outs.append((out / "result.json").read_bytes() + (out / "orbit.csv").read_bytes())
        assert outs[0] == outs[1]


class TestParserReuse:
    def test_cached_parser_is_stateless(self, tmp_path, capsys):
        # errors first, then valid runs: the one parser main builds per process
        # must carry nothing from one call to the next
        with pytest.raises(SystemExit) as exc:
            cli.main(["step", "--manifold", man(FT), "--z", "1,0.5,-0.3,2", "--bogus", "1"])
        assert exc.value.code == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "config"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifold": FT, "command": {"name": "step", "z": [1, 0.5, -0.3, 2]}, "odd": 1}))
        rc, _, err = run(["step", "--config", str(cfg)], capsys)
        assert rc == 3 and json.loads(err)["error"]["code"] == "config"
        valid = {
            "step": ["step", "--manifold", man(FT), "--z", "1,0.5,-0.3,2", "--seed", "5"],
            "classify": ["classify", "--coeffs=0,1,1,0", "--trials", "50", "--seed", "5"],
        }
        for name, argv in valid.items():
            assert cli.main([*argv, "--out", str(tmp_path / "in" / name)]) == 0
            fresh = tmp_path / "fresh" / name
            r = subprocess.run(
                [sys.executable, "-m", "osbk.cli", *argv, "--out", str(fresh)], capture_output=True, env=SRC_ENV
            )
            assert r.returncode == 0, r.stderr
            files = sorted(p.name for p in fresh.iterdir())
            assert "result.json" in files
            assert sorted(p.name for p in (tmp_path / "in" / name).iterdir()) == files
            for f in files:
                assert (tmp_path / "in" / name / f).read_bytes() == (fresh / f).read_bytes()
        assert cli._build_parser() is cli._build_parser()


class TestEntryPoint:
    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "osbk.cli", "step", "--manifold", man(CIRCLE), "--z", "2,0"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["count"] == 2

    def test_import_and_curve_commands_do_not_load_scipy(self, tmp_path):
        # every command is a fresh process, so scipy's import cost would be paid by each one
        cheb = man(osbk.manifold_to_json(osbk.spec_for(osbk.chebyshev_curve())))
        code = (
            "import json, sys\n"
            "import osbk, osbk.cli\n"
            "out, cheb, circle = sys.argv[1:4]\n"
            "assert osbk.cli.main(['check', '--manifold', cheb, '--out', out + '/check']) == 0\n"
            "assert osbk.cli.main(['step', '--manifold', cheb, '--z=2.5,0.3,-0.4,1.1', '--out', out + '/step']) == 0\n"
            "assert osbk.cli.main(['even-search', '--manifold', circle, '--n', '4', '--starts', '8', '--out', out + '/even']) == 0\n"
            "print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')))\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), cheb, man(CIRCLE)], capture_output=True, text=True, env=SRC_ENV
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == []
        assert json.loads((tmp_path / "step" / "result.json").read_text())["count"] >= 2
        assert json.loads((tmp_path / "even" / "result.json").read_text())["nondegenerate_found"] > 0

    def test_even_search_runs_from_the_command_line(self):
        r = subprocess.run(
            [sys.executable, "-m", "osbk.cli", "even-search", "--manifold", man(CIRCLE), "--n", "4", "--starts", "8"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["nondegenerate_found"] > 0

    def test_console_script(self, tmp_path, monkeypatch):
        # Stand in for an install: write the launcher that pip generates for the
        # `osbk` entry of [project.scripts] and run it against this tree's src.
        toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
        src = Path(osbk.__file__).resolve().parents[1]
        scripts = toml.loads((src.parent / "pyproject.toml").read_text())["project"]["scripts"]
        ep = importlib.metadata.EntryPoint(name="osbk", value=scripts["osbk"], group="console_scripts")
        launcher = tmp_path / "bin" / "osbk"
        launcher.parent.mkdir()
        launcher.write_text(
            f"#!{sys.executable}\nimport sys\nfrom {ep.module} import {ep.attr}\nsys.exit({ep.attr}())\n"
        )
        launcher.chmod(0o755)
        monkeypatch.setenv("PATH", os.pathsep.join([str(launcher.parent), os.environ.get("PATH", "")]))
        monkeypatch.setenv("PYTHONPATH", str(src))
        r = subprocess.run(["osbk", "classify", "--coeffs", "1,0,0,1", "--trials", "8"], capture_output=True, text=True)
        assert r.returncode == 0
        assert json.loads(r.stdout)["D"] == pytest.approx(-27.0)
