"""Reference checks: each op's artifacts against facts known independently of the run.

A check reads the op's ``result.json`` and CSVs and returns a list of
problems; an empty list means the op is verified. Pairs are re-verified with
``osbk.verify_pair`` from the midpoint parameters the run reported, so a
wrong partner cannot pass on its own residual claim.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

PAIR_TOL = 1e-8
DRIFT_TOL = 1e-9
CUBIC_DRIFT_TOL = 1e-10
BRACKET_TOL = 1e-12
VALUE_TOL = 1e-8


def _rows(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


class Checker:
    """Checks ops against the reference tables they were generated from."""

    def __init__(self, tables: dict[str, str]) -> None:
        import osbk

        self._osbk = osbk
        self._specs = {name: osbk.manifold_from_json(json.loads(text)) for name, text in tables.items()}

    def check(self, op, out_dir: Path) -> list[str]:
        try:
            with open(out_dir / "result.json", encoding="utf-8") as fh:
                result = json.load(fh)
            return getattr(self, "_" + op.argv[0].replace("-", "_"))(op, result, out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            return [f"unreadable or incomplete artifacts: {type(e).__name__}: {e}"]

    # -- shared ---------------------------------------------------------------

    def _pair_problems(self, spec, z, zp, u, what: str) -> list[str]:
        rep = self._osbk.verify_pair(spec, z, zp, u)
        worst = max(rep.midpoint_residual, rep.orthogonality_residual)
        return [] if worst <= PAIR_TOL else [f"{what}: verify_pair residual {worst:.3e} > {PAIR_TOL:g}"]

    def _orbit_problems(self, spec, orbit: dict, closed: bool, what: str) -> list[str]:
        verts = orbit["vertices"]
        params = orbit["midpoint_params"]
        chain = verts + [verts[0]] if closed else verts
        if len(chain) != len(params) + 1:
            return [f"{what}: {len(verts)} vertices for {len(params)} midpoints"]
        out: list[str] = []
        for i, u in enumerate(params):
            out += self._pair_problems(spec, chain[i], chain[i + 1], u, f"{what} link {i}")
        return out

    @staticmethod
    def _drift(rows: list[list[float]], cols: list[tuple[int, ...]]) -> float:
        """Worst relative change of each sum of squares along the rows, against row 0."""
        worst = 0.0
        for idx in cols:
            ref = sum(rows[0][i] ** 2 for i in idx)
            for r in rows:
                worst = max(worst, abs(sum(r[i] ** 2 for i in idx) - ref) / abs(ref))
        return worst

    # -- per command ------------------------------------------------------------

    def _step(self, op, result: dict, out_dir: Path) -> list[str]:
        spec = self._specs[op.expect["table"]]
        cands = result["candidates"]
        out: list[str] = []
        for i, c in enumerate(cands):
            out += self._pair_problems(spec, result["source"], c["partner"], c["midpoint_param"], f"candidate {i}")
        # counts are checked only where the route is complete: the numeric
        # Newton route (step-quartic) is best-effort by contract
        lo, hi = op.expect.get("partners", (0, None))
        if len(cands) < lo or (hi is not None and len(cands) > hi):
            out.append(f"{len(cands)} partners, expected at least {lo} and at most {hi}")
        return out

    def _iterate(self, op, result: dict, out_dir: Path) -> list[str]:
        rows = [r[1:] for r in _rows(out_dir / "orbit.csv")]
        steps = op.expect["steps"]
        if result["steps"] != steps or len(rows) != steps + 1:
            return [f"expected {steps} steps, got {result['steps']} and {len(rows) - 1} rows"]
        out: list[str] = []
        if op.expect["table"] == "ellipsoid":
            drift = self._drift(rows, [(0, 1), (2, 3)])
            if drift > DRIFT_TOL:
                out.append(f"ellipsoid invariant drift {drift:.3e} > {DRIFT_TOL:g}")
            return out
        if op.expect["table"] == "circle":
            drift = self._drift(rows, [(0, 1)])
            if drift > DRIFT_TOL:
                out.append(f"|z| drift {drift:.3e} > {DRIFT_TOL:g}")
        # both reference curves start (cos t, sin t, ...), so the midpoint gives t
        spec = self._specs[op.expect["table"]]
        for k in range(steps):
            mid = [0.5 * (a + b) for a, b in zip(rows[k], rows[k + 1])]
            t = math.atan2(mid[1], mid[0])
            out += self._pair_problems(spec, rows[k], rows[k + 1], [t], f"step {k}")
        return out

    def _periodic(self, op, result: dict, out_dir: Path) -> list[str]:
        spec = self._specs[op.expect["table"]]
        out = [] if result["orbits"] else ["no orbit reported"]
        for j, orbit in enumerate(result["orbits"]):
            out += self._orbit_problems(spec, orbit, True, f"orbit {j}")
        return out

    def _shoot(self, op, result: dict, out_dir: Path) -> list[str]:
        osbk = self._osbk
        base = self._specs[op.expect["table"]]
        norm = result["normalization"]
        spec = osbk.ManifoldSpec(base.table, osbk.AffineSymplectic(norm["S"], norm["b"]))
        target = op.expect["value"]
        out: list[str] = []
        for key, sign in (("best_max", 1.0), ("best_min", -1.0)):
            orbit = result[key]
            if orbit is None:
                out.append(f"{key} missing")
                continue
            if abs(orbit["objective"] - sign * target) > VALUE_TOL:
                out.append(f"{key} value {orbit['objective']!r}, expected {sign * target!r}")
            out += self._orbit_problems(spec, orbit, False, key)
        return out

    def _wall(self, op, result: dict, out_dir: Path) -> list[str]:
        got = [p.get("count") for p in result["probes"]]
        want = op.expect["counts"]
        return [] if got == want else [f"probe counts {got}, expected {want}"]

    def _check(self, op, result: dict, out_dir: Path) -> list[str]:
        out: list[str] = []
        if not result["condition_L"]["holds"]:
            out.append("condition (L) fails")
        if not result["condition_LL"]["holds"]:
            out.append("condition (LL) fails")
        vmin = result["convexity"]["min_value"]
        if abs(vmin - op.expect["convexity_min"]) > VALUE_TOL:
            out.append(f"convexity minimum {vmin!r}, expected {op.expect['convexity_min']!r}")
        return out

    def _classify(self, op, result: dict, out_dir: Path) -> list[str]:
        trials = op.expect["trials"]
        hist = {int(k): v for k, v in result["histogram"].items()}
        if op.expect["discriminant"] == "positive":
            ok = result["D"] > 0 and hist == {2: trials}
        else:
            ok = result["D"] < 0 and set(hist) <= {0, 4} and sum(hist.values()) == trials
        return [] if ok else [f"D = {result['D']!r} with histogram {hist}"]

    def _integrability(self, op, result: dict, out_dir: Path) -> list[str]:
        out: list[str] = []
        if result["brackets_max"] > BRACKET_TOL:
            out.append(f"Poisson bracket {result['brackets_max']:.3e} > {BRACKET_TOL:g}")
        rows = [r[1:] for r in _rows(out_dir / "drift.csv")]
        if op.expect["table"] == "ellipsoid":
            # drift.csv holds I_j = x_j^2 + y_j^2 along the orbit
            worst = max(abs(r[j] - rows[0][j]) / abs(rows[0][j]) for r in rows for j in range(len(r)))
            if len(rows) != op.expect["steps"] + 1:
                out.append(f"expected {op.expect['steps'] + 1} audited points, got {len(rows)}")
            if worst > DRIFT_TOL:
                out.append(f"ellipsoid invariant drift {worst:.3e} > {DRIFT_TOL:g}")
        else:
            # drift.csv holds the per-pair integral gap
            worst = max((max(r) for r in rows), default=math.inf)
            if len(rows) != op.expect["pairs"]:
                out.append(f"expected {op.expect['pairs']} pairs, got {len(rows)}")
            if worst > CUBIC_DRIFT_TOL or max(result["audit"]["max_drift"]) > CUBIC_DRIFT_TOL:
                out.append(f"cubic integral drift {worst:.3e} > {CUBIC_DRIFT_TOL:g}")
        return out
