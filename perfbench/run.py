"""Benchmark entry point: one workload, one client, closed loop, in-process CLI calls.

    python3 perfbench/run.py --workload orbit-search --seed 0 --seconds 30 --trace 0

Each op is one ``osbk.cli.main(argv)`` call writing ``result.json`` and CSVs
under ``perfbench/.work``; the next op starts when the previous one has
returned and been checked. ``--trace 0`` times ops with no instrumentation and
reports the end-to-end metrics; ``--trace 1`` runs the same ops plain and then
traced, and reports the per-layer metrics. End-to-end times are reported at
the reference speed of ``speed.py``; raw wall times are printed on ``#``
lines. Metric names and units come from ``BENCHMARK.json``. The last line of
stdout is the JSON result; the exit code is 1 when any op failed its
reference or determinism check.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 7
IMPORT_PROBES = 3
WALL_LIMIT_S = 140.0  # stop issuing ops here whatever --seconds says; a run must end within 180 s

sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import osbk.cli
import workloads
workloads.build_tables()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _child_env() -> dict[str, str]:
    return dict(os.environ, OSBK_THREADS="1")


def setup_seconds(probes: int) -> list[tuple[float, float]]:
    """Fresh-interpreter time until the first op could start: import osbk.cli and build the tables.

    One (raw, at reference speed) pair of seconds per probe; start-up
    reference probes run between them.
    """
    out = []
    before = speed.startup_sample(_child_env())
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)], stdout=subprocess.PIPE, env=_child_env()
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = speed.startup_sample(_child_env())
        out.append((elapsed, speed.startup_at_reference(elapsed, before, after)))
        before = after
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of osbk (top-level osbk entries), numpy and scipy.optimize from ``-X importtime``."""
    osbk_us, first = 0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, col = int(parts[1]), parts[2]
        name = col.strip()
        first.setdefault(name, cumulative)
        if name.split(".")[0] == "osbk" and len(col) - len(col.lstrip()) == 1:
            osbk_us += cumulative
    return {
        "import.osbk_ms": osbk_us / 1e3,
        "import.numpy_ms": first.get("numpy", 0) / 1e3,
        "import.scipy_optimize_ms": first.get("scipy.optimize", 0) / 1e3,
    }


def import_ms(probes: int) -> dict[str, float]:
    runs = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import osbk.cli"],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OSBK_THREADS": os.environ["OSBK_THREADS"],
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def digest_dir(path: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every file in ``path``, and their total size."""
    h, size = hashlib.sha256(), 0
    for f in sorted(path.iterdir()) if path.is_dir() else ():
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        size += len(data)
    return h.hexdigest(), size


class Bench:
    """Runs ops in a closed loop and keeps one record per executed op."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        import osbk.cli
        from checks import Checker

        self.cli = osbk.cli
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tables = workloads.build_tables()
        self.checker = Checker(self.tables)
        self.cycle = len(workloads.WORKLOADS[workload].kinds)
        self.records: list[dict] = []
        self.recorder = None

    def op(self, index: int) -> workloads.Op:
        return workloads.make_op(self.workload, self.tables, self.seed, index)

    def run(self, op: workloads.Op, phase: str) -> dict:
        out = WORK / "ops" / f"{phase}-{op.index}"
        argv = [*op.argv, "--out", str(out)]
        rec = self.recorder
        before = speed.sample()
        if rec is not None:
            rec.op_id, rec.active = op.index, True
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # an uncaught exception is a failed op, not a failed benchmark
            traceback.print_exc()
            code = None
        latency = time.perf_counter() - t0
        if rec is not None:
            rec.active = False
        ref_latency = speed.at_reference(latency, before, speed.sample())
        problems = [f"exit code {code}"] if code != 0 else self.checker.check(op, out)
        digest, size = digest_dir(out)
        shutil.rmtree(out, ignore_errors=True)
        record = {
            "index": op.index, "kind": op.kind, "phase": phase, "latency_s": latency,
            "ref_latency_s": ref_latency, "digest": digest, "bytes_out": size, "problems": problems,
        }
        if problems:
            print(f"op {op.index} ({op.kind}, {phase}) failed: {problems[:3]}", file=sys.stderr)
        self.records.append(record)
        return record

    def run_warmup(self) -> None:
        """One untimed cycle: lazy imports and first-call set-up finish before timing, and
        its artifacts are the first set the determinism check compares against."""
        for i in range(self.cycle):
            self.run(self.op(i), "warmup")

    def window(self, seconds: float, phase: str) -> list[dict]:
        """Whole cycles of ops from index 0 until their summed latency reaches ``seconds``."""
        out: list[dict] = []
        busy = 0.0
        while True:
            out.append(self.run(self.op(len(out)), phase))
            busy += out[-1]["latency_s"]
            if (len(out) % self.cycle == 0 and busy >= seconds) or time.monotonic() >= self.deadline:
                return out

    def determinism_problems(self) -> int:
        """Mark every op whose artifacts differ from another run of the same op; return how many."""
        by_index: dict[int, list[dict]] = {}
        for r in self.records:
            if not r["problems"]:
                by_index.setdefault(r["index"], []).append(r)
        bad = 0
        for group in by_index.values():
            if len({r["digest"] for r in group}) > 1:
                for r in group:
                    r["problems"].append("artifacts differ between runs of the same op")
                    bad += 1
        return bad


def latency_metrics(ops: list[dict], key: str) -> tuple[dict, tuple[float, float, int]]:
    """ops_per_s, op_p50_ms and op_tail_ms from the op latencies under ``key``."""
    lat = [r[key] for r in ops]
    kinds = [r["kind"] for r in ops]
    ok = sum(1 for r in ops if not r["problems"])
    p50 = stats.typical(lat, kinds)
    pct, ratio, beyond = stats.relative_tail(lat, kinds)
    return {"ops_per_s": ok / sum(lat), "op_p50_ms": 1e3 * p50, "op_tail_ms": 1e3 * p50 * ratio}, (pct, ratio, beyond)


def timed_metrics(bench: Bench, args: argparse.Namespace) -> tuple[dict, dict]:
    setup = setup_seconds(SETUP_PROBES)
    bench.run_warmup()
    ops = bench.window(args.seconds, "timed")
    metrics, (pct, ratio, beyond) = latency_metrics(ops, "ref_latency_s")
    raw, _ = latency_metrics(ops, "latency_s")
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        **metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw["setup_s"] = statistics.median(wall for wall, _ in setup)
    extra = {
        "raw": raw, "setup_probes_s": setup, "tail_percentile": pct, "tail_ratio": ratio, "tail_beyond": beyond,
        "timed_ops": len(ops), "reference_loop_s": statistics.median(speed.sample()), "reference_s": speed.REF_S,
    }
    return metrics, extra


def traced_metrics(bench: Bench, args: argparse.Namespace) -> tuple[dict, dict]:
    import spans

    imports = import_ms(IMPORT_PROBES)
    bench.run_warmup()
    plain = bench.window(args.seconds / 2.0, "plain")
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    bench.recorder = rec
    try:
        traced = [bench.run(bench.op(r["index"]), "traced") for r in plain]
    finally:
        bench.recorder = None
        uninstall()
    metrics = spans.layer_metrics(rec, len(traced))
    metrics["cli.bytes_out"] = statistics.fmean(r["bytes_out"] for r in traced)
    metrics.update(imports)
    # at reference speed, so a drift in machine speed between the two passes is not read as overhead
    metrics["trace.overhead_ratio"] = sum(r["ref_latency_s"] for r in traced) / sum(r["ref_latency_s"] for r in plain)
    with gzip.open(WORK / f"spans-{args.workload}.csv.gz", "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("span,name,layer,start_s,end_s,parent,op\n")
        for i, nid in enumerate(rec.name):
            fh.write(f"{i},{rec.names[nid]},{rec.layers[nid]},{rec.start[i]!r},{rec.end[i]!r},{rec.parent[i]},{rec.op[i]}\n")
    return metrics, {"spans": len(rec), "traced_ops": len(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "osbk" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {SRC / 'osbk'} or {ROOT / 'BENCHMARK.json'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    os.environ["OSBK_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK / "ops", ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, time.monotonic() + WALL_LIMIT_S)
    metrics, extra = (traced_metrics if args.trace else timed_metrics)(bench, args)

    mismatched = bench.determinism_problems()
    failed = sum(1 for r in bench.records if r["problems"])
    attempted = len(bench.records)
    metrics["fail_ratio"] = failed / attempted
    metrics = {name: metrics[name] for name in units}  # exactly the declared metrics, in declared order
    prov = provenance(args)
    warm = hashlib.sha256("".join(r["digest"] for r in bench.records if r["phase"] == "warmup").encode()).hexdigest()

    for key, value in prov.items():
        print(f"# {key}: {value}")
    print(f"# ops: {attempted} executed, {failed} failed (fail_ratio {failed / attempted!r}), "
          f"{mismatched} with differing artifacts")
    print(f"# first-cycle artifact digest: {warm}")
    if not args.trace:
        print(f"# op_tail_ms is op_p50_ms times p{extra['tail_percentile']:g} of latency over its kind's median "
              f"({extra['tail_ratio']:.4f}), over {extra['timed_ops']} ops, {extra['tail_beyond']} beyond it")
        print(f"# reference loop: {1e3 * extra['reference_loop_s']:.4f} ms now, {1e3 * speed.REF_S:g} ms at reference speed")
        for name, value in extra["raw"].items():
            print(f"# raw wall time {name:22s} {value!r}")
    for name, value in metrics.items():
        print(f"{name:36s} {value!r} {units[name]}")

    report = {"provenance": prov, "metrics": metrics, "extra": extra, "first_cycle_digest": warm, "ops": bench.records}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(WORK / "ops", ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
