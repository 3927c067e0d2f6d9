"""Machine speed, measured next to every timed interval.

On a shared host a core's speed drifts. On the 2-core Xeon VM this benchmark
was built on, a fixed loop's median time differed by 1.6x between runs, and a
deterministic op's median by 1.3x. Raw times drift with it, so a run's figures
would measure the neighbours as much as the program. Every timed interval is
therefore also reported at reference speed: its wall time times ``REF_S / r``,
where ``r`` is the mean time of the reference loop measured just before and
just after it. The loop is small-array numpy and scalar math, like osbk's own
inner loops. It is part of the benchmark, so no change to the program can
change it; a program that got slower still reports a larger time.

Set-up is interpreter start-up and imports, which follow the loop poorly, so
it has its own reference: a fresh interpreter importing a fixed set of
standard-library modules and numpy, none of them osbk code.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 1.5e-3  # about the loop's median time on that VM; it only sets the scale of reported times
REPEATS = 3  # loop runs per sample, back to back
STARTUP_REF_S = 0.17  # about the start-up reference's median time on that VM
STARTUP_CODE = (
    "import argparse, asyncio, csv, decimal, email.message, http.client, json, logging, unittest, "
    "xml.etree.ElementTree, numpy"
)

_WEIGHTS = np.linspace(0.1, 1.0, 4)


def _loop() -> float:
    s = 0.0
    for i in range(400):
        x = 1e-3 * i
        v = np.array([math.cos(x), math.sin(x), math.cos(2.0 * x), math.sin(2.0 * x)])
        s += float(v @ _WEIGHTS) + float(np.cos(v).sum())
    return s


def sample() -> list[float]:
    """Wall times of REPEATS back-to-back runs of the reference loop."""
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        out.append(time.perf_counter() - t0)
    return out


def at_reference(seconds: float, before: list[float], after: list[float]) -> float:
    """``seconds`` scaled to the speed at which one reference loop takes REF_S."""
    return seconds * REF_S / statistics.fmean(before + after)


def startup_sample(env: dict[str, str]) -> float:
    """Wall time of one fresh interpreter running STARTUP_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def startup_at_reference(seconds: float, before: float, after: float) -> float:
    """Start-up ``seconds`` scaled to the speed at which the start-up reference takes STARTUP_REF_S."""
    return seconds * STARTUP_REF_S / (0.5 * (before + after))
