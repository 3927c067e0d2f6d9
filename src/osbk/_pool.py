"""Deterministic seeding for multi-start work.

Start i of a search draws from ``task_rng(seed, i)``, a counter-split
random stream keyed by (master seed, task index), so no result depends on
how the starts are evaluated. The searches run all starts in lockstep on
stacked arrays; there is no worker pool.
"""

from __future__ import annotations

import os

import numpy as np

_ENV_VAR = "OSBK_THREADS"
_KEY_MASK = (1 << 128) - 1
_COUNTER_MASK = (1 << 256) - 1


def task_rng(seed: int, task: int) -> np.random.Generator:
    """Random generator for task number ``task`` under master ``seed``.

    Philox is counter based: task k starts its 256-bit counter at k * 2**128,
    so streams never overlap and do not depend on how tasks are scheduled.
    This is the state ``Philox(key=seed).jumped(task)`` reaches, built
    directly instead of through a second bit generator.
    """
    counter = (int(task) << 128) & _COUNTER_MASK
    return np.random.Generator(np.random.Philox(counter=counter, key=int(seed) & _KEY_MASK))


def thread_count() -> int:
    """Cpu count capped by the OSBK_THREADS environment variable.

    osbk itself no longer reads this: nothing runs on threads. It stays
    because the benchmark's tracer (``perfbench/spans.py``) looks it up by
    name when it installs its hooks; it goes once the tracer takes its
    counts from osbk instead.
    """
    n = os.cpu_count() or 1
    cap = os.environ.get(_ENV_VAR)
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            n = 1
    return max(1, n)
