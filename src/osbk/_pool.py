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
_WORD_MASK = (1 << 64) - 1


def task_rng(seed: int, task: int) -> np.random.Generator:
    """Random generator for task number ``task`` under master ``seed``.

    Philox is counter based: task k starts its 256-bit counter at k * 2**128,
    so streams never overlap and do not depend on how tasks are scheduled.
    This is the state ``Philox(key=seed).jumped(task)`` reaches, built
    directly instead of through a second bit generator.
    """
    counter = (int(task) << 128) & _COUNTER_MASK
    return np.random.Generator(np.random.Philox(counter=counter, key=int(seed) & _KEY_MASK))


def task_uniform_blocks(seed: int, tasks, blocks, low: float, high: float, count: int = 4) -> np.ndarray:
    """``count`` uniform draws in [low, high) per task, starting at whole Philox blocks.

    Row k equals ``task_rng(seed, tasks[k]).uniform(low, high, count)`` after
    ``blocks`` (an int, or one per task) earlier draws of four doubles on that
    stream. Philox turns one counter value into four 64-bit words, one per
    double, so that position is counter ``tasks[k] * 2**128 + blocks`` with an
    empty buffer, and a draw of more than four runs on through the next
    counters: one bit generator, re-keyed through its state, serves every row
    without building a generator per task.
    """
    tasks = np.asarray(tasks).tolist()
    blocks = np.broadcast_to(blocks, (len(tasks),)).tolist()
    bitgen = np.random.Philox(key=int(seed) & _KEY_MASK)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["buffer_pos"] = 4  # empty: the next draw computes a fresh block
    counter = state["state"]["counter"]
    out = np.empty((len(tasks), count))
    for k, (task, block) in enumerate(zip(tasks, blocks)):
        c = ((int(task) << 128) + int(block)) & _COUNTER_MASK
        counter[:] = [(c >> shift) & _WORD_MASK for shift in (0, 64, 128, 192)]
        bitgen.state = state
        out[k] = gen.uniform(low, high, count)
    return out


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
