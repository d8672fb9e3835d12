"""Host-speed reference: one small fixed kernel, timed between pieces of work.

The box this benchmark was sized on changes speed by up to 2x for tens of
seconds at a time (a fixed pure-Python loop alone on the machine read
50 -> 73 ms, CPU time moving with wall time: neighbours on the physical
core, not anything inside the VM).  No estimator over a 10 s run survives
that, so every CPU-bound host timing is divided by how slow the host was
*while it was taken*: the drivers call :func:`kernel_seconds` between steps
of the measured work (every ~25 ms in a closed loop, every 40 ms on the
open-loop driver thread), and a duration measured over an interval counts
as ``seconds / speed_factor(samples in that interval)`` — seconds on a host
running the kernel in :data:`REFERENCE_S`.

The kernel is three slices of what the measured code is made of — a bytecode
loop, a dict build and look-up, and a run of NumPy calls on 256-element
arrays (mask, concatenate, unique, gather, cumsum, searchsorted: the shape of
one lockstep search step) — chosen by measurement.  Over 1 100 ``offline-search``
passes in a noisy five minutes a pass's wall time had a log standard
deviation of 0.19 raw and 0.067 over this kernel (bytecode alone 0.095, dict
0.084, small NumPy 0.074, a large random gather 0.11); the median pass time
per 10 s window spread 23 % raw (range 45 %) against 2.9 % normalised (range
10 %), and the fitted exponent of pass time against kernel time was 1.0.  It
shares no code with ``repro``, so a change to the program moves a normalised
metric exactly as it moves the raw one.  It is timed in *thread CPU* seconds
so a wait for the interpreter lock on the open-loop driver thread is not
mistaken for a slow host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "kernel_seconds", "speed_factor"]

#: Kernel CPU seconds on the reference host state (the quiet reading of the
#: box the baseline was taken on).  Fixed: changing it rescales every
#: normalised metric.
REFERENCE_S = 1.0e-3

_ROUNDS = 4_000
_WORDS = tuple(str(number) for number in range(3_000))
_RNG = np.random.default_rng(0)
_KEYS = _RNG.integers(0, 1 << 20, size=256)
_SYMBOLS = _RNG.integers(0, 4, size=256)
_TABLE = _RNG.integers(0, 1 << 20, size=(4_096, 4))


def kernel_seconds() -> float:
    """Run the kernel once; its thread-CPU seconds (about a millisecond)."""
    started = time.thread_time()
    total = 0
    for i in range(_ROUNDS):
        total += i * i % 7
    index = {word: position for position, word in enumerate(_WORDS)}
    for word in _WORDS:
        total += index[word]
    for _ in range(6):
        active = _KEYS > 1_000
        doubled = np.concatenate([_KEYS[active], _KEYS[active]])
        unique, inverse = np.unique(doubled, return_inverse=True)
        gathered = _TABLE[unique % 4_096, 1].astype(np.int64)[inverse]
        lows = np.zeros(256, dtype=np.int64)
        highs = np.full(256, 7, dtype=np.int64)
        lows[active] = gathered[: int(active.sum())] + _SYMBOLS[active]
        np.searchsorted(np.cumsum(lows), highs)
        np.any(lows < highs)
        np.argsort(_KEYS, kind="stable")
        np.bincount(_SYMBOLS, minlength=4)
    return time.thread_time() - started


def speed_factor(samples) -> float:
    """How slow the host ran while *samples* were taken: median kernel
    seconds over the reference (1.0 = reference speed, 2.0 = half speed)."""
    return statistics.median(samples) / REFERENCE_S
