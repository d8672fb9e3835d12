"""Optional numba JIT gate for the hardware models' scalar recurrences.

PR 5 vectorized everything in the accelerator replay that does not
genuinely chain from one request to the next; what survived are two
scalar recurrences — the DRAM addr/data-bus + bank/stream ready chain in
:meth:`repro.hw.dram.DRAMModel.process_columns` and the exact-LRU recency
update in :func:`repro.hw.cache.simulate_lru_hits`.  Both are pure int64
loops over preallocated arrays, which is exactly the shape ``numba.njit``
compiles well, so this module compiles them when numba is importable and
leaves the tuned pure-Python fallbacks in place when it is not.

The contract is **bit-identical outputs**: the jitted functions run the
same integer arithmetic in the same order as their fallbacks, so the
existing hypothesis oracles (columnar vs. object DRAM/cache models) pin
both paths.  ``nogil=True`` matters beyond single-call latency: it lets
the epoch-parallel replay pool (:mod:`repro.accel.parallel`) scale with
*thread* workers, because the recurrences — the dominant serial
fraction of an epoch — release the GIL while they run.

numba is an optional dependency: the CI image installs it (see
``requirements-ci.txt``), the dev container may not.  Set
``REPRO_NO_NUMBA=1`` to force the pure-Python fallbacks even when numba
is installed — one CI leg runs the quick suite that way so the fallback
path stays covered.
"""

from __future__ import annotations

from typing import Callable

from ..runtime import NO_NUMBA_ENV, env_flag

__all__ = ["HAVE_NUMBA", "jit_recurrence"]

try:
    # REPRO_NO_NUMBA: numba is ignored even if importable.  Lets CI pin
    # the fallback path and lets operators rule numba out when debugging.
    if env_flag(NO_NUMBA_ENV):
        raise ImportError("numba disabled via " + NO_NUMBA_ENV)
    from numba import njit as _njit  # type: ignore[import-not-found]

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - depends on the environment
    _njit = None
    HAVE_NUMBA = False


def jit_recurrence(fn: Callable) -> Callable | None:
    """Compile *fn* with ``njit(cache=True, nogil=True)``, or ``None``.

    Returns ``None`` when numba is absent or disabled, so call sites
    dispatch with a plain ``is not None`` check and keep their fallback
    loop as the only other branch.  ``cache=True`` persists the compiled
    artifact next to the source, so process-pool replay workers do not
    each pay the compile; ``nogil=True`` lets thread-pool replay workers
    overlap the recurrences.
    """
    if not HAVE_NUMBA:
        return None
    return _njit(cache=True, nogil=True)(fn)
