"""Optional numba JIT gate for the hardware models' scalar recurrence.

The accelerator replay is array code everywhere that does not genuinely
chain from one request to the next; what survives is one scalar
recurrence — the DRAM addr/data-bus + bank/stream ready chain in
:meth:`repro.hw.dram.DRAMModel.process_columns`.  (The cache simulation
needs no gate: :func:`repro.hw.cache.simulate_lru_hits` evaluates LRU by
stack distance, array code with no recency state to step through.)  The
recurrence is a pure int64 loop over preallocated arrays, which is
exactly the shape ``numba.njit`` compiles well, so this module compiles
it when numba is importable and leaves the tuned pure-Python loop in
place when it is not.

The contract is **bit-identical outputs**: the jitted function runs the
same integer arithmetic in the same order as its fallback, so the
existing hypothesis oracle (columnar vs. object DRAM model) pins both
paths.  ``nogil=True`` matters beyond single-call latency: it lets the
epoch-parallel replay pool (:mod:`repro.accel.parallel`) scale with
*thread* workers, because the recurrence — the dominant serial fraction
of an epoch — releases the GIL while it runs.

numba is an optional dependency: the CI image installs it (see
``requirements-ci.txt``), the dev container may not.  Set
``REPRO_NO_NUMBA=1`` to force the pure-Python loop even when numba is
installed — one CI leg runs the quick suite that way so the fallback
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
    overlap the recurrence.
    """
    if not HAVE_NUMBA:
        return None
    return _njit(cache=True, nogil=True)(fn)
