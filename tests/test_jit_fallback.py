"""The optional numba fast path and its pure-Python fallback.

:mod:`repro.hw.jit` compiles the one surviving scalar recurrence — the
DRAM bus/bank/stream timing chain — when numba is importable, and hands
back ``None`` otherwise so the call site keeps its tuned pure-Python
loop.  The contract is **bit-identical outputs** on both paths; the
jit-vs-fallback comparison here only runs where numba exists (the CI
image), while the gate/dispatch tests run everywhere (the dev container
has no numba, which is itself a covered configuration).  The LRU cache
simulation is state-free array code with nothing to compile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import cache as hw_cache
from repro.hw import dram as hw_dram
from repro.hw import jit as hw_jit


class TestNumbaGate:
    def test_jit_recurrence_matches_have_numba(self):
        """jit_recurrence returns a compiled callable iff numba loaded."""
        compiled = hw_jit.jit_recurrence(lambda x: x)
        assert (compiled is not None) == hw_jit.HAVE_NUMBA

    def test_module_level_jit_consistent(self):
        """The dram module holds a jit exactly when numba loaded."""
        assert (hw_dram._bus_recurrence_jit is not None) == hw_jit.HAVE_NUMBA


def _bus_columns(rng, n=400, bank_count=8, stream_count=5):
    return (
        np.ascontiguousarray(rng.integers(0, bank_count, n), dtype=np.int64),
        np.ascontiguousarray(rng.integers(0, stream_count, n), dtype=np.int64),
        np.ascontiguousarray(rng.integers(1, 6, n), dtype=np.int64),
        np.ascontiguousarray(rng.integers(1, 48, n), dtype=np.int64),
        np.ascontiguousarray(rng.integers(1, 9, n), dtype=np.int64),
        np.ascontiguousarray(rng.integers(0, 20, n), dtype=np.int64),
        bank_count,
        stream_count,
    )


@pytest.mark.skipif(not hw_jit.HAVE_NUMBA, reason="numba absent or disabled")
class TestJitEqualsFallback:
    """Where numba exists, the compiled recurrence must be bit-identical
    to the pure-Python original on arbitrary valid columns."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bus_recurrence(self, seed):
        args = _bus_columns(np.random.default_rng(seed))
        assert int(hw_dram._bus_recurrence_jit(*args)) == int(
            hw_dram._bus_recurrence(*args)
        )


class TestPublicDispatch:
    """Whichever path is active, the public entry points agree with the
    object-model references (belt over the hypothesis oracles)."""

    def test_simulate_lru_hits_vs_reference_cache(self):
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 4096, 500) * 8
        hits = hw_cache.simulate_lru_hits(
            addresses, capacity_bytes=2048, line_bytes=64, associativity=4
        )
        reference = hw_cache.SetAssociativeCache(
            capacity_bytes=2048, line_bytes=64, associativity=4
        )
        expected = np.array([reference.access(int(a)) for a in addresses])
        assert np.array_equal(hits, expected)
