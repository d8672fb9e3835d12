"""The compiled DRAM bus recurrence, its loader and the pure-Python loop.

:mod:`repro.hw.native` builds the one surviving scalar recurrence — the
DRAM bus/bank/stream timing chain — from C on first use and loads it
with ctypes; :func:`repro.hw.dram._bus_recurrence` is the Python loop it
is specified by and falls back to.  The contract is **bit-identical
outputs** on both paths, and a failed build is a warning, never an
exception or a different number.  The LRU cache simulation is state-free
array code with nothing to compile.
"""

from __future__ import annotations

import os
import pathlib
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.hw import cache as hw_cache
from repro.hw import dram as hw_dram
from repro.hw import native
from repro.hw.dram import DDR4Config, DRAMModel, MemoryRequest, MemoryTrace, PagePolicy
from repro.runtime import PURE_PYTHON_ENV

SOURCE_TREE = pathlib.Path(repro.__file__).resolve().parent


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _bound(commands, latencies, bursts, bumps) -> int:
    """The guard's bound: count * the sum of the column peaks."""
    columns = (commands, latencies, bursts, bumps)
    return len(commands) * sum(max(0, int(max(c, default=0))) for c in columns)


@st.composite
def bus_columns(draw):
    count = draw(st.integers(0, 60))
    bank_count = draw(st.integers(1, 8))
    stream_count = draw(st.integers(1, 6))
    # Small cycles, or peaks sized so count * Σ peaks lands around 2**63.
    near_guard = draw(st.booleans())
    peak = (native.INT64_END // (4 * max(count, 1))) if near_guard else 50
    peak = draw(st.integers(peak - 2, peak + 2)) if near_guard else peak

    def column(low, high):
        values = draw(st.lists(st.integers(low, high), min_size=count, max_size=count))
        if near_guard and values:
            values[draw(st.integers(0, count - 1))] = high  # the peak the guard sees
        return _int64(values)

    return (
        column(0, bank_count - 1),
        column(0, stream_count - 1),
        column(1, peak),
        column(0, peak),
        column(1, peak),
        column(0, peak),
        bank_count,
        stream_count,
    )


@pytest.fixture
def compiled(monkeypatch):
    """Force the compiled kernel on, whatever ``REPRO_PURE_PYTHON`` says."""
    monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
    monkeypatch.setattr(native, "_kernel", native._UNRESOLVED)
    assert native.kernel_active(), "this host has a C compiler: the kernel must load"


@pytest.fixture
def spec_calls(monkeypatch):
    """Count the Python loop's runs inside ``process_columns``."""
    calls = []
    spec = hw_dram._bus_recurrence

    def counted(*args):
        calls.append(len(args[0]))
        return spec(*args)

    monkeypatch.setattr(hw_dram, "_bus_recurrence", counted)
    return calls


@pytest.fixture
def unresolved(monkeypatch, tmp_path):
    """A process that has not resolved the kernel yet, caching in *tmp_path*."""
    monkeypatch.setattr(native, "_kernel", native._UNRESOLVED)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


def _requests(seed: int, count: int = 300) -> list[MemoryRequest]:
    rng = np.random.default_rng(seed)
    return [
        MemoryRequest(
            row=int(rng.integers(0, 90)),
            nbytes=int(rng.integers(1, 700)),
            keep_open_hint=bool(rng.integers(0, 2)),
            stream=int(rng.integers(0, 7)),
        )
        for _ in range(count)
    ]


class TestCompiledEqualsSpec:
    @given(bus_columns())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_oracle(self, compiled, args):
        result = native.bus_recurrence(*args)
        if _bound(*args[2:6]) >= native.INT64_END:
            assert result is None
        else:
            assert result == hw_dram._bus_recurrence(*args)

    @pytest.mark.parametrize(
        "banks, streams",
        [([], []), ([0] * 40, list(range(40))), (list(range(40)), [0] * 40)],
        ids=["empty", "one-bank", "one-stream"],
    )
    def test_edge_shapes(self, compiled, banks, streams):
        count = len(banks)
        ones = _int64([1] * count)
        args = (_int64(banks), _int64(streams), ones, 16 * ones, 4 * ones, 16 * ones)
        args += (max(banks, default=0) + 1, max(streams, default=0) + 1)
        assert native.bus_recurrence(*args) == hw_dram._bus_recurrence(*args)

    def test_guard_edge(self, compiled):
        # Four requests whose cycles sum to just under 2**63 still run
        # compiled and agree; one more cycle of headroom and they do not.
        peak = (native.INT64_END - 1) // 4
        zeros = _int64([0] * 4)
        args = [zeros, zeros, zeros, zeros, _int64([peak] * 4), zeros, 1, 1]
        assert native.bus_recurrence(*args) == hw_dram._bus_recurrence(*args) == 4 * peak
        args[4] = _int64([peak + 1] * 4)
        assert native.bus_recurrence(*args) is None


    @pytest.mark.parametrize("bank, stream", [(-1, 0), (2, 0), (0, -1), (0, 3)])
    def test_index_outside_its_ready_array_declines(self, compiled, bank, stream):
        # process_columns never builds one; C would read out of bounds.
        ones = _int64([1, 1])
        args = (_int64([0, bank]), _int64([0, stream]), ones, ones, ones, ones, 2, 3)
        assert native.bus_recurrence(*args) is None

    def test_ragged_columns_are_refused(self, compiled):
        ones = _int64([1, 1])
        with pytest.raises(ValueError, match="length"):
            native.bus_recurrence(ones, ones, ones, ones, _int64([1]), ones, 2, 2)


class TestProcessColumnsBothPaths:
    @pytest.mark.parametrize("policy", list(PagePolicy))
    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_matches_process(self, request, monkeypatch, spec_calls, policy, path):
        if path == "python":
            monkeypatch.setattr(native, "_kernel", None)
        else:
            request.getfixturevalue("compiled")
        requests = _requests(seed=3)
        model = DRAMModel(DDR4Config(), page_policy=policy)
        assert model.process_columns(MemoryTrace.from_requests(requests)) == model.process(
            requests
        )
        assert bool(spec_calls) == (path == "python")

    def test_negative_rows_and_sparse_streams_run_compiled(self, compiled, spec_calls):
        requests = [
            MemoryRequest(row=row, nbytes=64 * (1 + i % 3), keep_open_hint=i % 2 == 0, stream=s)
            for i, (row, s) in enumerate(
                zip([-1, -49, 5, -1, 47, -96, 0, -1], [0, 10**6, 3, 250_000, 10**6, 7, 0, 3])
            )
        ]
        for policy in PagePolicy:
            model = DRAMModel(page_policy=policy)
            assert model.process_columns(MemoryTrace.from_requests(requests)) == model.process(
                requests
            )
        assert not spec_calls

    def test_huge_request_takes_the_python_path(self, compiled, spec_calls):
        # A caller-built trace can carry any positive nbytes: one of ~2**60
        # bytes among 200 small ones puts count * Σ peaks past 2**63.
        requests = _requests(seed=5, count=200)
        requests[17] = MemoryRequest(row=3, nbytes=2**60 - 5, stream=1)
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        stats = model.process_columns(MemoryTrace.from_requests(requests))
        assert spec_calls == [len(requests)]
        assert stats == model.process(requests)
        assert stats.total_cycles > 2**56


class TestLoader:
    def test_no_compiler_warns_once_and_runs_the_loop(self, monkeypatch, unresolved, spec_calls):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
        requests = _requests(seed=4)
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        trace = MemoryTrace.from_requests(requests)
        with pytest.warns(RuntimeWarning, match="repro-no-such-compiler"):
            first = model.process_columns(trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = model.process_columns(trace)
        assert first == second == model.process(requests)
        assert len(spec_calls) == 2 and not native.kernel_active()
        assert not unresolved.exists()

    def test_pure_python_forces_the_loop(self, monkeypatch, unresolved):
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not native.kernel_active()
        assert native.bus_recurrence(*[_int64([0])] * 6, 1, 1) is None
        assert not unresolved.exists()

    def test_shared_cache_directory_is_refused(self, monkeypatch, unresolved):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        unresolved.mkdir(mode=0o777)
        unresolved.chmod(0o777)
        with pytest.warns(RuntimeWarning, match="not private"):
            assert not native.kernel_active()
        assert list(unresolved.iterdir()) == []

    def test_cold_compile_writes_only_to_the_cache(self, monkeypatch, unresolved):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)

        def files():
            return {p for p in SOURCE_TREE.rglob("*") if "__pycache__" not in p.parts}

        before = files()
        assert native.kernel_active()
        assert files() == before
        (library,) = unresolved.iterdir()
        assert library.suffix == ".so"
        assert stat.S_IMODE(unresolved.stat().st_mode) == 0o700
        args = (_int64([0, 1]), _int64([0, 0]), *[_int64([1, 2])] * 4, 2, 1)
        assert native.bus_recurrence(*args) == hw_dram._bus_recurrence(*args)

    def test_concurrent_first_use_in_threads(self, monkeypatch, unresolved):
        # Eight threads on two CPUs race the one-time build: the lock lets
        # exactly one compile, and every caller gets the spec's answer.
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        column = np.arange(1, 501, dtype=np.int64)
        args = (column % 5, column % 4, column, column, column, column, 5, 4)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(native.bus_recurrence(*args)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = hw_dram._bus_recurrence(*args)
        assert results == [expected] * 8
        assert len(list(unresolved.iterdir())) == 1

    def test_concurrent_first_use_in_two_processes(self, tmp_path):
        script = (
            "import pathlib, sys, warnings\n"
            "warnings.simplefilter('error')\n"
            "import numpy as np\n"
            "from repro.hw import native\n"
            "native.CACHE_DIR = pathlib.Path(sys.argv[1])\n"
            "column = np.arange(1, 1001, dtype=np.int64)\n"
            "print(native.bus_recurrence(column % 7, column % 3, column, column, column,"
            " column, 7, 3))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SOURCE_TREE.parent)}
        env.pop(PURE_PYTHON_ENV, None)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / "cache")],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        outputs = [worker.communicate(timeout=120) for worker in workers]
        assert [worker.returncode for worker in workers] == [0, 0], outputs
        column = np.arange(1, 1001, dtype=np.int64)
        expected = hw_dram._bus_recurrence(
            column % 7, column % 3, column, column, column, column, 7, 3
        )
        assert [int(out) for out, _err in outputs] == [expected, expected]
        assert len(list((tmp_path / "cache").iterdir())) == 1


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
