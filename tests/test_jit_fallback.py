"""The compiled kernels, their loader and their specifications.

:mod:`repro.native` builds one C library on first use and loads it with
ctypes.  It holds the two hardware state machines of the replay — the
set-associative LRU (``lru_hits``, specified by the stack-distance
:func:`repro.hw.cache.simulate_lru_hits` and, above it,
:meth:`~repro.hw.cache.SetAssociativeCache.access`) and the DRAM
channels (``dram_channels``, specified by ``split_channels`` and
``DRAMModel._columns_spec`` with its :func:`repro.hw.dram._bus_recurrence`
per shard and, above them, :meth:`~repro.hw.dram.DRAMModel.process`) —
the replay's Occ ranks (``occ_ranks``, specified by
``ExmaTable._occ_spec`` and, above it, :meth:`ExmaTable.occ`), and the
elementwise tail of an MTL training epoch, specified by the two NumPy
functions in :mod:`repro.exma.mtl_index`.  The contract is
**bit-identical outputs** on both paths, and a failed build is one warning, never an exception or
a different number.  The MTL leaves' stacked least-squares keeps the
same contract with its spec, the per-k-mer ``np.polyfit``.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import native
from repro.engine import backends as engine_backends
from repro.engine.backends import ExmaBackend, _lockstep_spec
from repro.engine.coalesce import BatchStats, BatchTrace
from repro.exma import mtl_index
from repro.exma.learned_index import NaiveLearnedIndex
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.genome.datasets import build_dataset
from repro.genome.sequence import random_genome
from repro.hw import cache as hw_cache
from repro.hw import dram as hw_dram
from repro.hw.dram import DDR4Config, DRAMModel, MemoryRequest, MemoryTrace, PagePolicy
from repro.runtime import PURE_PYTHON_ENV

SOURCE_TREE = pathlib.Path(repro.__file__).resolve().parent
kernel_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@pytest.fixture
def compiled(monkeypatch):
    """Force the compiled library on, whatever ``REPRO_PURE_PYTHON`` says."""
    monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
    monkeypatch.setattr(native, "_library", native._UNRESOLVED)
    assert native.kernel_active(), "this host has a C compiler: the kernel must load"


def _counting(monkeypatch, module, name: str) -> list[int]:
    """Record the first argument's length at each call of *module.name*."""
    calls = []
    spec = getattr(module, name)

    def counted(*args):
        calls.append(len(args[0]))
        return spec(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def spec_calls(monkeypatch):
    """Count the DRAM spec's runs (its Python loop) inside ``process_columns``."""
    return _counting(monkeypatch, hw_dram, "_bus_recurrence")


@pytest.fixture
def lru_spec_calls(monkeypatch):
    """Count the stack-distance spec's runs inside ``simulate_lru_hits``."""
    return _counting(monkeypatch, hw_cache, "_head_hits")


@pytest.fixture
def mtl_spec_calls(monkeypatch):
    """Record (name, rows) for each run of the MTL epoch's NumPy specs."""
    calls = []
    for name in ("_sigmoid_spec", "_sigmoid_backward_spec"):
        spec = getattr(mtl_index, name)

        def counted(hidden, *args, _spec=spec, _name=name):
            calls.append((_name, len(hidden)))
            return _spec(hidden, *args)

        monkeypatch.setattr(mtl_index, name, counted)
    return calls


@pytest.fixture
def unresolved(monkeypatch, tmp_path):
    """A process that has not resolved the kernel yet, caching in *tmp_path*."""
    monkeypatch.setattr(native, "_library", native._UNRESOLVED)
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


@st.composite
def dram_requests(draw):
    """Short traces over a few banks' rows, negative rows (floored modulo)
    and sparse stream ids up to 10**6 included."""
    rows = st.integers(-200, 200)
    streams = st.one_of(st.integers(0, 5), st.sampled_from([10**6, 250_000, 77]))
    return [
        MemoryRequest(row=r, nbytes=n, keep_open_hint=k, stream=s)
        for r, n, k, s in draw(
            st.lists(
                st.tuples(rows, st.integers(1, 700), st.booleans(), streams), max_size=60
            )
        )
    ]


def _spec_stats(model: DRAMModel, trace: MemoryTrace, channels: int = 1) -> list:
    """``process_columns`` with the compiled pass unavailable."""
    library, native._library = native._library, None
    try:
        return model.process_columns(trace, channels)
    finally:
        native._library = library


def _shard_stats(model: DRAMModel, trace: MemoryTrace, channels: int) -> list:
    """The object model over each of :meth:`MemoryTrace.split_channels`' shards."""
    return [
        model.process(
            [
                MemoryRequest(row=r, nbytes=n, keep_open_hint=k, stream=s)
                for r, n, k, s in zip(
                    *(c.tolist() for c in (shard.rows, shard.nbytes, shard.keep_open, shard.streams))
                )
            ]
        )
        for shard in trace.split_channels(channels)
    ]


class TestCompiledEqualsSpec:
    @given(dram_requests(), st.sampled_from(list(PagePolicy)), st.sampled_from([(16, 16, 16), (0, 3, 50)]))
    @kernel_settings
    def test_oracle(self, compiled, requests, policy, timings):
        tcas, trcd, trp = timings
        model = DRAMModel(DDR4Config(tcas=tcas, trcd=trcd, trp=trp), page_policy=policy)
        trace = MemoryTrace.from_requests(requests)
        assert model.process_columns(trace) == [model.process(requests)] == _spec_stats(model, trace)

    @pytest.mark.parametrize(
        "rows, streams",
        [([], []), ([0] * 40, list(range(40))), (list(range(40)), [0] * 40)],
        ids=["empty", "one-bank", "one-stream"],
    )
    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_edge_shapes(self, compiled, spec_calls, rows, streams, policy):
        requests = [MemoryRequest(row=r, stream=s) for r, s in zip(rows, streams)]
        model = DRAMModel(page_policy=policy)
        trace = MemoryTrace.from_requests(requests)
        assert model.process_columns(trace) == [model.process(requests)]
        assert not spec_calls

    def test_guard_edge(self, compiled):
        # Four requests whose counters are bounded just under 2**63 run
        # compiled; one byte more and the kernel declines.
        bound = 3 + 16 + 16 + 2 * 16
        nbytes = (native.INT64_END - 1) // 4 - bound
        args = [_int64([0] * 4), _int64([nbytes] * 4), np.zeros(4, bool), _int64([0] * 4)]
        for channels in (1, 3):
            args[1] = _int64([nbytes] * 4)
            assert native.dram_channels(*args, channels, 48, (16, 16, 16), 16, 2) is not None
            args[1] = _int64([nbytes + 1] * 4)
            assert native.dram_channels(*args, channels, 48, (16, 16, 16), 16, 2) is None

    @pytest.mark.parametrize(
        "stream, nbytes, channels, banks, bus, timings, mode",
        [(-1, 64, 2, 48, 16, (16, 16, 16), 2), (0, 0, 2, 48, 16, (16, 16, 16), 2),
         (0, 64, 0, 48, 16, (16, 16, 16), 2), (0, 64, 2, 0, 16, (16, 16, 16), 2),
         (0, 64, 2, 48, 0, (16, 16, 16), 2), (0, 64, 2, 48, 16, (16, -1, 16), 2),
         (0, 64, 2, 48, 16, (16, 16, 16), 3)],
        ids=["negative-stream", "empty-request", "no-channel", "no-bank", "no-bus",
             "negative-timing", "mode"],
    )
    def test_values_the_model_refuses_decline(
        self, compiled, stream, nbytes, channels, banks, bus, timings, mode
    ):
        # process_columns refuses or never builds these; C would index out
        # of bounds or divide by zero.
        args = (_int64([0, 1]), _int64([64, nbytes]), np.zeros(2, bool), _int64([0, stream]))
        assert native.dram_channels(*args, channels, banks, timings, bus, mode) is None

    def test_ragged_columns_are_refused(self, compiled):
        ones = _int64([1, 1])
        with pytest.raises(ValueError, match="length"):
            native.dram_channels(ones, ones, np.zeros(1, bool), ones, 1, 48, (16, 16, 16), 16, 2)


class TestProcessColumnsBothPaths:
    @pytest.mark.parametrize("policy", list(PagePolicy))
    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_matches_process(self, request, monkeypatch, spec_calls, policy, path):
        if path == "python":
            monkeypatch.setattr(native, "_library", None)
        else:
            request.getfixturevalue("compiled")
        requests = _requests(seed=3)
        model = DRAMModel(DDR4Config(), page_policy=policy)
        assert model.process_columns(MemoryTrace.from_requests(requests)) == [
            model.process(requests)
        ]
        assert bool(spec_calls) == (path == "python")

    def test_negative_rows_and_sparse_streams_run_compiled(self, compiled, spec_calls):
        requests = [
            MemoryRequest(row=row, nbytes=64 * (1 + i % 3), keep_open_hint=i % 2 == 0, stream=s)
            for i, (row, s) in enumerate(
                zip([-1, -49, 5, -1, 47, -96, 0, -1], [0, 10**6, 3, 250_000, 10**6, 7, 0, 3])
            )
        ]
        trace = MemoryTrace.from_requests(requests)
        models = [DRAMModel(page_policy=policy) for policy in PagePolicy]
        for model in models:
            assert model.process_columns(trace) == [model.process(requests)]
        assert not spec_calls
        for model in models:
            assert _spec_stats(model, trace) == [model.process(requests)]
        assert spec_calls == [len(requests)] * len(models)

    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_huge_request_takes_the_python_path(self, compiled, spec_calls, policy):
        # A caller-built trace can carry any positive nbytes: one of ~2**60
        # bytes among 200 small ones puts the counters' bound past 2**63.
        requests = _requests(seed=5, count=200)
        requests[17] = MemoryRequest(row=3, nbytes=2**60 - 5, stream=1)
        model = DRAMModel(page_policy=policy)
        (stats,) = model.process_columns(MemoryTrace.from_requests(requests))
        assert spec_calls == [len(requests)]
        assert stats == model.process(requests)
        assert stats.total_cycles > 2**56


class TestChannelsInOnePass:
    """``process_columns(trace, c)`` is :meth:`DRAMModel.process` over each
    ``split_channels(c)`` shard, whichever path computes it."""

    @given(dram_requests(), st.integers(1, 5), st.sampled_from(list(PagePolicy)))
    @kernel_settings
    def test_oracle(self, compiled, requests, channels, policy):
        model = DRAMModel(page_policy=policy)
        trace = MemoryTrace.from_requests(requests)
        expected = _shard_stats(model, trace, channels)
        assert model.process_columns(trace, channels) == expected
        assert _spec_stats(model, trace, channels) == expected

    @pytest.mark.parametrize("channels", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("decline", [None, "huge-request", "no-library"])
    def test_declines_and_empty_channels(self, compiled, monkeypatch, spec_calls, channels, decline):
        # Rows -150..149 in steps of 5: with five channels every row lands
        # on channel 0 and the other four stay empty.
        requests = [
            MemoryRequest(row=row, nbytes=1 + 37 * i % 700, keep_open_hint=i % 3 == 0, stream=i % 7)
            for i, row in enumerate(range(-150, 150, 5))
        ]
        if decline == "huge-request":
            requests[17] = MemoryRequest(row=-65, nbytes=2**60 - 5, stream=1)
        elif decline == "no-library":
            monkeypatch.setattr(native, "_library", None)
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        trace = MemoryTrace.from_requests(requests)
        per_channel = model.process_columns(trace, channels)
        assert per_channel == _shard_stats(model, trace, channels)
        assert sum(stats.requests for stats in per_channel) == len(requests)
        if channels == 5:
            assert per_channel[1:] == [hw_dram.DRAMStats()] * 4
        # The spec runs once per non-empty shard, and only on a decline.
        shards = sum(1 for shard in trace.split_channels(channels) if len(shard))
        assert len(spec_calls) == (0 if decline is None else shards)

    @pytest.mark.parametrize("channels", [0, -1, True, 2.0])
    def test_refuses_a_channel_count_that_is_not_positive(self, channels):
        trace = MemoryTrace.from_requests([MemoryRequest(row=0)])
        with pytest.raises(ValueError, match="channels"):
            DRAMModel().process_columns(trace, channels)

    def test_empty_trace_reads_empty_channels(self, compiled):
        assert DRAMModel().process_columns(MemoryTrace(), 3) == [hw_dram.DRAMStats()] * 3


@pytest.fixture(scope="module")
def occ_table():
    """3-mers over a reference with no ``T`` but a long ``A`` run: 37 of the
    64 k-mers never occur, and ``AAA`` owns a segment of 300 increments."""
    rng = np.random.default_rng(11)
    return ExmaTable("".join(rng.choice(list("ACG"), 900)) + "A" * 300 + "CG" * 50, k=3)


@pytest.fixture
def occ_spec_calls(monkeypatch):
    """Record the request count of each run of ``ExmaTable.occ_batch``'s spec."""
    calls = []
    spec = ExmaTable._occ_spec

    def counted(table, kmers, positions):
        calls.append(kmers.size)
        return spec(table, kmers, positions)

    monkeypatch.setattr(ExmaTable, "_occ_spec", counted)
    return calls


def _occ_spec(table: ExmaTable, kmers, positions) -> np.ndarray:
    """``occ_batch`` with the compiled pass unavailable."""
    library, native._library = native._library, None
    try:
        return table.occ_batch(kmers, positions)
    finally:
        native._library = library


@st.composite
def occ_requests(draw, kmer_count: int = 64, n: int = 1301):
    """Request columns in one of four orders, over every k-mer (absent ones
    included) and positions weighted to both ends, 0 and n."""
    position = st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n))
    pairs = draw(st.lists(st.tuples(st.integers(0, kmer_count - 1), position), max_size=80))
    order = draw(st.sampled_from(["sorted", "reverse-sorted", "random", "repeated"]))
    if order == "sorted":
        pairs.sort()
    elif order == "reverse-sorted":
        pairs.sort(reverse=True)
    elif order == "repeated":
        pairs = sorted(pairs + pairs[: len(pairs) // 2])
    kmers, positions = zip(*pairs) if pairs else ((), ())
    return _int64(kmers), _int64(positions)


class TestOccRanks:
    """The compiled Occ walk equals the augmented-array ``searchsorted`` and
    the scalar :meth:`ExmaTable.occ` in any request order."""

    def test_table_shape(self, occ_table):
        assert occ_table.reference_length == 1301
        assert (occ_table.frequencies() == 0).sum() == 37
        assert occ_table.frequency("AAA") >= 300

    @given(occ_requests())
    @kernel_settings
    def test_oracle(self, compiled, occ_spec_calls, occ_table, columns):
        kmers, positions = columns
        spec_runs = len(occ_spec_calls)  # hypothesis reuses the fixture
        ranks = occ_table.occ_batch(kmers, positions)
        assert len(occ_spec_calls) == spec_runs
        expected = [occ_table.occ(int(k), int(p)) for k, p in zip(kmers, positions)]
        assert ranks.dtype == np.int64 and ranks.tolist() == expected
        assert _occ_spec(occ_table, kmers, positions).tolist() == expected

    def test_every_key_in_order_walks_every_segment(self, compiled, occ_spec_calls, occ_table):
        # All 64 x 1302 keys sorted: each k-mer's segment is walked from
        # its first entry to past its last, absent k-mers' empty ones too.
        n = occ_table.reference_length
        kmers = np.repeat(np.arange(64, dtype=np.int64), n + 1)
        positions = np.tile(np.arange(n + 1, dtype=np.int64), 64)
        for order in (slice(None), slice(None, None, -1)):
            ranks = occ_table.occ_batch(kmers[order], positions[order])
            assert np.array_equal(ranks, _occ_spec(occ_table, kmers[order], positions[order]))
        assert ranks[0] == 0 and ranks[-1] == occ_table.frequency(63)
        assert len(occ_spec_calls) == 2

    def test_two_dimensional_requests_keep_their_shape(self, compiled, occ_table):
        kmers = _int64([[0, 5, 5], [63, 0, 2]])
        positions = _int64([[0, 1301, 7], [1301, 1301, 0]])
        assert np.array_equal(
            occ_table.occ_batch(kmers, positions), _occ_spec(occ_table, kmers, positions)
        )

    def test_requests_out_of_range_decline(self, compiled, occ_spec_calls, occ_table):
        # The pass finds them itself (C would read past the offsets), and
        # occ_batch then refuses them on the spec path.
        increments = _int64([1, 3, 5, 8, 13, 2, 4, 6, 9, 0, 7, 11])
        starts = _int64([0, 5, 9])  # three segments, the last ending with increments
        ranks = native.occ_ranks(_int64([2, 0, 1]), _int64([7, 0, 20]), increments, starts, 20)
        assert ranks.tolist() == [1, 0, 4]
        refused = (([3, 0], [7, 7]), ([0, -1], [7, 7]), ([0, 1], [-1, 7]), ([0, 1], [7, 21]))
        for kmers, positions in refused:
            assert native.occ_ranks(_int64(kmers), _int64(positions), increments, starts, 20) is None
        with pytest.raises(ValueError, match="length"):
            native.occ_ranks(_int64([0, 1]), _int64([7]), increments, starts, 20)
        for kmers, positions in (([0, 64], [1, 1]), ([0, -1], [1, 1]), ([5, 5], [1302, 0])):
            with pytest.raises(ValueError, match="out of range"):
                occ_table.occ_batch(_int64(kmers), _int64(positions))
        assert occ_spec_calls == []

    def test_pure_python_runs_the_spec(self, monkeypatch, unresolved, occ_spec_calls, occ_table):
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        kmers, positions = _int64([0, 0, 5, 63]), _int64([1301, 0, 700, 1301])
        ranks = occ_table.occ_batch(kmers, positions)
        assert occ_spec_calls == [4]
        assert ranks.tolist() == [occ_table.occ(int(k), int(p)) for k, p in zip(kmers, positions)]
        starts = _int64([0] * 64)
        assert native.occ_ranks(kmers, positions, occ_table.increments, starts, 1301) is None


LOCKSTEP_REFERENCE = random_genome(1200, seed=21)
LOCKSTEP_STEPS = (2, 4, 6)


@pytest.fixture(scope="module")
def lockstep_backends():
    """One EXMA backend per step number k over the same reference."""
    return {k: ExmaBackend(table=ExmaTable(LOCKSTEP_REFERENCE, k=k)) for k in LOCKSTEP_STEPS}


@pytest.fixture
def lockstep_spec_calls(monkeypatch):
    """Record the batch size of each run of ``search_batch``'s lockstep spec."""
    calls = []

    def counted(matrix, *args):
        calls.append(len(matrix))
        return _lockstep_spec(matrix, *args)

    monkeypatch.setattr(engine_backends, "_lockstep_spec", counted)
    return calls


@st.composite
def lockstep_batches(draw):
    """A step number and a batch mixing reference substrings (hits of any
    length, shorter than k included), random strings (which die within a
    few steps) and repeats of both."""
    k = draw(st.sampled_from(LOCKSTEP_STEPS))
    substring = st.tuples(
        st.integers(0, len(LOCKSTEP_REFERENCE) - 40), st.integers(1, 40)
    ).map(lambda t: LOCKSTEP_REFERENCE[t[0] : t[0] + t[1]])
    query = st.one_of(substring, st.text(alphabet="ACGT", min_size=1, max_size=40))
    queries = draw(st.lists(query, min_size=1, max_size=30))
    return k, queries + draw(st.lists(st.sampled_from(queries), max_size=6))


def _lockstep_inputs(backend: ExmaBackend, queries) -> tuple:
    """``search_batch``'s inputs to the lockstep pass: the chunk matrix,
    the steps, the post-tail bounds and alive mask, and the count table."""
    table = backend.table
    matrix, steps, leftovers = backend._chunk_matrix(queries)
    lows = np.zeros(len(queries), dtype=np.int64)
    highs = np.full(len(queries), table.reference_length, dtype=np.int64)
    for i, tail in enumerate(leftovers):
        if tail:
            lows[i], highs[i] = table.prefix_interval(tail)
    return matrix, steps, lows, highs, lows < highs, table.count_table()


def _both_locksteps(backend: ExmaBackend, queries) -> tuple:
    """The compiled pass and its spec on the same inputs, which neither may
    change."""
    table = backend.table
    inputs = _lockstep_inputs(backend, queries)
    before = [array.copy() for array in inputs]
    compiled = native.lockstep(
        *inputs, table.increments, table._kmer_rank_base, table.reference_length
    )
    spec = _lockstep_spec(*inputs, table.occ_batch, table.reference_length + 1)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    return compiled, spec


def _assert_same_outputs(compiled, spec) -> None:
    assert compiled is not None and len(compiled) == len(spec) == 7
    for got, want in zip(compiled, spec):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def _traced_search(backend: ExmaBackend, queries) -> tuple:
    """Intervals, the stats (compared field for field) and the trace's
    columns of one search."""
    stats = BatchStats(trace=BatchTrace())
    intervals = backend.search_batch(queries, stats)
    steps = [(s.keys.tolist(), s.occ.tolist(), s.contribution) for s in stats.trace.steps]
    stats.trace = None
    return intervals, stats, steps


class TestLockstep:
    """The compiled lockstep pass equals ``_lockstep_spec``, output for
    output, and ``search_batch`` gives the same intervals and
    ``BatchStats`` on both paths."""

    @given(lockstep_batches())
    @kernel_settings
    def test_oracle(self, compiled, lockstep_spec_calls, lockstep_backends, batch):
        k, queries = batch
        backend = lockstep_backends[k]
        _assert_same_outputs(*_both_locksteps(backend, queries))
        spec_runs = len(lockstep_spec_calls)  # hypothesis reuses the fixture
        searched = _traced_search(backend, queries)
        assert len(lockstep_spec_calls) == spec_runs
        library, native._library = native._library, None
        try:
            assert _traced_search(backend, queries) == searched
        finally:
            native._library = library
        assert len(lockstep_spec_calls) == spec_runs + 1

    @pytest.mark.parametrize(
        "case",
        ["tails only", "all die early", "duplicates", "batch of one", "mixed lengths"],
    )
    @pytest.mark.parametrize("k", LOCKSTEP_STEPS)
    def test_named_shapes(self, compiled, lockstep_backends, case, k):
        hit = LOCKSTEP_REFERENCE[100:136]
        queries = {
            "tails only": [hit[: k - 1], "C", hit[5 : 5 + k - 1]],
            "all die early": ["ACGT" * 9, "TTTTGGGGCCCCAAAA" * 2 + "ACGT"],
            "duplicates": [hit, hit, hit[:20], hit, hit[:20]],
            "batch of one": [hit],
            "mixed lengths": [hit, hit[:1], hit[:k], hit[: k + 1], hit[:13], "GATTACA" * 5],
        }[case]
        compiled, spec = _both_locksteps(lockstep_backends[k], queries)
        _assert_same_outputs(compiled, spec)
        matrix = _lockstep_inputs(lockstep_backends[k], queries)[0]
        steps_run = compiled[5].size
        if case == "tails only":
            assert matrix.shape[1] == steps_run == 0
        elif case == "all die early":
            assert 0 < steps_run < matrix.shape[1]
        else:
            assert steps_run == matrix.shape[1]
        assert compiled[4][0] == 0 and compiled[4][-1] == compiled[2].size

    def test_declines_out_of_range_inside_the_pass(self, compiled, lockstep_backends):
        backend = lockstep_backends[4]
        table = backend.table
        matrix, steps, lows, highs, alive, counts = _lockstep_inputs(
            backend, [LOCKSTEP_REFERENCE[10:30], LOCKSTEP_REFERENCE[50:70]]
        )
        constants = (table.increments, table._kmer_rank_base, table.reference_length)
        assert native.lockstep(matrix, steps, lows, highs, alive, counts, *constants)
        n = table.reference_length
        broken = [(matrix, (1, -1), 256), (matrix, (1, -1), -1), (lows, 1, -1), (highs, 1, n + 1)]
        for array, slot, value in broken:
            kept = array[slot]
            array[slot] = value
            assert native.lockstep(matrix, steps, lows, highs, alive, counts, *constants) is None
            array[slot] = kept
        with pytest.raises(ValueError, match="length"):
            native.lockstep(matrix, steps[:1], lows, highs, alive, counts, *constants)
        with pytest.raises(ValueError, match="length"):
            native.lockstep(matrix, steps, lows, highs, alive, counts[:-1], *constants)
        # A dead query's slots are never read, whatever they hold.
        alive[1] = False
        matrix[1] = 10**6
        assert native.lockstep(matrix, steps, lows, highs, alive, counts, *constants)

    def test_keys_that_could_pass_int64_decline_before_the_pass(self, compiled):
        zero = _int64([0])
        assert native.lockstep(
            zero.reshape(1, 1), zero + 1, zero, zero, np.ones(1, bool), zero, zero,
            _int64([0, 0, 0, 0]), 2**61,
        ) is None

    def test_a_declined_pass_runs_the_spec(
        self, compiled, monkeypatch, lockstep_spec_calls, lockstep_backends
    ):
        backend = lockstep_backends[6]
        queries = [LOCKSTEP_REFERENCE[i : i + 30] for i in range(0, 300, 7)]
        expected = _traced_search(backend, queries)
        monkeypatch.setattr(native, "INT64_END", 4**6)  # the guard declines
        assert _traced_search(backend, queries) == expected
        assert lockstep_spec_calls == [len(queries)]
        # A k-mer past 4^k in the chunk matrix: the pass declines at the
        # last step, and the spec refuses it.
        matrix, steps, leftovers = backend._chunk_matrix(queries)
        matrix[-1, -1] = 4**6
        monkeypatch.setattr(native, "INT64_END", 2**63)
        monkeypatch.setattr(backend, "_chunk_matrix", lambda _: (matrix, steps, leftovers))
        with pytest.raises(ValueError, match="k-mer out of range"):
            backend.search_batch(queries)
        assert lockstep_spec_calls == [len(queries)] * 2

    def test_pure_python_runs_the_spec(
        self, monkeypatch, lockstep_spec_calls, lockstep_backends
    ):
        backend = lockstep_backends[4]
        queries = [LOCKSTEP_REFERENCE[i : i + 25] for i in range(0, 400, 9)] + ["ACG"]
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(native, "_library", native._UNRESOLVED)
        expected = _traced_search(backend, queries)
        assert lockstep_spec_calls == []
        monkeypatch.setattr(native, "_library", native._UNRESOLVED)
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        assert _traced_search(backend, queries) == expected
        assert lockstep_spec_calls == [len(queries)]
        assert native.lockstep(*_lockstep_inputs(backend, queries), None, None, 1) is None


def _lru_three_ways(addresses, capacity: int, line: int, ways: int):
    """(compiled, spec, object model) hit masks of one cold cache."""
    addresses = _int64(addresses)
    compiled = native.lru_hits(addresses, line, capacity // (line * ways), ways)
    library, native._library = native._library, None
    try:
        spec = hw_cache.simulate_lru_hits(addresses, capacity, line, ways)
    finally:
        native._library = library
    return compiled, spec, _reference_hits(addresses, capacity, line, ways)


def _reference_hits(addresses, capacity: int, line: int, ways: int) -> np.ndarray:
    """The object model's hit mask: a fresh cache, one access each."""
    reference = hw_cache.SetAssociativeCache(capacity, line, ways)
    return np.array([reference.access(int(a)) for a in addresses], dtype=bool)


def _adversarial(sets: int, ways: int, line: int) -> dict[str, list[int]]:
    stride = sets * line  # consecutive multiples alias to one set
    return {
        "cycle-of-ways-plus-one": [stride * (i % (ways + 1)) for i in range(40 * ways)],
        "hot-and-streaming": [0 if i % 2 == 0 else stride * (i // 2 + 1) for i in range(300)],
        "one-set": [stride * v for v in np.random.default_rng(1).integers(0, 3 * ways, 300)],
        "same-line-runs": [line * (i // 25) + i % line for i in range(500)],
        "empty": [],
    }


class TestLruKernel:
    @given(
        st.integers(1, 64),
        st.integers(1, 16),
        st.one_of(st.sampled_from([16, 32, 64, 128]), st.integers(16, 128)),
        st.lists(st.integers(0, 2**20), max_size=200),
    )
    @kernel_settings
    def test_oracle(self, compiled, sets, ways, line, addresses):
        compiled_hits, spec, expected = _lru_three_ways(addresses, sets * ways * line, line, ways)
        assert np.array_equal(compiled_hits, expected)
        assert np.array_equal(spec, expected)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (64, 16), (2048, 8)])
    @pytest.mark.parametrize(
        "trace", ["cycle-of-ways-plus-one", "hot-and-streaming", "one-set", "same-line-runs", "empty"]
    )
    def test_adversarial_traces(self, compiled, shape, trace):
        sets, ways = shape
        addresses = _adversarial(sets, ways, 64)[trace]
        compiled_hits, spec, expected = _lru_three_ways(addresses, sets * ways * 64, 64, ways)
        assert np.array_equal(compiled_hits, expected) and np.array_equal(spec, expected)

    def test_public_entry_point_runs_compiled(self, compiled, lru_spec_calls):
        addresses = np.random.default_rng(7).integers(0, 4096, 500) * 8
        hits = hw_cache.simulate_lru_hits(addresses, 2048, 64, 4)
        assert not lru_spec_calls
        assert np.array_equal(hits, _reference_hits(addresses, 2048, 64, 4))

    def test_small_flush_on_a_table_one_cache_allocates_for_the_flush(self, compiled):
        # 2048 sets x 8 ways would be 128 KiB of tags; ten touched sets
        # of at most ten ways are 800 bytes.
        addresses = _int64(np.arange(10) * 4096)
        native.lru_hits(addresses, 64, 2048, 8)  # warm NumPy's own caches
        tracemalloc.start()
        try:
            hits = native.lru_hits(addresses, 64, 2048, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hits is not None and not hits.any()
        assert peak < 16 * 1024, peak

    def test_scratch_beyond_its_bound_declines(self, compiled, lru_spec_calls):
        # 256 ways in 256 touched sets would be 256 tags per access.
        addresses = _int64(np.repeat(np.arange(256) * 64, 2))
        assert native.lru_hits(addresses, 64, 256, 256) is None
        hits = hw_cache.simulate_lru_hits(addresses, 256 * 256 * 64, 64, 256)
        assert lru_spec_calls and np.array_equal(hits, np.arange(512) % 2 == 1)

    def test_negative_address_declines(self, compiled):
        assert native.lru_hits(_int64([0, -64]), 64, 4, 2) is None


# Values the MTL kernels must treat exactly as NumPy does: signed zeros,
# subnormals, the largest doubles, infinities, and exp arguments either
# side of its overflow (709.78) and of its underflow to zero (-745.13).
EDGE_DOUBLES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, 1.0, -1.0,
    1e308, -1e308, np.inf, -np.inf, 709.0, 710.0, -745.0, -746.0,
)
doubles = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_DOUBLES))
probabilities = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324, 0.5)))


def _bits(array) -> np.ndarray:
    """Compare doubles by their bits, so -0.0 and NaN payloads count."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


@st.composite
def layer_arrays(draw, hidden_values=doubles, min_width=1):
    rows = draw(st.integers(0, 40))
    width = draw(st.integers(min_width, 12))
    hidden = draw(hnp.arrays(np.float64, (rows, width), elements=hidden_values))
    row_values = draw(hnp.arrays(np.float64, rows, elements=doubles))
    column_values = draw(hnp.arrays(np.float64, width, elements=doubles))
    return hidden, row_values, column_values


def _both_sigmoids(hidden, bias):
    """(compiled, spec) outputs of the forward activation on *hidden*."""
    compiled, spec = hidden.copy(), hidden.copy()
    with np.errstate(all="ignore"):
        assert native.sigmoid(compiled, bias)
        mtl_index._sigmoid_spec(spec, bias)
    return compiled, spec


def _both_backwards(hidden, grad_pred, w2):
    """(compiled, spec) ``(scratch, column sum)`` of the backward pass."""
    compiled, spec = np.empty_like(hidden), np.empty_like(hidden)
    before = hidden.copy()
    with np.errstate(all="ignore"):
        compiled_sum = native.sigmoid_backward(hidden, grad_pred, w2, compiled)
        spec_sum = mtl_index._sigmoid_backward_spec(hidden.copy(), grad_pred, w2, spec)
    assert compiled_sum is not None
    assert np.array_equal(_bits(hidden), _bits(before)), "C must leave hidden as it was"
    return (compiled, compiled_sum), (spec, spec_sum)


def _assert_same_bits(left, right):
    for a, b in zip(left, right):
        assert a.shape == b.shape
        assert np.array_equal(_bits(a), _bits(b))


class TestMTLKernelsEqualSpec:
    @given(layer_arrays())
    @kernel_settings
    def test_sigmoid_oracle(self, compiled, arrays):
        hidden, _rows, bias = arrays
        compiled_out, spec_out = _both_sigmoids(hidden, bias)
        _assert_same_bits([compiled_out], [spec_out])

    @given(st.one_of(layer_arrays(min_width=2), layer_arrays(probabilities, min_width=2)))
    @kernel_settings
    def test_sigmoid_backward_oracle(self, compiled, arrays):
        hidden, grad_pred, w2 = arrays
        _assert_same_bits(*_both_backwards(hidden, grad_pred, w2))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_rows_and_one_row(self, compiled, rows):
        rng = np.random.default_rng(rows)
        hidden = rng.normal(size=(rows, 10))
        _assert_same_bits(*_both_sigmoids(hidden, rng.normal(size=10)))
        sigmoid = 1.0 / (1.0 + np.exp(-hidden))
        _assert_same_bits(*_both_backwards(sigmoid, rng.normal(size=rows), rng.normal(size=10)))

    def test_exp_overflow_gives_zero(self, compiled):
        # -(-1000 + 0) = 1000: exp overflows to inf and 1 / (inf + 1) is 0.0.
        compiled_out, spec_out = _both_sigmoids(np.array([[-1000.0, 1000.0]]), np.zeros(2))
        _assert_same_bits([compiled_out], [spec_out])
        assert _bits(compiled_out).tolist() == _bits([[0.0, 1.0]]).tolist()

    def test_subnormal_products(self, compiled):
        hidden = np.full((3, 4), 0.5)
        grad_pred = np.array([5e-324, -1e-310, 2.2e-308])
        (scratch, column_sum), spec = _both_backwards(hidden, grad_pred, np.full(4, 3.0))
        _assert_same_bits((scratch, column_sum), spec)
        assert scratch[1, 0] != 0.0 and abs(scratch[1, 0]) < np.finfo(np.float64).tiny

    def test_column_sum_is_sequential_not_pairwise(self, compiled):
        # hidden = 0.5 and w2 = 4 make every scratch entry grad_pred's exactly,
        # so each column is 1.0 followed by fifteen 2**-53: added one row at
        # a time they vanish, summed pairwise they do not.  A NumPy whose
        # sum(axis=0) changes order fails here instead of drifting silently.
        column = np.array([1.0] + [2.0**-53] * 15)
        hidden, w2 = np.full((16, 3), 0.5), np.full(3, 4.0)
        (scratch, column_sum), spec = _both_backwards(hidden, column, w2)
        _assert_same_bits((scratch, column_sum), spec)
        assert np.array_equal(scratch, np.repeat(column[:, None], 3, axis=1))
        assert column_sum.tolist() == [1.0] * 3
        assert float(np.sum(column)) != 1.0, "the case must tell the two orders apart"

    def test_one_column_is_declined(self, compiled):
        # NumPy sums an (n, 1) array pairwise, so the sequential C sum
        # would differ: that shape takes the spec.
        hidden, column = np.full((16, 1), 0.5), np.array([1.0] + [2.0**-53] * 15)
        args = (column, np.full(1, 4.0), np.empty((16, 1)))
        assert native.sigmoid_backward(hidden, *args) is None
        assert mtl_index._sigmoid_backward_spec(hidden, *args).tolist() != [1.0]

    def test_negative_zero_column_sums_like_numpy(self, compiled):
        hidden = np.full((2, 3), 0.5)
        grad_pred = np.array([-0.0, -0.0])
        _assert_same_bits(*_both_backwards(hidden, grad_pred, np.full(3, 4.0)))


class TestContiguityGuard:
    @pytest.mark.parametrize(
        "make",
        [
            lambda h: np.asfortranarray(h),
            lambda h: np.repeat(h, 2, axis=1)[:, ::2],
            lambda h: h.astype(np.float32),
            lambda h: h.tolist(),
            lambda h: h[0],
        ],
        ids=["fortran", "strided", "float32", "list", "one-dimensional"],
    )
    def test_foreign_hidden_is_declined(self, compiled, make):
        hidden = make(np.random.default_rng(0).normal(size=(6, 4)))
        before = np.array(hidden, copy=True)
        assert not native.sigmoid(hidden, np.zeros(4))
        assert np.array_equal(np.asarray(hidden), before), "a declined call writes nothing"
        assert native.sigmoid_backward(hidden, np.ones(6), np.ones(4), np.empty((6, 4))) is None

    def test_foreign_operands_are_declined(self, compiled):
        hidden = np.full((6, 4), 0.5)
        assert not native.sigmoid(hidden, np.zeros(8)[::2])
        assert not native.sigmoid(hidden, np.zeros(5))
        readonly = hidden.copy()
        readonly.flags.writeable = False
        assert not native.sigmoid(readonly, np.zeros(4))
        ones, scratch = np.ones(6), np.empty((6, 4))
        assert native.sigmoid_backward(hidden, ones[:5], np.ones(4), scratch) is None
        assert native.sigmoid_backward(hidden, ones, np.ones(4, np.float32), scratch) is None
        assert native.sigmoid_backward(hidden, ones, np.ones(4), scratch.T.copy().T) is None
        assert native.sigmoid_backward(hidden, ones, np.ones(4), hidden) is None
        scratch.flags.writeable = False
        assert native.sigmoid_backward(hidden, ones, np.ones(4), scratch) is None
        assert not native.sigmoid(hidden, hidden[0]), "the bias may not overlap the output"

    def test_declined_layer_runs_the_spec_with_the_same_bits(self, compiled, mtl_spec_calls):
        rng = np.random.default_rng(1)
        rows = mtl_index.COMPILED_MIN_ROWS
        features, w1 = rng.random((rows, 2)), rng.normal(size=(2, 10))
        bias = rng.normal(size=10)
        expected = mtl_index._hidden_layer(features, w1, bias)
        assert not mtl_spec_calls
        strided = np.repeat(bias, 2)[::2]
        _assert_same_bits([mtl_index._hidden_layer(features, w1, strided)], [expected])
        assert mtl_spec_calls == [("_sigmoid_spec", rows)]

    def test_small_layers_take_the_spec_with_the_same_bits(self, compiled, mtl_spec_calls):
        rng = np.random.default_rng(2)
        rows = mtl_index.COMPILED_MIN_ROWS
        features, w1, bias = rng.random((rows, 2)), rng.normal(size=(2, 10)), rng.normal(size=10)
        full = mtl_index._hidden_layer(features, w1, bias)
        head = mtl_index._hidden_layer(features[: rows - 1], w1, bias)
        assert mtl_spec_calls == [("_sigmoid_spec", rows - 1)]
        _assert_same_bits([head], [full[: rows - 1]])


def _trained(length: int, seed: int) -> MTLIndex:
    """The benchmark's recipe: k = 6, threshold 16, 64 samples, 60 epochs."""
    reference = build_dataset("human", simulated_length=length, seed=seed).sequence
    table = ExmaTable(reference, k=6)
    return MTLIndex(table, model_threshold=16, samples_per_kmer=64, epochs=60, seed=seed)


def _fingerprint(index: MTLIndex) -> dict:
    """Every trained bit of *index*, and its predictions over a fixed grid."""
    nodes = {
        bucket: [_bits(a).tolist() for a in (node.w1, node.b1, node.w2, [node.b2])]
        for bucket, node in index._nodes.items()
    }
    leaves = {
        packed: _bits([index._weights[packed], index._biases[packed]]).tolist()
        + [int(index._buckets[packed])]
        for packed in index.modelled_kmers
    }
    kmers = np.repeat(np.array(index.modelled_kmers, dtype=np.int64), 5)
    positions = np.random.default_rng(0).integers(0, index.table.reference_length + 1, kmers.size)
    predictions = index.predict_many(kmers, positions).tolist()
    return {"nodes": nodes, "leaves": leaves, "predictions": predictions}


class TestTrainedIndexBothPaths:
    @pytest.mark.parametrize("length", [20_000, 40_000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_index(self, compiled, monkeypatch, mtl_spec_calls, length, seed):
        fast = _fingerprint(_trained(length, seed))
        # Training runs compiled; only layers too small to pay take the spec.
        assert all(rows < mtl_index.COMPILED_MIN_ROWS for _name, rows in mtl_spec_calls)
        monkeypatch.setattr(native, "_library", None)
        spec = _fingerprint(_trained(length, seed))
        assert {"_sigmoid_spec", "_sigmoid_backward_spec"} <= {name for name, _ in mtl_spec_calls}
        assert fast["leaves"] and fast == spec


#: sha256 over the weight, bias and bucket columns of the benchmark-recipe
#: index at 60 kbp, seed 0, as the per-k-mer ``np.polyfit`` leaves wrote them.
GOLDEN_COLUMNS_60K_SEED0 = "515dd4979c0115e2f012e922843241c22fd7ea9faf1ed5327472880bad468533"


def _slices(draw_kinds, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared outputs, CDF targets and takes for ``(take, kind)`` slices."""
    rng = np.random.default_rng(seed)
    outputs, targets = [], []
    for take, kind in draw_kinds:
        if kind == "spread":
            x = rng.random(take)
        elif kind == "constant":
            x = np.full(take, rng.random())
        else:  # ulps of spread around 1024: the scalar branch, or rank-deficient
            x = 1024.0 + np.arange(take) * int(rng.integers(1, 9)) * np.spacing(1024.0)
        outputs.append(x)
        targets.append(np.sort(rng.random(take)))
    takes = np.array([take for take, _ in draw_kinds], dtype=np.int64)
    return np.concatenate(outputs), np.concatenate(targets), takes


def _leaves_and_warnings(fit, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitted = fit(*args)
    ranks = [w for w in caught if issubclass(w.category, np.exceptions.RankWarning)]
    return fitted, len(ranks)


class TestStackedLeaves:
    """The leaves of a bucket are fitted as one stacked least-squares per
    sample count; ``np.polyfit`` per k-mer (``_fit_leaf``) is the spec and
    the fallback, and every leaf must carry its bits."""

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 70), st.sampled_from(["spread", "constant", "near-constant"])
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stacked_equals_per_kmer_polyfit(self, slices, seed):
        outputs, targets, takes = _slices(slices, seed)
        (weights, biases), stacked_warnings = _leaves_and_warnings(
            mtl_index._fit_leaves, outputs, targets, takes
        )
        stops = np.cumsum(takes)
        spec, spec_warnings = _leaves_and_warnings(
            lambda: [
                mtl_index._fit_leaf(outputs[stop - take : stop], targets[stop - take : stop])
                for take, stop in zip(takes.tolist(), stops.tolist())
            ]
        )
        assert _bits(weights).tolist() == _bits([w for w, _ in spec]).tolist()
        assert _bits(biases).tolist() == _bits([b for _, b in spec]).tolist()
        assert stacked_warnings == spec_warnings

    @pytest.mark.parametrize("stack_leaves", [1, 2, 5])
    def test_stacks_split_into_blocks_keep_the_bits(self, monkeypatch, stack_leaves):
        outputs, targets, takes = _slices([(7, "spread"), (3, "spread"), (7, "constant")] * 4, 5)
        whole = mtl_index._fit_leaves(outputs, targets, takes)
        monkeypatch.setattr(mtl_index, "STACK_LEAVES", stack_leaves)
        split = mtl_index._fit_leaves(outputs, targets, takes)
        assert [_bits(c).tolist() for c in split] == [_bits(c).tolist() for c in whole]

    def test_near_constant_outputs_warn_once_per_leaf(self):
        # Spread above the scalar branch's 1e-12, far below dgelsd's rcond.
        takes = np.array([2, 64, 2, 64, 10])
        outputs = np.concatenate(
            [1024.0 + np.arange(take) * (8 if take == 2 else 4) * np.spacing(1024.0) for take in takes]
        )
        targets = np.linspace(0.0, 1.0, outputs.size)
        _, stacked_warnings = _leaves_and_warnings(mtl_index._fit_leaves, outputs, targets, takes)
        assert stacked_warnings == takes.size

    @pytest.fixture
    def scalar_sizes(self, monkeypatch):
        """Record the slice size of each run of the per-k-mer spec."""
        sizes = []
        spec = mtl_index._fit_leaf
        monkeypatch.setattr(mtl_index, "_fit_leaf", lambda x, y: sizes.append(x.size) or spec(x, y))
        return sizes

    def test_only_degenerate_leaves_take_the_scalar_branch(self, monkeypatch, scalar_sizes):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        outputs, targets, takes = _slices([(1, "spread"), (5, "constant"), (9, "spread")] * 4, 3)
        mtl_index._fit_leaves(outputs, targets, takes)
        assert sorted(scalar_sizes) == [1] * 4 + [5] * 4

    @pytest.mark.parametrize(
        "gufunc",
        # Missing, or failing the way a LAPACK error surfaces under the errstate.
        [None, lambda *args, **kwargs: np.zeros(2) / np.zeros(2)],
        ids=["missing", "failing"],
    )
    def test_fallback_without_the_gufunc_has_the_same_bits(
        self, monkeypatch, scalar_sizes, gufunc
    ):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        stacked = _fingerprint(_trained(20_000, 1))
        assert not scalar_sizes
        monkeypatch.setattr(mtl_index, "_LSTSQ", gufunc)
        assert _fingerprint(_trained(20_000, 1)) == stacked
        assert len(scalar_sizes) == len(stacked["leaves"])

    def test_pure_python_runs_the_spec_with_the_same_bits(self, monkeypatch, scalar_sizes):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        stacked = _fingerprint(_trained(20_000, 1))
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        assert _fingerprint(_trained(20_000, 1)) == stacked
        assert len(scalar_sizes) == len(stacked["leaves"])

    def test_golden_columns_of_the_benchmark_recipe(self):
        index = _trained(60_000, 0)
        columns = (index._weights, index._biases, index._buckets)
        assert [column.dtype for column in columns] == [np.float64, np.float64, np.int8]
        digest = hashlib.sha256(b"".join(column.tobytes() for column in columns)).hexdigest()
        assert digest == GOLDEN_COLUMNS_60K_SEED0


class TestRecipeValidation:
    @pytest.mark.parametrize("knob", ["samples_per_kmer", "epochs"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.5], ids=["zero", "negative", "bool", "float"])
    def test_nonsense_is_refused(self, knob, value):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match=f"{knob} must be an integer >= 1"):
            MTLIndex(table, **{knob: value})

    @pytest.mark.parametrize("index", [MTLIndex, NaiveLearnedIndex])
    @pytest.mark.parametrize("value", [-1, True, 2.5, "16"], ids=["negative", "bool", "float", "str"])
    def test_threshold_nonsense_is_refused(self, index, value):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match="model_threshold must be an integer >= 0"):
            index(table, model_threshold=value)

    @pytest.mark.parametrize("index", [MTLIndex, NaiveLearnedIndex])
    def test_zero_threshold_models_every_present_kmer(self, index):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        assert index(table, model_threshold=0).modelled_kmers == table.present_kmers()

    @pytest.mark.parametrize(
        "edges", [(0, 64), (-4,), (True, 64), (2.5, 64), (64, "256")],
        ids=["zero", "negative", "bool", "float", "str"],
    )
    def test_bucket_edge_nonsense_is_refused(self, edges):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match="bucket_edges must be an integer >= 1"):
            MTLIndex(table, bucket_edges=edges)


class TestLoader:
    def test_no_compiler_warns_once_and_runs_the_specs(
        self, monkeypatch, unresolved, spec_calls, lru_spec_calls
    ):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
        requests = _requests(seed=4)
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        trace = MemoryTrace.from_requests(requests)
        addresses = trace.rows * 64
        with pytest.warns(RuntimeWarning, match="repro-no-such-compiler"):
            first = model.process_columns(trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = model.process_columns(trace)
            hits = hw_cache.simulate_lru_hits(addresses, 2048, 64, 4)
        assert first == second == [model.process(requests)]
        assert np.array_equal(hits, _reference_hits(addresses, 2048, 64, 4))
        assert len(spec_calls) == 2 and len(lru_spec_calls) == 1
        assert not native.kernel_active()
        assert not unresolved.exists()

    def test_no_compiler_one_warning_for_every_kernel(
        self, monkeypatch, unresolved, spec_calls, lru_spec_calls, mtl_spec_calls
    ):
        # MTL training comes first in a stack's set-up: it warns once for the
        # whole library, and the replay's cache and DRAM kernels stay quiet.
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
        table = ExmaTable("ACGTTGCAAC" * 60, k=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = MTLIndex(table, model_threshold=8, samples_per_kmer=16, epochs=5)
            index.predict_many(np.array(index.modelled_kmers), np.zeros(len(index.modelled_kmers)))
            requests = _requests(seed=4)
            trace = MemoryTrace.from_requests(requests)
            (stats,) = DRAMModel(page_policy=PagePolicy.DYNAMIC).process_columns(trace)
            hw_cache.simulate_lru_hits(trace.rows * 64, 2048, 64, 4)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1 and "compiled kernels unavailable" in messages[0]
        assert {"_sigmoid_spec", "_sigmoid_backward_spec"} <= {name for name, _ in mtl_spec_calls}
        assert spec_calls == [len(requests)] and len(lru_spec_calls) == 1
        assert stats == DRAMModel(page_policy=PagePolicy.DYNAMIC).process(requests)
        assert not unresolved.exists()

    def test_pure_python_forces_the_specs(self, monkeypatch, unresolved):
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not native.kernel_active()
        zero = _int64([0])
        keep = np.zeros(1, bool)
        assert native.dram_channels(zero, zero + 64, keep, zero, 1, 1, (0, 0, 0), 1, 1) is None
        assert native.occ_ranks(zero, zero, zero, zero, 1) is None
        matrix = zero.reshape(1, 1)
        assert native.lockstep(matrix, zero, zero, zero, keep, zero, zero, zero, 1) is None
        assert native.lru_hits(_int64([0, 64]), 64, 1, 1) is None
        hidden = np.full((3, 2), 0.5)
        assert not native.sigmoid(hidden, np.zeros(2))
        assert native.sigmoid_backward(hidden, np.ones(3), np.ones(2), np.empty((3, 2))) is None
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
        compiled_hits, _spec, expected = _lru_three_ways([0, 64, 0, 128, 64], 128, 64, 2)
        assert np.array_equal(compiled_hits, expected)

    def test_concurrent_first_use_in_threads(self, monkeypatch, unresolved):
        # Eight threads on two CPUs race the one-time build: the lock lets
        # exactly one compile, and every caller gets the spec's answer.
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        requests = _requests(seed=6, count=500)
        trace = MemoryTrace.from_requests(requests)
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(model.process_columns(trace)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert native.kernel_active()
        assert results == [[model.process(requests)]] * 8
        assert len(list(unresolved.iterdir())) == 1

    def test_concurrent_first_use_in_two_processes(self, tmp_path):
        script = (
            "import pathlib, sys, warnings\n"
            "warnings.simplefilter('error')\n"
            "import numpy as np\n"
            "from repro import native\n"
            "native.CACHE_DIR = pathlib.Path(sys.argv[1])\n"
            "column = np.arange(1, 1001, dtype=np.int64)\n"
            "print(native.lru_hits(column % 97 * 64, 64, 8, 4).tobytes().hex())\n"
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
        expected = _reference_hits(column % 97 * 64, 8 * 4 * 64, 64, 4)
        assert [out.strip() for out, _err in outputs] == [expected.tobytes().hex()] * 2
        assert len(list((tmp_path / "cache").iterdir())) == 1
