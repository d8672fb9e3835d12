"""The compiled kernels (:data:`repro.native.KERNELS`), their loader and
their specifications: **bit-identical outputs** on both paths, and a
failed build is one warning, never an exception or a different number.
:data:`ORACLE_CASES` gives each row one case, which two tests run: on a
hypothesis strategy against the spec, and on fixed inputs with the
library off three ways.  The classes hold what is more than "≡ spec":
named shapes, declines, edge doubles, adversarial LRU traces and the
loader's races; and the MTL leaves' stacked least-squares against its
spec, the per-k-mer ``np.polyfit``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pathlib
import pkgutil
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import native
from repro.accel import ExmaAccelerator
from repro.accel import exma_accelerator as accel_module
from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.exma_accelerator import INCREMENT_ENTRY_BYTES
from repro.engine import QueryEngine
from repro.engine.backends import ExmaBackend, _lockstep_spec
from repro.engine.coalesce import BatchStats, BatchTrace
from repro.engine.window import CoalescingWindow
from repro.exma import mtl_index
from repro.exma.mtl_index import MTLIndex, SharedNode
from repro.exma.search import OccRequest
from repro.exma.table import ExmaTable
from repro.genome.alphabet import QueryBatch
from repro.genome.datasets import build_dataset
from repro.genome.sequence import RepeatProfile, random_genome
from repro.hw import cache as hw_cache
from repro.hw import dram as hw_dram
from repro.hw import scheduler as hw_scheduler
from repro.hw.cam import CamConfig
from repro.hw.dram import (
    BURST_BYTES, DDR4Config, DRAMModel, MemoryRequest, MemoryTrace, PagePolicy,
)
from repro.runtime import PURE_PYTHON_ENV
from repro.testing import backend_search, random_queries

SOURCE_TREE = pathlib.Path(repro.__file__).resolve().parent
kernel_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


ZERO = _int64([0])


@pytest.fixture
def compiled(monkeypatch):
    """Force the compiled library on, whatever ``REPRO_PURE_PYTHON`` says."""
    monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
    monkeypatch.setattr(native, "_library", native._UNRESOLVED)
    assert native.loaded_kernels(), "this host has a C compiler: the kernels must load"


@contextlib.contextmanager
def no_library():
    """The compiled library unavailable inside the block: every wrapper
    declines and its caller runs the row's spec."""
    library, native._library = native._library, None
    try:
        yield
    finally:
        native._library = library


@pytest.fixture
def spec_calls(monkeypatch) -> dict[str, list[int]]:
    """Per :data:`repro.native.KERNELS` symbol, the length of the data
    argument at each run of its row's spec (rows sharing a spec share a
    list)."""
    calls = {}
    for path in dict.fromkeys(kernel.spec for kernel in native.KERNELS):
        owner_path, _, name = path.rpartition(".")
        owner, runs = pkgutil.resolve_name(owner_path), []

        # A method's data argument follows its instance.
        def counted(*args, _spec=getattr(owner, name), _runs=runs, _at=int(isinstance(owner, type))):
            _runs.append(len(args[_at]))
            return _spec(*args)

        monkeypatch.setattr(owner, name, counted)
        calls.update({kernel.symbol: runs for kernel in native.KERNELS if kernel.spec == path})
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


def _shard_stats(model: DRAMModel, trace: MemoryTrace, channels: int) -> list:
    """The object model over each of :meth:`MemoryTrace.split_channels`' shards."""
    shards = [
        zip(*(c.tolist() for c in (shard.rows, shard.nbytes, shard.keep_open, shard.streams)))
        for shard in trace.split_channels(channels)
    ]
    return [model.process([MemoryRequest(*fields) for fields in shard]) for shard in shards]


#: Channel counts and bus widths either side of a power of two (the
#: kernel's mask and shift).
DRAM_INPUTS = st.tuples(
    dram_requests(), st.integers(1, 8), st.sampled_from(list(PagePolicy)),
    st.sampled_from([(16, 16, 16), (0, 3, 50)]), st.sampled_from([16, 1, 24, 64]),
)


def _dram_oracle(spec_calls, drawn) -> None:
    """``process_columns(trace, c)`` is :meth:`DRAMModel.process` over each
    ``split_channels(c)`` shard, whichever path computes it."""
    requests, channels, policy, (tcas, trcd, trp), bus = drawn
    config = DDR4Config(tcas=tcas, trcd=trcd, trp=trp, bus_bytes_per_cycle=bus)
    model = DRAMModel(config, page_policy=policy)
    trace = MemoryTrace.from_requests(requests)
    expected = _shard_stats(model, trace, channels)
    assert model.process_columns(trace, channels) == expected
    with no_library():
        assert model.process_columns(trace, channels) == expected


def _dram_case() -> list:
    """Per policy: two random traces, the empty, one-bank and one-stream
    shapes, and negative rows with sparse stream ids; then three channels
    of nothing."""
    sparse = zip([-1, -49, 5, -1, 47, -96, 0, -1], [0, 10**6, 3, 250_000, 10**6, 7, 0, 3])
    traces = [
        _requests(seed=3), _requests(seed=4), [],
        [MemoryRequest(row=0, stream=s) for s in range(40)],
        [MemoryRequest(row=r, stream=0) for r in range(40)],
        [
            MemoryRequest(row=row, nbytes=64 * (1 + i % 3), keep_open_hint=i % 2 == 0, stream=s)
            for i, (row, s) in enumerate(sparse)
        ],
    ]
    answers = [DRAMModel().process_columns(MemoryTrace(), 3)]
    assert answers[0] == [hw_dram.DRAMStats()] * 3
    for requests in traces:
        for policy in PagePolicy:
            model = DRAMModel(page_policy=policy)
            answers.append(model.process_columns(MemoryTrace.from_requests(requests)))
            assert answers[-1] == [model.process(requests)]
    return answers


class TestDramDeclines:
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

    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_huge_request_takes_the_python_path(self, compiled, spec_calls, policy):
        # A caller-built trace can carry any positive nbytes: one of ~2**60
        # bytes among 200 small ones puts the counters' bound past 2**63.
        requests = _requests(seed=5, count=200)
        requests[17] = MemoryRequest(row=3, nbytes=2**60 - 5, stream=1)
        model = DRAMModel(page_policy=policy)
        (stats,) = model.process_columns(MemoryTrace.from_requests(requests))
        assert spec_calls["dram_channels"] == [len(requests)]
        assert stats == model.process(requests)
        assert stats.total_cycles > 2**56

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
        assert len(spec_calls["dram_channels"]) == (0 if decline is None else shards)

    @pytest.mark.parametrize("channels", [0, -1, True, 2.0])
    def test_refuses_a_channel_count_that_is_not_positive(self, channels):
        trace = MemoryTrace.from_requests([MemoryRequest(row=0)])
        with pytest.raises(ValueError, match="channels"):
            DRAMModel().process_columns(trace, channels)


# The trace kernel's inputs are `ExmaAccelerator.run`'s columns: base and
# index-cache outcomes, each stage-2 slot's fetch offset (base pointer plus
# predicted entry) and entry count, and its keep-open hint.
TRACE_SIZES = (BURST_BYTES * 8, BURST_BYTES)  # the chunk cap and a miss's bytes


def _trace_columns(
    rng, count: int, modelled: str, base_hits: str, index_hits: str, max_entries: int
) -> tuple:
    """One flush's columns: each of *modelled*, *base_hits* and
    *index_hits* is ``"none"``, ``"some"`` or ``"all"`` of the slots."""

    def share(mode: str, size: int) -> np.ndarray:
        return rng.random(size) < {"none": 0.0, "some": 0.5, "all": 1.0}[mode]

    modelled_slots = np.flatnonzero(share(modelled, count))
    return (
        rng.integers(0, 10**6, count), ~share(base_hits, count), modelled_slots,
        rng.integers(0, 10**6, 2 * modelled_slots.size), share(index_hits, 2 * modelled_slots.size),
        rng.integers(0, 50_000, count), rng.integers(1, max_entries + 1, count),
        rng.random(count) < 0.5,
    )


@st.composite
def trace_inputs(draw):
    """Row sizes of 64, 96 and 2048 bytes; a CAM of 1-512 entries, with a
    partial last batch or none; zero, some or all slots modelled; caches
    that hit always, never or sometimes; fetches inside a row, across
    rows and over the cap (up to 700 entries); CHAIN ratios below 1."""
    cam_entries = draw(st.integers(1, 512))
    count = draw(st.integers(0, 2)) * cam_entries + draw(st.integers(0, cam_entries - 1))
    modes = st.sampled_from(["none", "some", "all"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = _trace_columns(
        rng, max(count, 1), draw(modes), draw(modes), draw(modes),
        draw(st.sampled_from([1, 16, 700])),
    )
    row_bytes = draw(st.sampled_from([64, 96, 2048]))
    ratio = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0, exclude_max=True)))
    return columns, cam_entries, row_bytes, draw(st.integers(0, 10**6)), ratio


def _scalar_trace(columns, cam_entries: int, row_bytes: int, offset: int, ratio: float) -> list:
    """The trace :meth:`ExmaAccelerator.run_reference` issues, one
    ``(row, nbytes, keep_open, stream)`` at a time: each batch's base
    misses, then each slot's bucket and leaf misses and its cursor chunks."""
    base, base_miss, modelled, index, index_hits, offsets, entries, keep = (
        c.tolist() for c in columns
    )
    nodes = {slot: 2 * m for m, slot in enumerate(modelled)}
    cap, miss_bytes = TRACE_SIZES
    trace = []
    for batch in range(0, len(base), cam_entries):
        end = min(batch + cam_entries, len(base))
        trace += [(base[i] // row_bytes, miss_bytes, False, 0) for i in range(batch, end) if base_miss[i]]
        for slot in range(batch, end):
            if slot in nodes:
                trace += [
                    (index[node] // row_bytes, miss_bytes, False, slot - batch)
                    for node in (nodes[slot], nodes[slot] + 1) if not index_hits[node]
                ]
            cursor = offset + int(offsets[slot] * (INCREMENT_ENTRY_BYTES * ratio))
            remaining = max(1, int(entries[slot] * INCREMENT_ENTRY_BYTES * ratio))
            while remaining > 0:
                chunk = min(remaining, row_bytes - cursor % row_bytes, cap)
                trace.append((cursor // row_bytes, chunk, keep[slot], slot - batch))
                cursor, remaining = cursor + chunk, remaining - chunk
    return trace


def _compiled_trace(columns, cam_entries: int, row_bytes: int, offset: int, ratio: float):
    return native.replay_trace(*columns, cam_entries, row_bytes, offset, ratio)


def _trace_tuples(rows, nbytes, keep_open, streams) -> list:
    assert [c.dtype for c in (rows, nbytes, keep_open, streams)] == [np.int64] * 2 + [bool, np.int64]
    return list(zip(rows.tolist(), nbytes.tolist(), keep_open.tolist(), streams.tolist()))


def _trace_oracle(spec_calls, drawn) -> None:
    """The compiled trace equals its spec and the reference's scalar
    cursor, entry for entry."""
    columns, cam_entries, row_bytes, offset, ratio = drawn
    expected = _scalar_trace(*drawn)
    assert _trace_tuples(*_compiled_trace(*drawn)) == expected
    spec = accel_module._assemble_trace(*columns, cam_entries, row_bytes, offset, ratio)
    assert _trace_tuples(spec.rows, spec.nbytes, spec.keep_open, spec.streams) == expected


@functools.cache
def _replay_runs() -> tuple:
    """Accelerators, streams and their reference replays: an MTL-indexed
    4-mer table with CHAIN on (a ratio below 1; 16 of 256 k-mers modelled)
    and a repeat-rich unindexed 2-mer table with CHAIN off (exact scans
    of up to ~1.5 KB); 24-entry CAMs with a partial last batch."""
    config = ExmaAcceleratorConfig().with_overrides(
        base_cache_bytes=2048, index_cache_bytes=1024, cam_entries=24
    )
    table = ExmaTable(LOCKSTEP_REFERENCE, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=30, seed=0)
    repeats = random_genome(
        4000, repeat_profile=RepeatProfile(repeat_fraction=0.7, repeat_unit_length=120), seed=11
    )
    scans = ExmaTable(repeats, k=2)
    runs = []
    for accelerator, backend, reference in (
        (ExmaAccelerator(table, mtl, config), ExmaBackend(table=table, index=mtl), LOCKSTEP_REFERENCE),
        (
            ExmaAccelerator(scans, None, config.with_overrides(use_chain_compression=False)),
            ExmaBackend(table=scans),
            repeats,
        ),
    ):
        stream, _ = QueryEngine(backend).request_stream(random_queries(reference, 12, 20, seed=3))
        assert len(stream) % 24
        runs.append((accelerator, stream, accelerator.run_reference(list(stream))))
    return tuple(runs)


def _replay_case() -> list:
    """``run`` on both stacks, each field for field its reference replay."""
    answers = []
    for accelerator, stream, reference in _replay_runs():
        answers.append(accelerator.run(stream))
        assert answers[-1] == reference
    return answers


TRACE_DECLINED = _trace_columns(np.random.default_rng(5), 40, "some", "some", "some", 700)


class TestReplayTraceDeclines:
    @pytest.mark.parametrize("column, value", [(0, -64), (3, -64), (5, -1)],
                             ids=["base-miss-address", "index-miss-address", "fetch-start"])
    def test_negative_addresses_decline(self, compiled, column, value):
        # C truncates a negative quotient toward zero where Python floors.
        columns = [np.copy(c) for c in TRACE_DECLINED]
        columns[1][:], columns[4][:] = True, False  # every access misses
        assert _compiled_trace(columns, 8, 96, 0, 1.0) is not None
        columns[column][7] = value
        assert _compiled_trace(columns, 8, 96, 0, 1.0) is None
        assert _compiled_trace(TRACE_DECLINED, 8, 96, -1, 1.0) is None

    def test_byte_ranges_that_could_pass_int64_decline(self, compiled):
        # A start's double product must stay below 2**61 (so start plus
        # size stays below 2**63): 128 entries short of it runs compiled.
        columns = [np.copy(c) for c in TRACE_DECLINED]
        columns[5][3] = 2**59 - 2**7
        trace = _compiled_trace(columns, 8, 2048, 0, 1.0)
        assert _trace_tuples(*trace) == _scalar_trace(columns, 8, 2048, 0, 1.0)
        columns[5][3] = 2**59
        assert _compiled_trace(columns, 8, 2048, 0, 1.0) is None
        columns[5][3] = 0
        columns[6][3] = 2**59  # a size of 2**61 bytes
        assert _compiled_trace(columns, 8, 2048, 0, 1.0) is None
        for ratio in (float("nan"), float("inf")):
            assert _compiled_trace(TRACE_DECLINED, 8, 2048, 0, ratio) is None
        assert _compiled_trace(TRACE_DECLINED, 8, 2048, 2**61, 1.0) is None

    @pytest.mark.parametrize("cam_entries, row_bytes", [(0, 2048), (8, 0)])
    def test_sizes_below_one_decline(self, compiled, cam_entries, row_bytes):
        assert _compiled_trace(TRACE_DECLINED, cam_entries, row_bytes, 0, 1.0) is None

    def test_fixed_sizes_are_the_specs(self):
        sizes = (native.TRACE_CHUNK_CAP, native.TRACE_MISS_BYTES, native.TRACE_ENTRY_BYTES)
        assert sizes == (*TRACE_SIZES, INCREMENT_ENTRY_BYTES)

    def test_modelled_slots_out_of_order_decline(self, compiled):
        columns = list(TRACE_DECLINED)
        columns[2] = columns[2][::-1]
        assert columns[2].size > 1 and _compiled_trace(columns, 8, 2048, 0, 1.0) is None

    def test_ragged_columns_are_refused(self, compiled):
        for column in (0, 3, 7):
            columns = list(TRACE_DECLINED)
            columns[column] = columns[column][1:]
            with pytest.raises(ValueError, match="length"):
                _compiled_trace(columns, 8, 2048, 0, 1.0)

    @pytest.mark.parametrize("row_bytes", [64, 96, 2048])
    @pytest.mark.parametrize("shape", ["crossing", "aligned"])
    def test_the_buffer_holds_the_densest_traces(self, compiled, row_bytes, shape):
        # The wrapper sizes one buffer from the misses and the entries'
        # sum.  Its tightest cases: every access missing and every fetch
        # 8 bytes across a row boundary (two chunks), or fetches starting
        # and ending on 512-byte boundaries, whole rows and chunk caps.
        columns = [np.copy(c) for c in TRACE_DECLINED]
        columns[1][:], columns[4][:] = True, False
        rng = np.random.default_rng(8)
        if shape == "crossing":
            columns[5] = rng.integers(1, 400, 40) * (row_bytes // 4) - 1
            columns[6] = np.full(40, 2)
        else:
            columns[5], columns[6] = rng.integers(0, 400, 40) * 128, rng.integers(1, 24, 40) * 128
        trace = _compiled_trace(columns, 8, row_bytes, 0, 1.0)
        assert _trace_tuples(*trace) == _scalar_trace(columns, 8, row_bytes, 0, 1.0)

    def test_a_trace_past_its_buffer_declines(self, compiled):
        # A negative entry count (a fetch of one byte) hides another
        # slot's 400 KB from the entries' sum that sizes the buffer.
        columns = [np.copy(c) for c in TRACE_DECLINED]
        columns[6][0], columns[6][1] = -(10**5), 10**5
        assert _compiled_trace(columns, 8, 2048, 0, 1.0) is None
        spec = accel_module._assemble_trace(*columns, 8, 2048, 0, 1.0)
        assert _trace_tuples(spec.rows, spec.nbytes, spec.keep_open, spec.streams) == (
            _scalar_trace(columns, 8, 2048, 0, 1.0)
        )


# 3-mers over a reference with no ``T`` but a long ``A`` run: 37 of the 64
# k-mers never occur, and ``AAA`` owns a segment of 300 increments.
OCC_TABLE = ExmaTable(
    "".join(np.random.default_rng(11).choice(list("ACG"), 900)) + "A" * 300 + "CG" * 50, k=3
)


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


def _occ_oracle(spec_calls, columns) -> None:
    """The compiled Occ walk equals the augmented-array ``searchsorted`` and
    the scalar :meth:`ExmaTable.occ` in any request order."""
    kmers, positions = columns
    ranks = OCC_TABLE.occ_batch(kmers, positions)
    assert not spec_calls["occ_ranks"]
    expected = [OCC_TABLE.occ(int(k), int(p)) for k, p in zip(kmers, positions)]
    assert ranks.dtype == np.int64 and ranks.tolist() == expected
    with no_library():
        assert OCC_TABLE.occ_batch(kmers, positions).tolist() == expected


OCC_REQUESTS = (_int64([0, 0, 5, 63]), _int64([1301, 0, 700, 1301]))


def _occ_case() -> list:
    """Both ends of the reference and an absent k-mer; a 2-D batch, which
    keeps its shape; and all 64 x 1302 keys in order and reversed, which
    walk each segment from its first entry to past its last, absent
    k-mers' empty ones too."""
    ranks = OCC_TABLE.occ_batch(*OCC_REQUESTS).tolist()
    assert ranks == [OCC_TABLE.occ(int(k), int(p)) for k, p in zip(*OCC_REQUESTS)]
    kmers, positions = _int64([[0, 5, 5], [63, 0, 2]]), _int64([[0, 1301, 7], [1301, 1301, 0]])
    answers = [ranks, OCC_TABLE.occ_batch(kmers, positions).tolist()]
    assert np.shape(answers[1]) == (2, 3)
    n = OCC_TABLE.reference_length
    kmers, positions = np.repeat(np.arange(64), n + 1), np.tile(np.arange(n + 1), 64)
    for order in (slice(None), slice(None, None, -1)):
        answers.append(OCC_TABLE.occ_batch(kmers[order], positions[order]).tolist())
    assert answers[2][0] == 0 and answers[2][-1] == OCC_TABLE.frequency(63)
    return answers


class TestOccRanks:
    def test_table_shape(self):
        assert OCC_TABLE.reference_length == 1301
        assert (OCC_TABLE.frequencies() == 0).sum() == 37
        assert OCC_TABLE.frequency("AAA") >= 300

    def test_requests_out_of_range_decline(self, compiled, spec_calls):
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
                OCC_TABLE.occ_batch(_int64(kmers), _int64(positions))
        assert spec_calls["occ_ranks"] == []


LOCKSTEP_REFERENCE = random_genome(1200, seed=21)
LOCKSTEP_STEPS = (2, 4, 6)
LOCKSTEP_QUERIES = [LOCKSTEP_REFERENCE[i : i + 25] for i in range(0, 400, 9)] + ["ACG"]
#: One EXMA backend per step number k over the same reference.
LOCKSTEP_BACKENDS = {
    k: ExmaBackend(table=ExmaTable(LOCKSTEP_REFERENCE, k=k)) for k in LOCKSTEP_STEPS
}


@st.composite
def lockstep_batches(draw):
    """A step number and a batch of variable lengths mixing reference
    substrings (hits), random strings (which die within a few steps) and
    repeats of both.  The longest query is below k (every row a tail with
    zero steps), up to 3k + 2, or up to 40 symbols."""
    k = draw(st.sampled_from(LOCKSTEP_STEPS))
    longest = draw(st.sampled_from([k - 1, 3 * k + 2, 40]))
    substring = st.tuples(
        st.integers(0, len(LOCKSTEP_REFERENCE) - 40), st.integers(1, longest)
    ).map(lambda t: LOCKSTEP_REFERENCE[t[0] : t[0] + t[1]])
    query = st.one_of(substring, st.text(alphabet="ACGT", min_size=1, max_size=longest))
    queries = draw(st.lists(query, min_size=1, max_size=30))
    return k, queries + draw(st.lists(st.sampled_from(queries), max_size=6))


def _lockstep_inputs(backend: ExmaBackend, queries) -> tuple:
    """``search_batch``'s inputs to the lockstep pass: the batch's lengths
    and codes, k, the bounds after each query's tail (its last
    ``len % k`` symbols), and the count table."""
    table, k = backend.table, backend.table.k
    batch = QueryBatch.from_strings(queries)
    lows = np.zeros(len(queries), dtype=np.int64)
    highs = np.full(len(queries), table.reference_length, dtype=np.int64)
    for i, query in enumerate(queries):
        if len(query) % k:
            lows[i], highs[i] = table.prefix_interval(query[len(query) - len(query) % k :])
    return batch.lengths, batch.codes, k, lows, highs, table.count_table()


def _both_locksteps(backend: ExmaBackend, queries) -> tuple:
    """The compiled pass and its spec on the same inputs, which neither may
    change."""
    table = backend.table
    inputs = _lockstep_inputs(backend, queries)
    before = [np.copy(value) for value in inputs]
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
    intervals = backend_search(backend, queries, stats)
    steps = [(s.keys.tolist(), s.occ.tolist(), s.contribution) for s in stats.trace.steps]
    stats.trace = None
    return intervals, stats, steps


def _lockstep_oracle(spec_calls, batch) -> None:
    """The compiled lockstep pass equals ``_lockstep_spec``, output for
    output, and ``search_batch`` gives the same intervals and
    ``BatchStats`` on both paths."""
    k, queries = batch
    backend = LOCKSTEP_BACKENDS[k]
    _assert_same_outputs(*_both_locksteps(backend, queries))
    searched = _traced_search(backend, queries)
    assert not spec_calls["lockstep"]
    with no_library():
        assert _traced_search(backend, queries) == searched
    assert spec_calls["lockstep"] == [len(queries)]


class TestLockstep:
    @pytest.mark.parametrize(
        "case",
        ["tails only", "all die early", "duplicates", "batch of one", "mixed lengths"],
    )
    @pytest.mark.parametrize("k", LOCKSTEP_STEPS)
    def test_named_shapes(self, compiled, case, k):
        hit = LOCKSTEP_REFERENCE[100:136]
        queries = {
            "tails only": [hit[: k - 1], "C", hit[5 : 5 + k - 1]],
            "all die early": ["ACGT" * 9, "TTTTGGGGCCCCAAAA" * 2 + "ACGT"],
            "duplicates": [hit, hit, hit[:20], hit, hit[:20]],
            "batch of one": [hit],
            "mixed lengths": [hit, hit[:1], hit[:k], hit[: k + 1], hit[:13], "GATTACA" * 5],
        }[case]
        compiled, spec = _both_locksteps(LOCKSTEP_BACKENDS[k], queries)
        _assert_same_outputs(compiled, spec)
        max_steps = max(len(query) for query in queries) // k
        steps_run = compiled[5].size
        if case == "tails only":
            assert max_steps == steps_run == 0
        elif case == "all die early":
            assert 0 < steps_run < max_steps
        else:
            assert steps_run == max_steps
        assert compiled[4][0] == 0 and compiled[4][-1] == compiled[2].size

    def test_declines_out_of_range_inside_the_pass(self, compiled):
        backend = LOCKSTEP_BACKENDS[4]
        table = backend.table
        lengths, codes, k, lows, highs, counts = _lockstep_inputs(
            backend, [LOCKSTEP_REFERENCE[10:30], LOCKSTEP_REFERENCE[50:70]]
        )
        constants = (table.increments, table._kmer_rank_base, table.reference_length)
        assert native.lockstep(lengths, codes, k, lows, highs, counts, *constants)
        n = table.reference_length
        # The second query's first code leads its last chunk: a 5 there
        # packs past 4^k; a 0 or a 5 anywhere in a chunk is no code.
        broken = [
            (codes, 20, 5), (codes, 20, 0), (codes, 22, 5), (lows, 1, -1), (highs, 1, n + 1)
        ]
        for array, slot, value in broken:
            kept = array[slot]
            array[slot] = value
            assert native.lockstep(
                lengths, codes, k, lows, highs, counts, *constants
            ) is None
            array[slot] = kept
        with pytest.raises(ValueError, match="length"):
            native.lockstep(lengths[:1], codes, k, lows, highs, counts, *constants)
        with pytest.raises(ValueError, match="length"):
            native.lockstep(lengths, codes[:-1], k, lows, highs, counts, *constants)
        # The right total, but a row past the codes' end.
        overrun = np.array([lengths.sum() + 1, -1])
        with pytest.raises(ValueError, match="length"):
            native.lockstep(overrun, codes, k, lows, highs, counts, *constants)
        with pytest.raises(ValueError, match="length"):
            native.lockstep(lengths, codes, k, lows, highs, counts[:-1], *constants)
        # A dead query's codes are never read, whatever they hold.
        highs[1] = lows[1]
        codes[20:] = 9
        assert native.lockstep(lengths, codes, k, lows, highs, counts, *constants)

    def test_keys_that_could_pass_int64_decline_to_the_spec(self, compiled, monkeypatch, spec_calls):
        assert native.lockstep(
            ZERO + 1, np.ones(1, np.uint8), 1, ZERO, ZERO, ZERO, ZERO,
            _int64([0, 0, 0, 0]), 2**61,
        ) is None
        backend = LOCKSTEP_BACKENDS[6]
        queries = [LOCKSTEP_REFERENCE[i : i + 30] for i in range(0, 300, 7)]
        expected = _traced_search(backend, queries)
        monkeypatch.setattr(native, "INT64_END", 4**6)  # the guard declines
        assert _traced_search(backend, queries) == expected
        assert spec_calls["lockstep"] == [len(queries)]

    @pytest.mark.parametrize("path", ["declined", "pure-python"])
    @pytest.mark.parametrize("bad", ["k-mer", "positions"])
    def test_out_of_range_is_refused_on_the_spec_path(
        self, compiled, monkeypatch, spec_calls, bad, path
    ):
        # The pass declines a k-mer past 4^k (at the last step) or a count
        # table shifted by |G| (every bound past |G|); the spec refuses
        # both, where a bound would otherwise fold into the next k-mer.
        backend = LOCKSTEP_BACKENDS[6]
        table = backend.table
        queries = [LOCKSTEP_REFERENCE[i : i + 30] for i in range(0, 300, 7)]
        batch = QueryBatch.from_strings(queries)
        if bad == "k-mer":
            # The last query's first code leads its last chunk: packed
            # from a 5, that chunk is past 4^k.
            codes = batch.codes.copy()
            codes[-30] = 5
            batch = QueryBatch(codes, batch.lengths)
        else:
            shifted = table.count_table() + table.reference_length
            monkeypatch.setattr(table, "count_table", lambda: shifted)
        inputs = list(_lockstep_inputs(backend, queries))
        inputs[1] = batch.codes
        constants = (table.increments, table._kmer_rank_base, table.reference_length)
        assert native.lockstep(*inputs, *constants) is None
        if path == "pure-python":
            monkeypatch.setattr(native, "_library", native._UNRESOLVED)
            monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        with pytest.raises(ValueError, match=f"{bad} out of range"):
            backend.search_batch(batch)
        assert spec_calls["lockstep"] == [len(queries)]


def _lru_three_ways(addresses, capacity: int, line: int, ways: int):
    """(compiled, spec, object model) hit masks of one cold cache."""
    addresses = _int64(addresses)
    compiled = native.lru_hits(addresses, line, capacity // (line * ways), ways)
    with no_library():
        spec = hw_cache.simulate_lru_hits(addresses, capacity, line, ways)
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


LRU_INPUTS = st.tuples(
    st.integers(1, 64),
    st.integers(1, 16),
    st.one_of(st.sampled_from([16, 32, 64, 128]), st.integers(16, 128)),
    st.lists(st.integers(0, 2**20), max_size=200),
)


def _lru_oracle(spec_calls, drawn) -> None:
    sets, ways, line, addresses = drawn
    compiled_hits, spec, expected = _lru_three_ways(addresses, sets * ways * line, line, ways)
    assert np.array_equal(compiled_hits, expected) and np.array_equal(spec, expected)


def _lru_case() -> list:
    answers = []
    for addresses in (
        MemoryTrace.from_requests(_requests(seed=4)).rows * 64,
        np.random.default_rng(7).integers(0, 4096, 500) * 8,
    ):
        hits = hw_cache.simulate_lru_hits(addresses, 2048, 64, 4)
        assert np.array_equal(hits, _reference_hits(addresses, 2048, 64, 4))
        answers.append(hits.tolist())
    return answers


class TestLruKernel:
    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (64, 16), (2048, 8)])
    @pytest.mark.parametrize(
        "trace", ["cycle-of-ways-plus-one", "hot-and-streaming", "one-set", "same-line-runs", "empty"]
    )
    def test_adversarial_traces(self, compiled, shape, trace):
        sets, ways = shape
        _lru_oracle(None, (sets, ways, 64, _adversarial(sets, ways, 64)[trace]))

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

    def test_scratch_beyond_its_bound_declines(self, compiled, spec_calls):
        # 256 ways in 256 touched sets would be 256 tags per access.
        addresses = _int64(np.repeat(np.arange(256) * 64, 2))
        assert native.lru_hits(addresses, 64, 256, 256) is None
        hits = hw_cache.simulate_lru_hits(addresses, 256 * 256 * 64, 64, 256)
        assert spec_calls["lru_hits"] and np.array_equal(hits, np.arange(512) % 2 == 1)

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


def _sigmoid_oracle(spec_calls, arrays) -> None:
    hidden, _rows, bias = arrays
    compiled_out, spec_out = _both_sigmoids(hidden, bias)
    _assert_same_bits([compiled_out], [spec_out])


def _sigmoid_backward_oracle(spec_calls, arrays) -> None:
    _assert_same_bits(*_both_backwards(*arrays))


def _sigmoid_case() -> list:
    """The smallest layer that runs compiled."""
    rng = np.random.default_rng(1)
    features, w1 = rng.random((mtl_index.COMPILED_MIN_ROWS, 2)), rng.normal(size=(2, 10))
    return _bits(mtl_index._hidden_layer(features, w1, rng.normal(size=10))).tolist()


class TestMTLKernelsEqualSpec:
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

    def test_declined_layer_runs_the_spec_with_the_same_bits(self, compiled, spec_calls):
        # _sigmoid_case's layer, with its bias strided: C cannot address it.
        rng = np.random.default_rng(1)
        rows = mtl_index.COMPILED_MIN_ROWS
        features, w1 = rng.random((rows, 2)), rng.normal(size=(2, 10))
        strided = np.repeat(rng.normal(size=10), 2)[::2]
        assert _bits(mtl_index._hidden_layer(features, w1, strided)).tolist() == _sigmoid_case()
        assert spec_calls["sigmoid_in"] == [rows] and not spec_calls["sigmoid_backward"]

    def test_small_layers_take_the_spec_with_the_same_bits(self, compiled, spec_calls):
        rng = np.random.default_rng(2)
        rows = mtl_index.COMPILED_MIN_ROWS
        features, w1, bias = rng.random((rows, 2)), rng.normal(size=(2, 10)), rng.normal(size=10)
        full = mtl_index._hidden_layer(features, w1, bias)
        head = mtl_index._hidden_layer(features[: rows - 1], w1, bias)
        assert spec_calls["sigmoid_in"] == [rows - 1] and not spec_calls["sigmoid_backward"]
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


def _training_case() -> tuple:
    table = ExmaTable("ACGTTGCAAC" * 60, k=2)
    index = MTLIndex(table, model_threshold=8, samples_per_kmer=16, epochs=5)
    kmers = np.array(index.modelled_kmers)
    return _fingerprint(index), _bits(index.predict_many(kmers, np.zeros(kmers.size))).tolist()


class TestTrainedIndexBothPaths:
    @pytest.mark.parametrize("length", [20_000, 40_000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_index(self, compiled, spec_calls, length, seed):
        fast = _fingerprint(_trained(length, seed))
        # Training runs compiled; only layers too small to pay take the spec.
        layers = spec_calls["sigmoid_in"] + spec_calls["sigmoid_backward"]
        assert all(rows < mtl_index.COMPILED_MIN_ROWS for rows in layers)
        with no_library():
            spec = _fingerprint(_trained(length, seed))
        assert spec_calls["sigmoid_in"] and spec_calls["sigmoid_backward"]
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

    @pytest.mark.parametrize("off", ["missing", "failing", "pure-python"])
    def test_fallback_has_the_same_bits(self, monkeypatch, scalar_sizes, off):
        # The gufunc missing, or failing the way a LAPACK error surfaces
        # under the errstate; or REPRO_PURE_PYTHON.
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        stacked = _fingerprint(_trained(20_000, 1))
        assert not scalar_sizes
        if off == "pure-python":
            monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        else:
            failing = lambda *args, **kwargs: np.zeros(2) / np.zeros(2)  # noqa: E731
            monkeypatch.setattr(mtl_index, "_LSTSQ", None if off == "missing" else failing)
        assert _fingerprint(_trained(20_000, 1)) == stacked
        assert len(scalar_sizes) == len(stacked["leaves"])

    def test_golden_columns_of_the_benchmark_recipe(self):
        index = _trained(60_000, 0)
        columns = (index._weights, index._biases, index._buckets)
        assert [column.dtype for column in columns] == [np.float64, np.float64, np.int8]
        digest = hashlib.sha256(b"".join(column.tobytes() for column in columns)).hexdigest()
        assert digest == GOLDEN_COLUMNS_60K_SEED0


# The CAM schedule's inputs.  A window flush is key-sorted, so every CAM
# batch's k-mers ascend and stage 1 is the arrival order; a search's
# stream is not, and stage 1 is the stable per-batch k-mer sort.
CAM_SIZES = (1, 3, 128, 512)


def _schedule_columns(rng, count: int, kmer_span: int, pos_span: int, order: str) -> tuple:
    kmers, positions = rng.integers(0, kmer_span, count), rng.integers(0, pos_span, count)
    if order == "flush":  # unique (k-mer, pos) keys, ascending
        keys = np.unique(kmers * pos_span + positions)
        kmers, positions = keys // pos_span, keys % pos_span
    elif order == "by-kmer":
        kmers = np.sort(kmers)
    elif order == "repeats":
        picks = rng.integers(0, max(count // 3, 1), count)
        kmers, positions = kmers[picks], positions[picks]
    return _int64(kmers), _int64(positions)


@st.composite
def schedule_inputs(draw):
    """A CAM of 1, 3, 128 or 512 entries (or 1-17) with full batches and a
    partial last one or none; requests key-sorted and unique (a window
    flush), sorted by k-mer only, shuffled, or shuffled with repeats;
    either scheduler."""
    cam_entries = draw(st.one_of(st.sampled_from(CAM_SIZES), st.integers(1, 17)))
    count = draw(st.integers(0, 2)) * cam_entries + draw(st.integers(0, cam_entries - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = _schedule_columns(
        rng, count, draw(st.sampled_from([1, 4, 64])), draw(st.sampled_from([1, 50, 10**6])),
        draw(st.sampled_from(["flush", "by-kmer", "shuffled", "repeats"])),
    )
    return (*columns, cam_entries, draw(st.booleans()))


def _cam_model(kmers, positions, cam_entries: int, two_stage: bool) -> tuple:
    """Stage 1, stage 2 (as ``(k-mer, pos)`` pairs) and the hints of the
    object schedulers and ``pair_requests_by_kmer``."""
    requests = [OccRequest(k, p) for k, p in zip(kmers.tolist(), positions.tolist())]
    scheduler = (hw_scheduler.TwoStageScheduler if two_stage else hw_scheduler.FrFcfsScheduler)(
        CamConfig(entries=cam_entries)
    )
    batches = list(scheduler.schedule(requests))
    pairs = [
        [(r.packed_kmer, r.pos) for batch in batches for r in getattr(batch, stage)]
        for stage in ("stage1", "stage2")
    ]
    hints = [hint for batch in batches for _, hint in hw_scheduler.pair_requests_by_kmer(batch.stage2)]
    return (*pairs, hints)


def _schedule_oracle(spec_calls, drawn) -> None:
    """``scheduled_orders`` compiled equals its spec array for array, and
    the CAM object model request for request and hint for hint."""
    kmers, positions, cam_entries, two_stage = drawn
    compiled = hw_scheduler.scheduled_orders(kmers, positions, cam_entries, two_stage)
    assert not spec_calls["cam_keys"]
    with no_library():
        spec = hw_scheduler.scheduled_orders(kmers, positions, cam_entries, two_stage)
    assert spec_calls["cam_keys"] == [kmers.size]
    assert [c.dtype for c in compiled] == [np.int64, np.int64, bool]
    assert [c.tolist() for c in compiled] == [c.tolist() for c in spec]
    stage1, stage2, hints = compiled
    model = _cam_model(kmers, positions, cam_entries, two_stage)
    pairs = list(zip(kmers.tolist(), positions.tolist()))
    assert ([pairs[i] for i in stage1], [pairs[i] for i in stage2], hints.tolist()) == model


def _schedule_case() -> list:
    """``run`` under both schedulers on both replay stacks' shuffled
    streams and their key-sorted W = 1 flushes (24-entry CAMs, partial last
    batches), each field for field its reference replay."""
    answers = []
    for accelerator, stream, _ in _replay_runs():
        flush = CoalescingWindow(1).push(stream)
        for two_stage in (True, False):
            config = accelerator.config.with_overrides(two_stage_scheduling=two_stage)
            replay = ExmaAccelerator(accelerator._table, accelerator._index, config)
            for requests in (stream, flush):
                answers.append(replay.run(requests))
                assert answers[-1] == replay.run_reference(list(requests))
    return answers


class TestCamSchedule:
    @pytest.mark.parametrize("order", ["flush", "shuffled"])
    @pytest.mark.parametrize("two_stage", [True, False])
    @pytest.mark.parametrize("cam_entries", CAM_SIZES)
    def test_cam_sizes_with_a_partial_last_batch(
        self, compiled, spec_calls, cam_entries, two_stage, order
    ):
        rng = np.random.default_rng(cam_entries)
        count = 2 * cam_entries + cam_entries // 2 + 1
        kmers, positions = _schedule_columns(rng, count, 16, 400, order)
        assert kmers.size % cam_entries or cam_entries == 1
        _schedule_oracle(spec_calls, (kmers, positions, cam_entries, two_stage))

    def test_a_flush_is_scheduled_without_the_kmer_sort(self, compiled):
        kmers, positions = _schedule_columns(np.random.default_rng(3), 700, 64, 5000, "flush")

        def refused(*args):
            raise AssertionError("a key-sorted flush needs no stable k-mer sort")

        stage1, stage2, hints = native.cam_schedule(kmers, positions, 128, True, refused)
        assert stage1.tolist() == list(range(kmers.size))
        spec = hw_scheduler._schedule_spec(kmers, positions, 128, True)
        assert [stage2.tolist(), hints.tolist()] == [spec[1].tolist(), spec[2].tolist()]

    @pytest.mark.parametrize("two_stage", [True, False])
    def test_negative_columns_decline(self, compiled, two_stage):
        for kmers, positions in (([0, -1], [3, 3]), ([0, 1], [3, -1])):
            assert native.cam_schedule(
                _int64(kmers), _int64(positions), 2, two_stage, hw_scheduler.kmer_grouping
            ) is None

    @pytest.mark.parametrize("two_stage", [True, False])
    def test_keys_too_wide_decline_and_raise_on_both_paths(self, compiled, spec_calls, two_stage):
        # 2**20 one-entry batches of k-mer 2**43 overflow batch * span;
        # stage 2's keys also carry the positions, FR-FCFS's hints do not.
        wide = np.full(2**20 + 1, 2**43, dtype=np.int64)
        zeros = np.zeros(wide.size, dtype=np.int64)
        assert native.cam_schedule(wide, zeros, 1, two_stage, hw_scheduler.kmer_grouping) is None
        for path in (contextlib.nullcontext, no_library):
            with path(), pytest.raises(ValueError, match="too wide"):
                hw_scheduler.scheduled_orders(wide, zeros, 1, two_stage)
        kmers, positions = _int64([0, 0]), _int64([2**62, 0])
        declined = native.cam_schedule(kmers, positions, 2, two_stage, hw_scheduler.kmer_grouping)
        assert (declined is None) == two_stage
        assert spec_calls["cam_keys"] == [wide.size] * 2

    def test_ragged_columns_are_refused(self, compiled):
        with pytest.raises(ValueError, match="length"):
            native.cam_schedule(_int64([0, 1]), ZERO, 2, True, hw_scheduler.kmer_grouping)


class _Counts:
    """The two fields of a table that ``predict_many`` reads."""

    def __init__(self, counts: np.ndarray, reference_length: int) -> None:
        self._counts, self.reference_length = counts, reference_length

    def frequencies_view(self) -> np.ndarray:
        return self._counts


def _synthetic_index(rng, node_count: int, kmer_count: int = 64) -> MTLIndex:
    """An untrained index over *kmer_count* codes: 1-7 shared nodes with
    random weights, each code modelled by one or unmodelled, increment
    counts of 0, 1, 2 or up to 5000, and leaves that overshoot both clip
    edges."""
    index = MTLIndex.__new__(MTLIndex)
    index._nodes = {}
    for bucket in range(node_count):
        node = index._nodes[bucket] = SharedNode()
        node.w1, node.b1 = rng.normal(0.0, 2.0, (2, 10)), rng.normal(size=10)
        node.w2, node.b2 = rng.normal(size=10), float(rng.normal())
    buckets = rng.integers(-1, node_count, kmer_count)
    buckets[rng.integers(kmer_count)] = rng.integers(node_count)
    index._buckets = buckets.astype(np.int8)
    counts = np.where(
        rng.random(kmer_count) < 0.4, rng.integers(0, 3, kmer_count), rng.integers(3, 5000, kmer_count)
    )
    index._table = _Counts(_int64(counts), int(rng.integers(1, 10**6)))
    index._weights, index._biases = rng.normal(1.0, 1.5, kmer_count), rng.normal(0.0, 0.5, kmer_count)
    return index


@st.composite
def mtl_inputs(draw):
    """A synthetic index of 1-7 nodes and 0-300 requests over its modelled
    codes in any order, positions 0 to n; now and then one unmodelled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = _synthetic_index(rng, draw(st.integers(1, 7)))
    size = draw(st.integers(0, 300))
    kmers = rng.choice(np.flatnonzero(index._buckets >= 0), size)
    positions = rng.integers(0, index.table.reference_length + 1, size)
    unmodelled = np.flatnonzero(index._buckets < 0)
    if size and unmodelled.size and draw(st.booleans()):
        kmers[rng.integers(size)] = unmodelled[0]
    return index, _int64(kmers), _int64(positions)


def _predictions(index: MTLIndex, kmers, positions):
    """``predict_many``'s answer, or the message it raised."""
    try:
        return index.predict_many(kmers, positions).tolist()
    except ValueError as error:
        return str(error)


def _mtl_oracle(spec_calls, drawn) -> None:
    """``predict_many`` compiled equals its specs, and an unmodelled k-mer
    raises the same error on both paths."""
    index, kmers, positions = drawn
    compiled = _predictions(index, kmers, positions)
    assert not spec_calls["mtl_group"] and not spec_calls["mtl_leaf"]
    with no_library():
        assert _predictions(index, kmers, positions) == compiled
    assert spec_calls["mtl_group"] == ([kmers.size] if kmers.size else [])


@functools.cache
def _three_node_index() -> MTLIndex:
    """The replay stack's 4-mer table, its 16 modelled k-mers split over
    three shared nodes (increment counts 9, 10-11 and 23-27)."""
    table = ExmaTable(LOCKSTEP_REFERENCE, k=4)
    return MTLIndex(table, bucket_edges=(10, 12), model_threshold=8, samples_per_kmer=32,
                    epochs=30, seed=0)


def _mtl_case() -> list:
    """``predict_many`` on a trained three-node index: its search stream's
    modelled requests in arrival order and reversed, one request, and every
    modelled code at both ends of the reference."""
    index = _three_node_index()
    backend = ExmaBackend(table=index.table, index=index)
    stream, _ = QueryEngine(backend).request_stream(random_queries(LOCKSTEP_REFERENCE, 12, 20, seed=3))
    modelled = index.modelled_lookup(index.table.kmer_count)[stream.kmers]
    kmers, positions = stream.kmers[modelled], stream.positions[modelled]
    assert index.shared_node_count == 3 and len(set(index._buckets[kmers].tolist())) == 3
    codes = np.repeat(np.array(index.modelled_kmers, dtype=np.int64), 2)
    ends = np.tile(_int64([0, index.table.reference_length]), codes.size // 2)
    return [
        index.predict_many(k, p).tolist()
        for k, p in ((kmers, positions), (kmers[::-1], positions[::-1]), (kmers[:1], positions[:1]),
                     (codes, ends))
    ]


class TestMtlKernels:
    def test_forward_sees_the_same_slices(self, compiled, monkeypatch):
        # OpenBLAS's bits depend on a product's shape, so the nodes must
        # run on the same rows in the same order on both paths.
        rng = np.random.default_rng(4)
        index = _synthetic_index(rng, 7)
        modelled = np.flatnonzero(index._buckets >= 0)
        kmers, positions = _int64(rng.choice(modelled, 2000)), _int64(rng.integers(0, 10**5, 2000))
        seen, forward = [], SharedNode.forward

        def recorded(node, features):
            seen.append((id(node), features.shape, _bits(features).tolist()))
            return forward(node, features)

        monkeypatch.setattr(SharedNode, "forward", recorded)
        compiled_answer = index.predict_many(kmers, positions).tolist()
        compiled_seen, seen[:] = list(seen), []
        with no_library():
            assert index.predict_many(kmers, positions).tolist() == compiled_answer
        assert compiled_seen == seen and len(seen) == len(set(index._buckets[kmers].tolist()))

    def test_an_unmodelled_kmer_raises_on_both_paths(self, compiled, spec_calls):
        index = _synthetic_index(np.random.default_rng(5), 3)
        modelled, unmodelled = np.flatnonzero(index._buckets >= 0), np.flatnonzero(index._buckets < 0)
        kmers = _int64([modelled[0], unmodelled[0], modelled[-1]])
        for path in (contextlib.nullcontext, no_library):
            with path(), pytest.raises(ValueError, match="modelled_lookup"):
                index.predict_many(kmers, _int64([1, 2, 3]))
        assert spec_calls["mtl_group"] == [3]

    def test_clip_edges(self, compiled, spec_calls):
        # Counts 0, 1 and 2 clip to [0, max(0, count - 1)]; leaves of -3
        # and +3 push every prediction past one edge or the other.
        index = _synthetic_index(np.random.default_rng(6), 2, kmer_count=6)
        index._buckets[:] = [0, 1, 0, 1, 0, 1]
        index._table._counts[:] = [0, 1, 2, 0, 1, 2]
        index._weights[:] = [-3.0, -3.0, -3.0, 3.0, 3.0, 3.0]
        kmers, positions = np.repeat(np.arange(6), 3), np.tile(_int64([0, 7, 10**5]), 6)
        compiled_answer = index.predict_many(kmers, positions).tolist()
        with no_library():
            assert index.predict_many(kmers, positions).tolist() == compiled_answer
        assert max(compiled_answer[3:6] + compiled_answer[12:15]) == 0
        assert set(compiled_answer[6:9] + compiled_answer[15:18]) <= {0, 1}
        assert spec_calls["mtl_group"] == [kmers.size]

    def test_declines(self, compiled):
        index = _synthetic_index(np.random.default_rng(7), 3)
        buckets, counts, n = index._buckets, index._table._counts, index.table.reference_length
        for kmer in (64, -1):
            assert native.mtl_group(_int64([0, kmer]), _int64([1, 1]), buckets, counts, n) is None
        wide = buckets.astype(np.int16)
        modelled = _int64(np.flatnonzero(buckets >= 0)[:2])
        assert native.mtl_group(modelled, _int64([1, 1]), wide, counts, n) is None
        order, shared = _int64([1, 0]), np.array([0.5, 0.25])
        leaves = [index._weights, index._biases, counts]
        assert native.mtl_leaf(modelled, order, shared, *leaves) is not None
        for broken in (_int64([2, 0]), _int64([-1, 0])):
            assert native.mtl_leaf(modelled, broken, shared, *leaves) is None
        assert native.mtl_leaf(_int64([0, 64]), order, shared, *leaves) is None
        assert native.mtl_leaf(modelled, order, np.array([0.5, np.nan]), *leaves) is None
        with pytest.raises(ValueError, match="length"):
            native.mtl_group(modelled, _int64([1]), buckets, counts, n)
        with pytest.raises(ValueError, match="length"):
            native.mtl_leaf(modelled, order, shared[:1], *leaves)

    def test_a_nan_leaf_takes_the_spec(self, compiled, spec_calls):
        index = _synthetic_index(np.random.default_rng(8), 2)
        kmer = int(np.flatnonzero(index._buckets >= 0)[0])
        index._weights[kmer] = np.nan
        kmers, positions = _int64([kmer, kmer]), _int64([0, 9])
        with np.errstate(invalid="ignore"):
            compiled_answer = index.predict_many(kmers, positions).tolist()
            assert spec_calls["mtl_leaf"] == [2]
            with no_library():
                assert index.predict_many(kmers, positions).tolist() == compiled_answer


class OracleCase(NamedTuple):
    """A kernel row's entry in the harness.  ``oracle(spec_calls, drawn)``
    asserts compiled ≡ spec (≡ the object model where there is one) on a
    draw from *inputs*; *run* drives the public entry point on fixed
    inputs and returns its answer, checked as the oracle checks; and
    *declines* calls the wrapper directly and returns what it gave."""

    inputs: st.SearchStrategy
    oracle: Callable[..., None]
    run: Callable[[], object]
    declines: Callable[[], list]


#: ``sigmoid_in`` and ``sigmoid_out`` run together in :func:`native.sigmoid`;
#: the out row draws ``hidden`` where ``exp`` runs from 0 to inf, which
#: ``1 / (x + 1)`` rounds.
SIGMOID = OracleCase(
    layer_arrays(), _sigmoid_oracle, _sigmoid_case,
    lambda: [native.sigmoid(np.full((3, 2), 0.5), np.zeros(2))],
)
#: ``cam_keys`` and ``cam_stage2`` run together in
#: :func:`native.cam_schedule`, ``mtl_group`` and ``mtl_leaf`` around the
#: shared nodes in :meth:`MTLIndex.predict_many`.
CAM_SCHEDULE = OracleCase(schedule_inputs(), _schedule_oracle, _schedule_case, lambda: [
    native.cam_schedule(ZERO, ZERO, 1, True, hw_scheduler.kmer_grouping),
])
MTL_INFERENCE = OracleCase(mtl_inputs(), _mtl_oracle, _mtl_case, lambda: [
    native.mtl_group(ZERO, ZERO, np.zeros(1, np.int8), ZERO + 1, 1),
])
#: One case per :data:`repro.native.KERNELS` row (``test_ci_commands``
#: holds the keys to the table).
ORACLE_CASES = {
    "lru_hits": OracleCase(
        LRU_INPUTS, _lru_oracle, _lru_case, lambda: [native.lru_hits(_int64([0, 64]), 64, 1, 1)]
    ),
    "dram_channels": OracleCase(DRAM_INPUTS, _dram_oracle, _dram_case, lambda: [
        native.dram_channels(ZERO, ZERO + 64, np.zeros(1, bool), ZERO, 1, 1, (0, 0, 0), 1, 1),
    ]),
    "replay_trace": OracleCase(
        trace_inputs(), _trace_oracle, _replay_case,
        lambda: [_compiled_trace(TRACE_DECLINED, 8, 96, 0, 0.9)],
    ),
    "occ_ranks": OracleCase(occ_requests(), _occ_oracle, _occ_case, lambda: [
        native.occ_ranks(ZERO, ZERO, ZERO, ZERO, 1),
        native.occ_ranks(*OCC_REQUESTS, OCC_TABLE.increments, _int64([0] * 64), 1301),
    ]),
    "lockstep": OracleCase(
        lockstep_batches(), _lockstep_oracle,
        lambda: _traced_search(LOCKSTEP_BACKENDS[4], LOCKSTEP_QUERIES),
        lambda: [
            native.lockstep(ZERO, np.zeros(0, np.uint8), 1, ZERO, ZERO, *[ZERO] * 3, 1),
            native.lockstep(*_lockstep_inputs(LOCKSTEP_BACKENDS[4], LOCKSTEP_QUERIES), None, None, 1),
        ],
    ),
    "cam_keys": CAM_SCHEDULE,
    "cam_stage2": CAM_SCHEDULE,
    "mtl_group": MTL_INFERENCE,
    "mtl_leaf": MTL_INFERENCE._replace(declines=lambda: [
        native.mtl_leaf(ZERO, ZERO, np.zeros(1), np.ones(1), np.zeros(1), ZERO + 1),
    ]),
    "sigmoid_in": SIGMOID,
    "sigmoid_out": SIGMOID._replace(inputs=layer_arrays(st.floats(-750.0, 750.0))),
    "sigmoid_backward": OracleCase(
        st.one_of(layer_arrays(min_width=2), layer_arrays(probabilities, min_width=2)),
        _sigmoid_backward_oracle, _training_case,
        lambda: [
            native.sigmoid_backward(np.full((3, 2), 0.5), np.ones(3), np.ones(2), np.empty((3, 2)))
        ],
    ),
}


@pytest.mark.parametrize("symbol", ORACLE_CASES)
@given(data=st.data())
@kernel_settings
def test_compiled_equals_spec(compiled, spec_calls, symbol, data):
    for runs in spec_calls.values():  # hypothesis reuses the fixture
        runs.clear()
    case = ORACLE_CASES[symbol]
    case.oracle(spec_calls, data.draw(case.inputs))


@pytest.mark.parametrize("off", ["no-library", "pure-python", "no-compiler"])
@pytest.mark.parametrize("kernel", native.KERNELS, ids=lambda kernel: kernel.symbol)
def test_each_kernel_equals_its_spec_with_the_library_off(
    compiled, monkeypatch, tmp_path, spec_calls, kernel, off
):
    """A row's case gives the same answer compiled and off, and only the
    off run reaches the row's spec.  Off as ``cc`` missing, the first use
    warns once for the whole library and every row's case after it is
    quiet; as ``REPRO_PURE_PYTHON`` or an unloaded library, nothing warns.
    No cache is written, and every wrapper declines."""
    case = ORACLE_CASES[kernel.symbol]
    expected = case.run()
    assert spec_calls[kernel.symbol] == []
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native, "_library", None if off == "no-library" else native._UNRESOLVED)
    if off == "pure-python":
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
    monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert case.run() == expected
        assert spec_calls[kernel.symbol]
        if off == "no-compiler":  # one warning for the whole library
            for other in ORACLE_CASES.values():
                other.run()
            assert all(spec_calls[other.symbol] for other in native.KERNELS)
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(messages) == (off == "no-compiler")
    assert all("repro-no-such-compiler" in message for message in messages)
    assert not native.loaded_kernels()
    assert all(answer is None or answer is False for answer in case.declines())
    assert not (tmp_path / "cache").exists()


class TestLoader:
    def test_shared_cache_directory_is_refused(self, monkeypatch, unresolved):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        unresolved.mkdir(mode=0o777)
        unresolved.chmod(0o777)
        with pytest.warns(RuntimeWarning, match="not private"):
            assert not native.loaded_kernels()
        assert list(unresolved.iterdir()) == []

    def test_cold_compile_writes_only_to_the_cache(self, monkeypatch, unresolved):
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)

        def files():
            return {p for p in SOURCE_TREE.rglob("*") if "__pycache__" not in p.parts}

        before = files()
        assert native.loaded_kernels()
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
        assert native.loaded_kernels()
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
