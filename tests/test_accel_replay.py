"""Columnar-replay oracle suite: arrays must equal the object pipeline.

PR 5 made the accelerator replay columnar from the flush to the cycle
counts; the original request-at-a-time object pipeline survives as
:meth:`repro.accel.exma_accelerator.ExmaAccelerator.run_reference`, the
executable specification.  This suite pins the cutover down at every
layer:

* property-based (hypothesis) equivalence of the vectorized primitives —
  :func:`~repro.hw.scheduler.scheduled_orders` /
  :func:`~repro.hw.scheduler.keep_open_flags` against the
  :class:`~repro.hw.cam.SchedulingQueue` CAM model,
  :func:`~repro.hw.cache.simulate_lru_hits` against per-access
  :meth:`~repro.hw.cache.SetAssociativeCache.access`,
  :meth:`~repro.hw.dram.DRAMModel.process_columns` against the object
  :meth:`~repro.hw.dram.DRAMModel.process`, the row-span expansion
  against the reference replay's greedy cursor, and the batched
  table/index queries against their scalar forms;
* end-to-end: :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run`
  and :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_stream`
  field-for-field equal to the reference for the request streams of all
  six engine backends, under both schedulers and every page policy, for
  an MTL index with several shared nodes, and for fetches that cross
  DRAM rows and the chunk cap.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ExmaAccelerator, ExmaAcceleratorConfig
from repro.accel import exma_accelerator
from repro.engine import CoalescingWindow, QueryEngine, create_backend
from repro.engine.window import WindowedBatch
from repro.engine.backends import ExmaBackend, FMIndexBackend, LisaBackend
from repro.exma.mtl_index import MTLIndex
from repro.exma.search import OccRequest
from repro.exma.table import ExmaTable
from repro.genome.sequence import RepeatProfile, random_genome
from repro.hw.cache import SetAssociativeCache, simulate_lru_hits
from repro.hw.cam import CamConfig
from repro.hw.dram import (
    DDR4Config,
    DRAMModel,
    MemoryRequest,
    MemoryTrace,
    PagePolicy,
    rows_for_bytes,
)
from repro.hw.scheduler import (
    FrFcfsScheduler,
    TwoStageScheduler,
    keep_open_flags,
    pair_requests_by_kmer,
    scheduled_orders,
)
from repro.lisa.search import LisaIndex
from repro.testing import random_queries, reference_and_queries

BACKEND_NAMES = ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")

request_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 60)), min_size=0, max_size=120
)


def _requests(pairs: list[tuple[int, int]]) -> list[OccRequest]:
    return [OccRequest(packed_kmer=kmer, pos=pos) for kmer, pos in pairs]


# --------------------------------------------------------------------- #
# Vectorized schedulers vs the SchedulingQueue CAM model
# --------------------------------------------------------------------- #


class TestSchedulerOrders:
    @given(request_lists, st.integers(1, 17), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_orders_match_queue_scheduling(self, pairs, cam_entries, two_stage):
        requests = _requests(pairs)
        kmers = np.array([r.packed_kmer for r in requests], dtype=np.int64)
        positions = np.array([r.pos for r in requests], dtype=np.int64)
        scheduler = (
            TwoStageScheduler(CamConfig(entries=cam_entries))
            if two_stage
            else FrFcfsScheduler(CamConfig(entries=cam_entries))
        )
        stage1_ref, stage2_ref = [], []
        for batch in scheduler.schedule(requests):
            stage1_ref.extend(batch.stage1)
            stage2_ref.extend(batch.stage2)
        stage1, stage2 = scheduled_orders(kmers, positions, cam_entries, two_stage)
        assert [requests[i] for i in stage1] == stage1_ref
        assert [requests[i] for i in stage2] == stage2_ref

    @given(request_lists, st.integers(1, 17), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_keep_open_matches_pair_annotation(self, pairs, cam_entries, two_stage):
        requests = _requests(pairs)
        hints, hints_ref = _columnar_and_queue_hints(requests, cam_entries, two_stage)
        assert hints == hints_ref

    @pytest.mark.parametrize("cam_entries", (1, 3, 128))
    @pytest.mark.parametrize("two_stage", (True, False))
    def test_duplicate_keys_and_ragged_last_batch(self, cam_entries, two_stage):
        # 3 * 128 + 5 requests over 6 k-mers x 4 positions: every CAM
        # size leaves a partial last batch (size 1 trivially), and most
        # (k-mer, pos) keys repeat inside a batch.
        rng = np.random.default_rng(cam_entries)
        requests = _requests(
            list(zip(rng.integers(0, 6, 389).tolist(), rng.integers(0, 4, 389).tolist()))
        )
        kmers = np.array([r.packed_kmer for r in requests], dtype=np.int64)
        positions = np.array([r.pos for r in requests], dtype=np.int64)
        scheduler_type = TwoStageScheduler if two_stage else FrFcfsScheduler
        batches = list(scheduler_type(CamConfig(entries=cam_entries)).schedule(requests))
        assert len(batches[-1]) == 389 % cam_entries or cam_entries == 1
        stage1, stage2 = scheduled_orders(kmers, positions, cam_entries, two_stage)
        assert [requests[i] for i in stage1] == [r for b in batches for r in b.stage1]
        assert [requests[i] for i in stage2] == [r for b in batches for r in b.stage2]
        hints, hints_ref = _columnar_and_queue_hints(requests, cam_entries, two_stage)
        assert hints == hints_ref

    def test_rejects_keys_too_wide_to_pack(self):
        # batch * span + k-mer would wrap int64: 2**20 batches x 2**43 codes.
        wide = np.full(2**20 + 1, 2**43, dtype=np.int64)
        with pytest.raises(ValueError):
            scheduled_orders(wide, np.zeros(wide.size, dtype=np.int64), 1, True)


def _columnar_and_queue_hints(
    requests: list[OccRequest], cam_entries: int, two_stage: bool
) -> tuple[list[bool], list[bool]]:
    """Keep-open hints of the columnar replay and of the CAM object model."""
    kmers = np.array([r.packed_kmer for r in requests], dtype=np.int64)
    positions = np.array([r.pos for r in requests], dtype=np.int64)
    scheduler_type = TwoStageScheduler if two_stage else FrFcfsScheduler
    hints_ref = [
        hint
        for batch in scheduler_type(CamConfig(entries=cam_entries)).schedule(requests)
        for _, hint in pair_requests_by_kmer(batch.stage2)
    ]
    _, stage2 = scheduled_orders(kmers, positions, cam_entries, two_stage)
    grouped, _ = scheduled_orders(kmers, positions, cam_entries, True)
    hints = keep_open_flags(kmers, grouped, stage2, cam_entries)
    return hints.tolist(), hints_ref


# --------------------------------------------------------------------- #
# Set-grouped cache simulation vs per-access LRU
# --------------------------------------------------------------------- #


def _reference_hits(addresses, capacity: int, line_bytes: int, ways: int) -> list[bool]:
    cache = SetAssociativeCache(capacity, line_bytes, ways)
    return [cache.access(int(address)) for address in addresses]


def _hot_line_vs_leaves(seed: int) -> np.ndarray:
    """Line 0 before every one of 60 000 draws from 5 000 other lines."""
    leaves = np.random.default_rng(seed).integers(1, 5_000, 60_000)
    return np.stack([np.zeros_like(leaves), leaves], axis=1).ravel()


class TestCacheSimulation:
    @given(
        st.lists(st.integers(0, 5000), min_size=0, max_size=300),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.sampled_from([1, 2, 32]),
        st.sampled_from(["bytes", "lines", "one-set"]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_hit_mask_matches_reference_cache(self, addresses, ways, sets, stride, sort):
        if sort:  # run-heavy sequences exercise the collapse fast path
            addresses = sorted(addresses)
        line_bytes = 32
        # "one-set" strides by the set count, aliasing every line to set 0.
        scale = {"bytes": 1, "lines": line_bytes, "one-set": line_bytes * sets}[stride]
        addresses = [address * scale for address in addresses]
        capacity = line_bytes * ways * sets
        hits = simulate_lru_hits(np.array(addresses), capacity, line_bytes, ways)
        assert hits.tolist() == _reference_hits(addresses, capacity, line_bytes, ways)

    @given(
        st.lists(st.integers(0, 20), min_size=0, max_size=400),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_working_sets_around_the_associativity(self, lines, ways):
        # At most 21 lines in one set: reuse gaps far beyond the
        # associativity with few distinct lines in between, the shape the
        # look-back windows exist for.
        addresses = np.array(lines, dtype=np.int64) * 64
        hits = simulate_lru_hits(addresses, 64 * ways, 64, ways)
        assert hits.tolist() == _reference_hits(addresses, 64 * ways, 64, ways)

    def test_single_set_matches_reference_cache(self):
        # One 16-way set over 50 lines: every head with a long reuse gap
        # is decided by counting the live lines in between.
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 50, size=2000) * 64
        capacity, line_bytes, ways = 64 * 16, 64, 16
        hits = simulate_lru_hits(addresses, capacity, line_bytes, ways)
        assert hits.tolist() == _reference_hits(addresses, capacity, line_bytes, ways)

    # Shapes the look-back must neither mis-handle nor go quadratic on:
    # each has >= 100 000 accesses, so an O(n * gap) look-back would run
    # for minutes where the stack-distance pass takes milliseconds.
    ADVERSARIAL = {
        # (a b)^k c (a b)^k c: the second c looks back over 2k heads
        # holding two distinct lines.
        "huge-gap-two-distinct": (
            np.concatenate([np.tile([0, 1], 30_000), [2]] * 2), 4, 1
        ),
        "cycle-of-ways-lines": (np.tile(np.arange(16), 7_000), 16, 1),
        "cycle-of-ways-plus-one-lines": (np.tile(np.arange(17), 7_000), 16, 1),
        # The index cache's real shape: one hot bucket line alternating
        # with a long stream of leaf lines.
        "hot-line-vs-leaf-stream": (_hot_line_vs_leaves(seed=1), 16, 1),
        "hot-line-vs-leaf-stream-32-sets": (_hot_line_vs_leaves(seed=2), 16, 32),
        "first-occurrences-only": (np.arange(120_000), 8, 2),
    }

    @pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
    def test_adversarial_shapes_match_reference_cache(self, shape):
        lines, ways, sets = self.ADVERSARIAL[shape]
        assert lines.size >= 100_000
        addresses = lines.astype(np.int64) * 64
        capacity = 64 * ways * sets
        hits = simulate_lru_hits(addresses, capacity, 64, ways)
        assert hits.tolist() == _reference_hits(addresses, capacity, 64, ways)

    def test_rejects_invalid_geometry_and_addresses(self):
        with pytest.raises(ValueError):
            simulate_lru_hits(np.array([0]), 100, 64, 8)
        with pytest.raises(ValueError):
            simulate_lru_hits(np.array([-1]), 1024, 64, 8)


# --------------------------------------------------------------------- #
# Columnar DRAM replay vs the object model
# --------------------------------------------------------------------- #


memory_requests = st.lists(
    st.tuples(
        st.integers(0, 70),  # row
        st.integers(1, 700),  # nbytes
        st.booleans(),  # keep_open_hint
        st.integers(0, 6),  # stream
    ),
    min_size=0,
    max_size=150,
)


class TestDRAMColumns:
    @given(memory_requests, st.sampled_from(list(PagePolicy)))
    @settings(max_examples=80, deadline=None)
    def test_process_columns_matches_process(self, rows, policy):
        requests = [
            MemoryRequest(row=row, nbytes=nbytes, keep_open_hint=keep, stream=stream)
            for row, nbytes, keep, stream in rows
        ]
        model = DRAMModel(DDR4Config(), page_policy=policy)
        assert model.process_columns(MemoryTrace.from_requests(requests)) == model.process(
            list(requests)
        )

    def test_rejects_nonpositive_bytes(self):
        model = DRAMModel()
        trace = MemoryTrace.from_requests([MemoryRequest(row=0, nbytes=0)])
        with pytest.raises(ValueError):
            model.process_columns(trace)

    def test_rejects_negative_streams_in_both_models(self):
        # A negative stream id used to alias the last stream's ready cycle
        # in the columnar model while the object model gave it its own.
        requests = [MemoryRequest(row=0, stream=1), MemoryRequest(row=1, stream=-1)]
        with pytest.raises(ValueError, match="stream"):
            DRAMModel().process(requests)
        with pytest.raises(ValueError, match="stream"):
            MemoryTrace.from_requests(requests)
        trace = MemoryTrace.from_requests([MemoryRequest(row=0), MemoryRequest(row=1)])
        trace.streams[1] = -1
        with pytest.raises(ValueError, match="stream"):
            DRAMModel().process_columns(trace)

    def test_channel_split_preserves_order(self):
        requests = [MemoryRequest(row=row) for row in (0, 4, 1, 8, 5, 2, 12)]
        trace = MemoryTrace.from_requests(requests)
        channels = trace.split_channels(4)
        assert [shard.rows.tolist() for shard in channels] == [
            [0, 4, 8, 12],
            [1, 5],
            [2],
            [],
        ]


# --------------------------------------------------------------------- #
# Row-span expansion vs the reference replay's cursor
# --------------------------------------------------------------------- #


def _cursor_chunks(start: int, nbytes: int, row_bytes: int, cap: int) -> list[tuple[int, int]]:
    """``(row, bytes)`` chunks of the reference replay's greedy cursor: each
    row :func:`rows_for_bytes` names, in bursts of at most *cap* bytes."""
    chunks = []
    cursor, remaining = start, nbytes
    for row in rows_for_bytes(start, nbytes, row_bytes):
        row_end = (row + 1) * row_bytes
        while remaining and cursor < row_end:
            chunk = min(remaining, row_end - cursor, cap)
            chunks.append((row, chunk))
            cursor += chunk
            remaining -= chunk
    return chunks


@st.composite
def _byte_range(draw, row_bytes: int) -> tuple[int, int]:
    """One fetch range of a given shape relative to the DRAM rows."""
    offset = draw(st.integers(0, row_bytes - 1))
    start = draw(st.integers(0, 5)) * row_bytes + offset
    room = row_bytes - offset
    shape = draw(st.sampled_from(["inside", "to-boundary", "across", "any"]))
    if shape == "inside":
        return start, draw(st.integers(1, room))
    if shape == "to-boundary":  # ends exactly on a row boundary
        return start, room + row_bytes * draw(st.integers(0, 2))
    if shape == "across":
        return start, room + draw(st.integers(1, 3 * row_bytes))
    return start, draw(st.integers(1, 4 * row_bytes))


@st.composite
def _range_columns(draw):
    row_bytes = draw(st.sampled_from([64, 96, 2048]))
    cap = draw(st.sampled_from([16, 64, 512]))
    ranges = draw(st.lists(_byte_range(row_bytes), max_size=40))
    return ranges, row_bytes, cap


class TestRowSpanExpansion:
    @given(_range_columns())
    @settings(max_examples=200, deadline=None)
    def test_chunks_match_the_scalar_cursor(self, columns):
        ranges, row_bytes, cap = columns
        starts = np.array([start for start, _ in ranges], dtype=np.int64)
        nbytes = np.array([size for _, size in ranges], dtype=np.int64)
        first_rows, first_sizes, counts, rest_rows, rest_sizes = (
            exma_accelerator._expand_row_spans(starts, nbytes, row_bytes, cap)
        )
        rest = iter(zip(rest_rows.tolist(), rest_sizes.tolist()))
        for i, (start, size) in enumerate(ranges):
            expected = _cursor_chunks(start, size, row_bytes, cap)
            assert counts[i] == len(expected)
            got = [(int(first_rows[i]), int(first_sizes[i]))]
            got += [next(rest) for _ in range(len(expected) - 1)]
            assert got == expected
        assert next(rest, None) is None

    def test_only_unfinished_ranges_have_later_chunks(self):
        # Inside one row under the cap, ending on a row boundary, longer
        # than the cap inside one row, and across two boundaries.
        starts = np.array([10, 2048 - 40, 4096, 6000], dtype=np.int64)
        nbytes = np.array([30, 40, 1100, 2500], dtype=np.int64)
        first_rows, first_sizes, counts, rest_rows, rest_sizes = (
            exma_accelerator._expand_row_spans(starts, nbytes, 2048, 512)
        )
        assert first_rows.tolist() == [0, 0, 2, 2]
        assert first_sizes.tolist() == [30, 40, 512, 144]
        assert counts.tolist() == [1, 1, 3, 6]
        assert rest_rows.tolist() == [2, 2, 3, 3, 3, 3, 4]
        assert rest_sizes.tolist() == [512, 76, 512, 512, 512, 512, 308]


# --------------------------------------------------------------------- #
# Batched table/index queries vs their scalar forms
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def small_table():
    reference, _ = reference_and_queries(genome_length=700, seed=5)
    return ExmaTable(reference, k=4)


@pytest.fixture(scope="module")
def small_index(small_table):
    return MTLIndex(
        small_table, model_threshold=6, samples_per_kmer=24, epochs=25, seed=1
    )


class TestBatchedQueries:
    def test_occ_batch_matches_occ(self, small_table):
        rng = np.random.default_rng(2)
        kmers = rng.integers(0, small_table.kmer_count, size=600)
        positions = rng.integers(0, small_table.reference_length + 1, size=600)
        expected = [
            small_table.occ(int(kmer), int(pos))
            for kmer, pos in zip(kmers, positions)
        ]
        assert small_table.occ_batch(kmers, positions).tolist() == expected

    def test_occ_batch_validates_ranges(self, small_table):
        with pytest.raises(ValueError):
            small_table.occ_batch(np.array([0]), np.array([-1]))
        with pytest.raises(ValueError):
            small_table.occ_batch(np.array([small_table.kmer_count]), np.array([0]))

    def test_predict_many_matches_predict(self, small_table, small_index):
        rng = np.random.default_rng(3)
        modelled = np.array(small_index.modelled_kmers)
        assert modelled.size > 0
        kmers = modelled[rng.integers(0, modelled.size, size=400)]
        positions = rng.integers(0, small_table.reference_length + 1, size=400)
        expected = [
            small_index.predict(int(kmer), int(pos))
            for kmer, pos in zip(kmers, positions)
        ]
        assert small_index.predict_many(kmers, positions).tolist() == expected

    def test_lookup_arrays_match_scalar_queries(self, small_table, small_index):
        modelled = small_index.modelled_lookup(small_table.kmer_count)
        buckets = small_index.bucket_lookup(small_table.kmer_count)
        for packed in range(small_table.kmer_count):
            assert modelled[packed] == small_index.has_model(packed)
            node_ids = small_index.node_ids_for(packed)
            if node_ids:
                assert buckets[packed] == node_ids[0]
            else:
                assert buckets[packed] == -1
        frequencies = small_table.frequency_batch(np.arange(small_table.kmer_count))
        assert frequencies.tolist() == [
            small_table.frequency(packed) for packed in range(small_table.kmer_count)
        ]


@pytest.fixture(scope="module")
def repeat_genome() -> str:
    """A repeat-rich reference: its 2-mers have hundreds of increments."""
    return random_genome(
        4000, repeat_profile=RepeatProfile(repeat_fraction=0.7, repeat_unit_length=120), seed=11
    )


@pytest.fixture(scope="module")
def multi_node(repeat_genome):
    """An MTL index whose small bucket edges spread its 3-mers over four
    shared nodes; the lightest 3-mers stay unmodelled."""
    table = ExmaTable(repeat_genome, k=3)
    index = MTLIndex(
        table, bucket_edges=(48, 64, 80), model_threshold=30, samples_per_kmer=16,
        epochs=20, seed=0,
    )
    return table, index


class TestSeveralSharedNodes:
    """Every other MTL fixture has one shared node, where routing a request
    through the wrong node changes nothing."""

    def test_fixture_spans_several_nodes(self, multi_node):
        table, index = multi_node
        buckets = index.bucket_lookup(table.kmer_count)
        assert index.shared_node_count >= 3
        assert np.unique(buckets[index.modelled_kmers]).size == index.shared_node_count
        assert (buckets[table.frequencies() > 0] < 0).any()

    def test_predict_many_matches_predict_shuffled(self, multi_node):
        table, index = multi_node
        rng = np.random.default_rng(4)
        kmers = rng.permutation(np.repeat(index.modelled_kmers, 12))
        positions = rng.integers(0, table.reference_length + 1, size=kmers.size)
        buckets = index.bucket_lookup(table.kmer_count)[kmers]
        assert (np.diff(buckets) < 0).any()  # node ids interleaved, not sorted
        expected = [
            index.predict(int(kmer), int(pos)) for kmer, pos in zip(kmers, positions)
        ]
        assert index.predict_many(kmers, positions).tolist() == expected

    @pytest.mark.parametrize("two_stage", (True, False))
    def test_run_equals_reference(self, repeat_genome, multi_node, two_stage):
        table, index = multi_node
        queries = random_queries(repeat_genome, count=12, length=16, seed=9)
        stream, _ = QueryEngine(ExmaBackend(table=table, index=index)).request_stream(
            queries
        )
        buckets = index.bucket_lookup(table.kmer_count)[stream.kmers]
        assert np.unique(buckets[buckets >= 0]).size >= 3
        accelerator = ExmaAccelerator(table, index, _config(two_stage, PagePolicy.DYNAMIC))
        assert accelerator.run(stream) == accelerator.run_reference(list(stream))


# --------------------------------------------------------------------- #
# End to end: columnar run/run_stream vs the object reference
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def workload():
    reference, _ = reference_and_queries(genome_length=900, seed=3)
    batches = [
        random_queries(reference, count=8, length=18, seed=40 + i) for i in range(3)
    ]
    return reference, batches


@pytest.fixture(scope="module")
def backends(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=30, seed=0)
    return table, mtl, {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": LisaBackend(
            lisa_index=LisaIndex(reference, k=3, use_learned_index=True)
        ),
    }


def _config(two_stage: bool, policy: PagePolicy) -> ExmaAcceleratorConfig:
    return ExmaAcceleratorConfig().with_overrides(
        base_cache_bytes=2048,
        index_cache_bytes=1024,
        cam_entries=32,
        two_stage_scheduling=two_stage,
        page_policy=policy,
    )


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("two_stage", (True, False))
@pytest.mark.parametrize("policy", (PagePolicy.DYNAMIC, PagePolicy.CLOSE))
class TestRunEqualsReference:
    def test_run_field_for_field_equal(self, name, two_stage, policy, workload, backends):
        _, batches = workload
        table, mtl, backend_map = backends
        stream, _ = QueryEngine(backend_map[name]).request_stream(
            [query for batch in batches for query in batch]
        )
        accelerator = ExmaAccelerator(table, mtl, _config(two_stage, policy))
        columnar = accelerator.run(stream)
        reference = accelerator.run_reference(list(stream))
        assert columnar == reference

    def test_run_stream_flushes_equal_reference(
        self, name, two_stage, policy, workload, backends
    ):
        _, batches = workload
        table, mtl, backend_map = backends
        engine = QueryEngine(backend_map[name])
        streams = [engine.request_stream(batch)[0] for batch in batches]
        accelerator = ExmaAccelerator(table, mtl, _config(two_stage, policy))
        result = accelerator.run_windowed(streams, window=2)
        flushes = list(CoalescingWindow(2).stream(streams))
        expected = [
            accelerator.run_reference(
                list(flushed.requests),
                bases_processed=accelerator._bases_processed(flushed.issued),
            )
            for flushed in flushes
        ]
        assert result.flushes == expected


@pytest.fixture(scope="module")
def long_scans(repeat_genome):
    """The unindexed request stream of the repeat-rich 2-mer table: exact
    scans of up to ~1.5 KB once CHAIN compression is off."""
    table = ExmaTable(repeat_genome, k=2)
    queries = random_queries(repeat_genome, count=10, length=16, seed=9)
    stream, _ = QueryEngine(ExmaBackend(table=table)).request_stream(queries)
    return table, stream


@pytest.mark.parametrize("two_stage", (True, False))
@pytest.mark.parametrize("policy", list(PagePolicy))
class TestRunAcrossRows:
    def test_run_field_for_field_equal(self, two_stage, policy, long_scans, monkeypatch):
        table, stream = long_scans
        config = _config(two_stage, policy).with_overrides(use_chain_compression=False)
        accelerator = ExmaAccelerator(table, None, config)
        fetched = []
        expand = exma_accelerator._expand_row_spans

        def recorded(starts, nbytes, row_bytes, cap):
            fetched.append((starts, nbytes, row_bytes, cap))
            return expand(starts, nbytes, row_bytes, cap)

        monkeypatch.setattr(exma_accelerator, "_expand_row_spans", recorded)
        assert accelerator.run(stream) == accelerator.run_reference(list(stream))
        ((starts, nbytes, row_bytes, cap),) = fetched
        assert len(stream) % config.cam_entries  # a partial last CAM batch
        assert (starts % row_bytes + nbytes > row_bytes).any()  # fetches cross rows
        assert (nbytes > cap).any()  # and exceed the chunk cap


class TestRunWithoutIndex:
    def test_no_index_replay_matches_reference(self, workload, backends):
        _, batches = workload
        table, _, backend_map = backends
        stream, _ = QueryEngine(backend_map["exma"]).request_stream(batches[0])
        accelerator = ExmaAccelerator(
            table, None, _config(True, PagePolicy.DYNAMIC)
        )
        assert accelerator.run(stream) == accelerator.run_reference(list(stream))

    def test_empty_stream_matches_reference(self, backends):
        table, mtl, _ = backends
        accelerator = ExmaAccelerator(table, mtl, _config(True, PagePolicy.DYNAMIC))
        assert accelerator.run([]) == accelerator.run_reference([])

    def test_object_sequences_match_columnar_containers(self, workload, backends):
        # A plain OccRequest list replays identically to the columnar
        # stream carrying the same requests.
        _, batches = workload
        table, mtl, backend_map = backends
        stream, _ = QueryEngine(backend_map["exma-mtl"]).request_stream(batches[0])
        accelerator = ExmaAccelerator(table, mtl, _config(True, PagePolicy.DYNAMIC))
        assert accelerator.run(stream) == accelerator.run(list(stream))


# --------------------------------------------------------------------- #
# Guard: the replay stays columnar
# --------------------------------------------------------------------- #


def _calls_made(function, *args) -> int:
    """Python-level and C-level calls *function* makes (``sys.setprofile``)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return calls


class TestReplayStaysColumnar:
    def test_calls_do_not_grow_with_the_flush(self, backends):
        # Eight times the requests may add a few look-back rounds (log2 of
        # the longest reuse gap) and MTL buckets, never a call per access
        # or per run head.  The DRAM bus recurrence is a call-free ``for``.
        table, mtl, _ = backends
        accelerator = ExmaAccelerator(table, mtl, _config(True, PagePolicy.DYNAMIC))
        span = table.reference_length + 1
        rng = np.random.default_rng(0)
        keys = rng.choice(table.kmer_count * span, size=8 * 1500, replace=False)

        def flush_of(count: int) -> WindowedBatch:
            return WindowedBatch(np.sort(keys[:count]), span, batches=1, issued=count)

        small, large = flush_of(1500), flush_of(8 * 1500)
        accelerator.replay_flush(small)  # lazy per-table columns are built once
        calls_small = _calls_made(accelerator.replay_flush, small)
        calls_large = _calls_made(accelerator.replay_flush, large)
        assert calls_large <= calls_small + 200, (calls_small, calls_large)
