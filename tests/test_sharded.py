"""Property-based equivalence suite for the sharded parallel engine.

The strong-scaling contract: for *any* query set, any shard count and
either executor, :class:`ShardedQueryEngine` must return byte-identical
intervals and a :class:`BatchStats` identical field-for-field to the
serial ``QueryEngine.search_batch`` — including the coalescing-dependent
counters (unique requests, base reads, increment-entry reads, prediction
errors) and the exact post-merge request stream the accelerator model
replays.  Hypothesis drives the cheap backends with arbitrary query
sets; a seeded-random matrix covers all six backends on both executors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ExmaAccelerator
from repro.engine import (
    BatchStats,
    ExmaBackend,
    FMIndexBackend,
    LisaBackend,
    QueryEngine,
    SearchBackend,
    ShardedQueryEngine,
    create_backend,
    merge_shard_stats,
    run_sharded_batch,
    split_shards,
)
from repro.engine.coalesce import BatchTrace
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.genome.sequence import random_genome
from repro.testing import reference_and_queries

SHARD_COUNTS = (1, 2, 4, 7)
EXECUTORS = ("thread", "process")
BACKEND_NAMES = ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")

STATS_FIELDS = (
    "queries",
    "lockstep_iterations",
    "iterations",
    "occ_requests_issued",
    "occ_requests_unique",
    "base_reads",
    "increment_entries_read",
    "index_predictions",
    "binary_comparisons",
)


def assert_stats_identical(serial: BatchStats, sharded: BatchStats) -> None:
    """Field-for-field equality, including streams and error lists."""
    for field in STATS_FIELDS:
        assert getattr(sharded, field) == getattr(serial, field), field
    assert sharded.prediction_errors == serial.prediction_errors
    assert sharded.requests == serial.requests


def assert_equivalent(backend, queries, shards, executor) -> None:
    serial = QueryEngine(backend, shards=1).search_batch(queries)
    sharded = ShardedQueryEngine(backend, shards=shards, executor=executor).search_batch(
        queries
    )
    assert [(i.low, i.high) for i in sharded.intervals] == [
        (i.low, i.high) for i in serial.intervals
    ]
    assert_stats_identical(serial.stats, sharded.stats)


# --------------------------------------------------------------------- #
# Hypothesis properties (cheap backends, arbitrary query sets)
# --------------------------------------------------------------------- #

REFERENCE = random_genome(500, seed=11)
FM_BACKEND = FMIndexBackend(REFERENCE)
EXMA_BACKEND = ExmaBackend(table=ExmaTable(REFERENCE, k=3))

#: Mixed query pool: reference substrings (hits, odd lengths included)
#: plus arbitrary strings (misses); hypothesis draws arbitrary subsets.
query_strategy = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=len(REFERENCE) - 13),
        st.integers(min_value=1, max_value=12),
    ).map(lambda t: REFERENCE[t[0] : t[0] + t[1]]),
    st.text(alphabet="ACGT", min_size=1, max_size=14),
)
queries_strategy = st.lists(query_strategy, min_size=1, max_size=24)


class TestShardedProperties:
    @given(queries=queries_strategy, shards=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_fmindex_sharded_equals_serial(self, queries, shards):
        assert_equivalent(FM_BACKEND, queries, shards, "thread")

    @given(queries=queries_strategy, shards=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_exma_sharded_equals_serial(self, queries, shards):
        assert_equivalent(EXMA_BACKEND, queries, shards, "thread")

    @given(queries=queries_strategy, shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_split_is_a_contiguous_balanced_partition(self, queries, shards):
        chunks = split_shards(queries, shards)
        assert [q for chunk in chunks for q in chunk] == queries
        assert all(chunks)
        assert len(chunks) == min(shards, len(queries))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------- #
# Seeded-random matrix: all six backends x shard counts x executors
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def case():
    reference, queries = reference_and_queries(
        genome_length=700, count=30, length=17, seed=5
    )
    # Odd lengths exercise every backend's partial-chunk tail path.
    queries += [reference[5:18], reference[40:51], "ACGT", "T"]
    return reference, queries


@pytest.fixture(scope="module")
def backends(case):
    reference, _ = case
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=40, seed=0)
    return {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": create_backend("lisa-learned", reference, k=3),
    }


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_all_backends_all_shards_both_executors(backends, case, name, shards, executor):
    if executor == "process" and shards == 7:
        pytest.skip("one persistent process pool per (backend, shards) cell; 4 covers it")
    _, queries = case
    assert_equivalent(backends[name], queries, shards, executor)


@pytest.mark.slow
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_process_executor_odd_shard_count(backends, case, name):
    """The skipped (process, 7) cell of the quick matrix, run in the slow lane."""
    _, queries = case
    assert_equivalent(backends[name], queries, 7, "process")


# --------------------------------------------------------------------- #
# BatchStats shard-merge semantics (the fig18 base-count regression)
# --------------------------------------------------------------------- #


class TestShardMergeSemantics:
    def test_base_count_accounting_survives_shard_merge(self, case, backends):
        """Regression guard: PR 1 fixed fig18 understating base counts; a
        naive per-shard ``BatchStats.merge`` would now *overstate* the
        coalescing-dependent counters instead.  The shard merge must keep
        base/increment accounting exactly serial."""
        _, queries = case
        backend = backends["exma"]
        serial = QueryEngine(backend, shards=1).search_batch(queries).stats
        sharded = run_sharded_batch(backend, queries, shards=4, executor="thread").stats
        assert serial.base_reads > 0
        assert sharded.base_reads == serial.base_reads
        assert sharded.increment_entries_read == serial.increment_entries_read
        # The legacy conversion the figure harnesses consume must agree too.
        assert sharded.to_search_stats().occ_lookups == serial.to_search_stats().occ_lookups
        assert sharded.to_search_stats().base_reads == serial.to_search_stats().base_reads

    def test_naive_merge_would_overstate_unique_requests(self, case, backends):
        """Documents why the trace-based merge exists: summing per-shard
        stats double-counts requests duplicated across shards."""
        _, queries = case
        backend = backends["exma"]
        serial = QueryEngine(backend, shards=1).search_batch(queries).stats
        naive = BatchStats()
        engine = ShardedQueryEngine(backend, shards=4, executor="thread")
        for result in engine.search_batch_per_shard(queries):
            naive.merge(result.stats)
        assert naive.occ_requests_issued == serial.occ_requests_issued
        assert naive.occ_requests_unique >= serial.occ_requests_unique
        exact = merge_shard_stats(
            backend, [r.stats for r in engine.search_batch_per_shard(queries)]
        )
        assert exact.occ_requests_unique == serial.occ_requests_unique

    def test_merge_shard_stats_of_single_shard_is_identity(self, case, backends):
        _, queries = case
        backend = backends["fmindex"]
        stats = BatchStats(trace=BatchTrace())
        backend.search_batch(queries, stats)
        merged = merge_shard_stats(backend, [stats])
        serial = QueryEngine(backend, shards=1).search_batch(queries).stats
        assert_stats_identical(serial, merged)


# --------------------------------------------------------------------- #
# Replay-free merge: no second trip through the index
# --------------------------------------------------------------------- #


class TestReplayFreeMerge:
    def test_replay_trace_is_gone(self, backends):
        """The merge records contributions during the shard run; nothing —
        base class or backend — carries a replay hook anymore."""
        assert not hasattr(SearchBackend, "replay_trace")
        for backend in backends.values():
            assert not hasattr(backend, "replay_trace")

    @pytest.mark.parametrize("name", ["exma", "exma-mtl", "lisa", "lisa-learned"])
    def test_merge_consults_backend_only_for_its_span(self, case, backends, name):
        """Merging per-shard stats must need the backend for nothing but
        ``reference_length`` — proven by merging through a stub that has
        no search structure at all."""
        from types import SimpleNamespace

        _, queries = case
        backend = backends[name]
        shard_stats = []
        for shard in split_shards(queries, 4):
            stats = BatchStats(trace=BatchTrace())
            backend.search_batch(shard, stats)
            shard_stats.append(stats)
        stub = SimpleNamespace(reference_length=backend.reference_length)
        merged = merge_shard_stats(stub, shard_stats)
        serial = QueryEngine(backend, shards=1).search_batch(queries).stats
        assert_stats_identical(serial, merged)


# --------------------------------------------------------------------- #
# Persistent worker pools
# --------------------------------------------------------------------- #


class TestPersistentPools:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pool_survives_multiple_batches(self, case, backends, executor):
        """A reused engine keeps one pool across search_batch calls, and
        every call stays byte-identical to serial."""
        _, queries = case
        backend = backends["exma"]
        serial = QueryEngine(backend, shards=1).search_batch(queries)
        with ShardedQueryEngine(backend, shards=3, executor=executor) as engine:
            assert engine.worker_pool is None  # created lazily
            first = engine.search_batch(queries)
            pool = engine.worker_pool
            assert pool is not None and pool.active
            for result in (first, engine.search_batch(queries), engine.search_batch(queries)):
                assert [(i.low, i.high) for i in result.intervals] == [
                    (i.low, i.high) for i in serial.intervals
                ]
                assert_stats_identical(serial.stats, result.stats)
            assert engine.worker_pool is pool  # same pool, not one per batch
        assert engine.worker_pool is None  # context exit released it

    def test_close_is_idempotent_and_engine_stays_usable(self, case, backends):
        _, queries = case
        engine = ShardedQueryEngine(backends["fmindex"], shards=2, executor="thread")
        engine.search_batch(queries)
        first_pool = engine.worker_pool
        engine.close()
        engine.close()
        assert engine.worker_pool is None
        engine.search_batch(queries)  # transparently recreates the pool
        assert engine.worker_pool is not None
        assert engine.worker_pool is not first_pool
        engine.close()

    def test_clone_inherits_knobs_never_the_pool(self, case, backends):
        """A clone keeps its parent's shards and executor but owns its own
        pool — how the serving layer gives every batcher worker one."""
        _, queries = case
        with ShardedQueryEngine(backends["fmindex"], shards=2, executor="thread") as engine:
            engine.search_batch(queries)
            with engine.clone() as clone:
                assert (clone.executor, clone.effective_shards) == ("thread", 2)
                assert clone.worker_pool is None  # never the parent's pool
                clone.search_batch(queries)
                assert clone.worker_pool is not None
                assert clone.worker_pool is not engine.worker_pool


# --------------------------------------------------------------------- #
# Adaptive shard clamping (QueryEngine) vs forced split (ShardedQueryEngine)
# --------------------------------------------------------------------- #


class TestAdaptiveShards:
    def test_query_engine_clamps_to_available_cpus(self, case, monkeypatch):
        reference, _ = case
        monkeypatch.setattr("repro.runtime.available_parallelism", lambda: 2)
        engine = QueryEngine(FMIndexBackend(reference), shards=8)
        assert engine.shards == 8  # the configured upper bound is kept
        assert engine.effective_shards == 2

    def test_sharded_engine_never_clamps(self, case, monkeypatch):
        reference, queries = case
        monkeypatch.setattr("repro.runtime.available_parallelism", lambda: 1)
        backend = FMIndexBackend(reference)
        engine = ShardedQueryEngine(backend, shards=4, executor="thread")
        assert engine.effective_shards == 4
        engine.search_batch(queries)
        assert engine.worker_pool is not None  # the split really ran
        engine.close()


# --------------------------------------------------------------------- #
# Engine dispatch and configuration
# --------------------------------------------------------------------- #


class TestEngineDispatch:
    def test_default_engine_is_serial(self, case):
        """Parallel search only when asked for: the default engine runs one
        shard on the thread executor and never creates a pool."""
        reference, queries = case
        engine = QueryEngine(FMIndexBackend(reference))
        assert (engine.shards, engine.effective_shards, engine.executor) == (1, 1, "thread")
        engine.search_batch(queries)
        assert engine.worker_pool is None

    def test_invalid_configuration_rejected(self, case):
        reference, _ = case
        backend = FMIndexBackend(reference)
        with pytest.raises(ValueError):
            ShardedQueryEngine(backend, shards=0)
        with pytest.raises(ValueError):
            ShardedQueryEngine(backend, shards=2, executor="rocket")
        with pytest.raises(ValueError):
            QueryEngine(backend, shards=0)
        # Executor typos must fail at construction, not at the first batch.
        with pytest.raises(ValueError):
            QueryEngine(backend, shards=4, executor="processes")
        with pytest.raises(ValueError):
            run_sharded_batch(backend, ["ACGT", "TTTT"], shards=2, executor="rocket")

    def test_single_query_and_empty_batches(self, case):
        reference, _ = case
        engine = ShardedQueryEngine(FMIndexBackend(reference), shards=4, executor="thread")
        assert engine.search_batch([]).intervals == []
        single = engine.search_batch([reference[10:20]])
        assert single.intervals[0].count >= 1

    def test_more_shards_than_queries(self, case):
        reference, queries = case
        engine = ShardedQueryEngine(
            FMIndexBackend(reference), shards=64, executor="thread"
        )
        serial = QueryEngine(FMIndexBackend(reference), shards=1).search_batch(queries[:3])
        wide = engine.search_batch(queries[:3])
        assert [(i.low, i.high) for i in wide.intervals] == [
            (i.low, i.high) for i in serial.intervals
        ]
        assert_stats_identical(serial.stats, wide.stats)

    @pytest.mark.parametrize("name", ["exma", "exma-mtl", "lisa-learned"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_unpriced_search_keeps_answers_and_stream(self, case, backends, name, shards):
        """``priced=False`` drops the lockstep steps' cost accounting only:
        intervals, coalescing counters and the request stream are those of
        the priced search, serial or sharded, and the cost counters cover
        the partial-chunk tails alone."""
        _, queries = case
        backend = backends[name]
        priced = QueryEngine(backend, shards=1).search_batch(queries)
        engine = ShardedQueryEngine(backend, shards=shards, executor="thread")
        unpriced = engine.search_batch(queries, priced=False)
        assert unpriced.intervals == priced.intervals
        assert not unpriced.stats.priced and priced.stats.priced
        for field in STATS_FIELDS[:6]:
            assert getattr(unpriced.stats, field) == getattr(priced.stats, field), field
        assert unpriced.stats.requests == priced.stats.requests
        traced = BatchStats(trace=BatchTrace())
        backend.search_batch(queries, traced)
        tails = traced.trace.tail_contributions
        assert unpriced.stats.increment_entries_read == 0
        assert unpriced.stats.index_predictions == sum(t.predictions for t in tails)
        assert unpriced.stats.binary_comparisons == sum(t.comparisons for t in tails)
        assert unpriced.stats.prediction_errors == [e for t in tails for e in t.errors]

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_find_batch_and_wrappers_route_through_sharded_path(
        self, case, backends, name, executor
    ):
        _, queries = case
        backend = backends[name]
        serial = QueryEngine(backend)
        serial_positions, serial_stats = serial.find_batch(queries)
        with ShardedQueryEngine(backend, shards=3, executor=executor) as engine:
            positions, stats = engine.find_batch(queries)
            assert positions == serial_positions
            assert_stats_identical(serial_stats, stats)
            assert engine.count_batch(queries) == serial.count_batch(queries)
            requests, _ = engine.request_stream(queries)
            assert requests == serial_stats.requests
            assert engine.find(queries[0]) == serial.find(queries[0])
            assert engine.occurrence_count(queries[1]) == serial.occurrence_count(queries[1])


# --------------------------------------------------------------------- #
# Downstream of the merge: windowing and accelerator replay
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_sharded_batches_replay_like_serial(case, backends, name, executor):
    """The link the accelerator suites build on, with sharded search: the
    batch streams of a sharded engine window and replay field-for-field
    like the serial engine's (``test_accel_stream`` / ``test_accel_replay``
    feed the serial engine)."""
    reference, queries = case
    batches = [queries[index::3] for index in range(3)]
    accelerator = ExmaAccelerator(ExmaTable(reference, k=4), None)
    serial = QueryEngine(backends[name])
    with ShardedQueryEngine(backends[name], shards=2, executor=executor) as engine:
        sharded = accelerator.run_windowed(
            [engine.search_batch(batch).stats.requests for batch in batches], window=2
        )
    expected = accelerator.run_windowed(
        [serial.search_batch(batch).stats.requests for batch in batches], window=2
    )
    assert sharded == expected
