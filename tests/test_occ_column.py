"""The Occ column a search hands to the replay.

An EXMA search ranks every unique ``(kmer, pos)`` key of each lockstep
step.  Those Occ values travel beside the keys: through the engine's
:class:`~repro.engine.coalesce.RequestStream`, through
:meth:`~repro.engine.window.CoalescingWindow.flush` (one more sort, no
argsort) and into :meth:`~repro.accel.exma_accelerator.ExmaAccelerator
.run`, which ranks only a container that has no column.  Pinned here:

* the carried column equals ``ExmaTable.occ_batch`` of the same keys,
  element for element, for every engine stream and every flush — serial,
  thread- and process-sharded, compiled and ``REPRO_PURE_PYTHON``
  lockstep, any window;
* the engine path (search, window, ``replay_flush``) ranks nothing: each
  replay makes its one ``occ_batch`` call over no requests; a plain
  request list is ranked once and replays as
  :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_reference`;
* the window's edge cases: a chunk packed from objects drops the column
  (and ``run`` ranks the flush), chunks under two spans keep it, and
  empty and single-chunk flushes carry a column of their length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.accel import ExmaAccelerator
from repro.engine import QueryEngine
from repro.engine.backends import ExmaBackend
from repro.engine.coalesce import RequestStream
from repro.engine.sharded import ShardedQueryEngine
from repro.engine.window import CoalescingWindow
from repro.exma.table import ExmaTable
from repro.genome.sequence import random_genome
from repro.runtime import PURE_PYTHON_ENV

REFERENCE = random_genome(700, seed=11)
STEPS = (2, 4, 6)
#: One backend per step number over the same reference.
BACKENDS = {k: ExmaBackend(table=ExmaTable(REFERENCE, k=k)) for k in STEPS}
#: Fixed batches for the sharded and replay cases: repeated reads,
#: mixed lengths (tails only, exactly one chunk, many chunks) and a miss.
HIT = REFERENCE[200:240]
BATCHES = [
    [HIT, HIT[:17], REFERENCE[10:34], HIT, "ACGTTGCA" * 3],
    [REFERENCE[400:440], HIT[:6], HIT[:3], REFERENCE[10:34], REFERENCE[600:631]],
    [HIT[5:29], REFERENCE[50:90], REFERENCE[400:440], HIT[:17]],
]


@pytest.fixture(params=["compiled", "pure-python"])
def lockstep_path(request, monkeypatch):
    """The compiled lockstep pass, or its spec as ``REPRO_PURE_PYTHON=1``
    forces it (process shards inherit the variable)."""
    monkeypatch.setattr(native, "_library", native._UNRESOLVED)
    if request.param == "pure-python":
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
    else:
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
    assert ("lockstep" in native.loaded_kernels()) == (request.param == "compiled")
    return request.param


@pytest.fixture
def occ_batch_calls(monkeypatch) -> list[int]:
    """The size of every ``ExmaTable.occ_batch`` call made after the
    backends were built (a backend binds its own at construction, as the
    benchmark's tracer expects)."""
    calls: list[int] = []
    original = ExmaTable.occ_batch

    def counted(self, kmers, positions):
        calls.append(len(kmers))
        return original(self, kmers, positions)

    monkeypatch.setattr(ExmaTable, "occ_batch", counted)
    return calls


def assert_column(table: ExmaTable, container) -> None:
    """*container*'s Occ column is ``occ_batch`` of its keys."""
    occ = container.occ
    assert occ is not None and occ.dtype == np.int64
    assert occ.shape == container.kmers.shape
    assert occ.tolist() == table.occ_batch(container.kmers, container.positions).tolist()


@st.composite
def searched_batches(draw):
    """A step number, a window capacity and 1–5 batches mixing reference
    substrings of 1–40 bp (hits), random strings (which die early) and
    repeats of earlier queries, within a batch and across batches."""
    k = draw(st.sampled_from(STEPS))
    capacity = draw(st.sampled_from((1, 2, 4, 8)))
    substring = st.tuples(
        st.integers(0, len(REFERENCE) - 40), st.integers(1, 40)
    ).map(lambda t: REFERENCE[t[0] : t[0] + t[1]])
    query = st.one_of(substring, st.text(alphabet="ACGT", min_size=1, max_size=40))
    batches, seen = [], []
    for _ in range(draw(st.integers(1, 5))):
        fresh = draw(st.lists(query, min_size=1, max_size=12))
        seen += fresh
        batches.append(fresh + draw(st.lists(st.sampled_from(seen), max_size=4)))
    return k, capacity, batches


@given(case=searched_batches())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_engine_streams_and_flushes_carry_occ_batch(lockstep_path, case):
    k, capacity, batches = case
    backend = BACKENDS[k]
    engine = QueryEngine(backend)
    streams = [engine.search_batch(batch).stats.requests for batch in batches]
    for stream in streams:
        assert_column(backend.table, stream)
    flushes = list(CoalescingWindow(capacity).stream(streams))
    assert len(flushes) == -(-len(batches) // capacity)
    for flushed in flushes:
        assert_column(backend.table, flushed)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_sharded_streams_carry_occ_batch(lockstep_path, executor):
    backend = BACKENDS[4]
    streams = []
    with ShardedQueryEngine(backend, shards=3, executor=executor) as engine:
        for batch in BATCHES:
            sharded = engine.search_batch(batch).stats.requests
            serial = QueryEngine(backend).search_batch(batch).stats.requests
            assert sharded == serial
            assert_column(backend.table, sharded)
            assert sharded.occ.tolist() == serial.occ.tolist()
            streams.append(sharded)
    for flushed in CoalescingWindow(2).stream(streams):
        assert_column(backend.table, flushed)


class TestReplayRanksOnce:
    @pytest.fixture
    def accelerator(self):
        return ExmaAccelerator(BACKENDS[4].table, None)

    def _streams(self):
        engine = QueryEngine(BACKENDS[4])
        return [engine.search_batch(batch).stats.requests for batch in BATCHES]

    def test_engine_window_replay_never_ranks(self, accelerator, occ_batch_calls):
        streams = self._streams()
        window = CoalescingWindow(2)
        flushed = [window.push(stream) for stream in streams] + [window.flush()]
        results = [accelerator.replay_flush(one) for one in flushed if one is not None]
        assert len(results) == 2 and all(result.requests for result in results)
        # The stream replayed whole goes the same way.
        accelerator.run(streams[0])
        assert occ_batch_calls == [0, 0, 0]

    def test_plain_request_list_is_ranked_once_and_matches_the_reference(
        self, accelerator, occ_batch_calls
    ):
        flushed = CoalescingWindow(1).push(self._streams()[1])
        requests = list(flushed)
        bases = accelerator._bases_processed(flushed.issued)
        ranked = accelerator.run(requests, bases_processed=bases)
        assert occ_batch_calls == [len(requests)]
        assert ranked == accelerator.run_reference(requests, bases_processed=bases)
        assert ranked == accelerator.replay_flush(flushed)
        assert occ_batch_calls == [len(requests), 0]


class TestWindowEdges:
    def test_object_packed_chunk_drops_the_column_and_run_ranks(self, occ_batch_calls):
        table = BACKENDS[4].table
        accelerator = ExmaAccelerator(table, None)
        streams = [QueryEngine(BACKENDS[4]).search_batch(b).stats.requests for b in BATCHES]
        engine_only = CoalescingWindow(3).stream(streams)
        mixed = CoalescingWindow(3).stream([streams[0], list(streams[1]), streams[2]])
        (engine_flush,), (mixed_flush,) = list(engine_only), list(mixed)
        # The object-packed chunk has its own span; the union re-bases it.
        assert list(streams[1]) and mixed_flush.occ is None
        ((mixed_keys, mixed_span, _),) = mixed_flush.chunks()
        ((engine_keys, engine_span, _),) = engine_flush.chunks()
        assert mixed_keys.tolist() == engine_keys.tolist()
        assert mixed_span == engine_span
        assert_column(table, engine_flush)
        assert occ_batch_calls == [engine_flush.unique]  # assert_column's own call
        assert accelerator.replay_flush(mixed_flush) == accelerator.replay_flush(engine_flush)
        assert occ_batch_calls == [engine_flush.unique, mixed_flush.unique, 0]

    def test_engine_chunks_under_two_spans_keep_the_column(self):
        backend = BACKENDS[4]
        table, span = backend.table, backend.table.reference_length + 1
        narrow, source = (
            QueryEngine(backend).search_batch(batch).stats.requests for batch in BATCHES[:2]
        )
        wide_span = 3 * span + 5
        wide = RequestStream()
        for keys, chunk_span, occ in source.chunks():
            assert chunk_span == span
            wide.append_step(keys // span * wide_span + keys % span, wide_span, occ)
        window = CoalescingWindow(3)
        window.push(narrow)
        window.push(wide)
        flushed = window.push(narrow)  # every key again: duplicates across spans
        ((keys, flushed_span, _),) = flushed.chunks()
        assert flushed_span == wide_span
        assert flushed.unique < flushed.issued
        assert_column(table, flushed)
        accelerator = ExmaAccelerator(table, None)
        unranked = RequestStream()
        unranked.append_step(keys, flushed_span)
        unranked.batches, unranked.issued = flushed.batches, flushed.issued
        assert accelerator.replay_flush(flushed) == accelerator.replay_flush(unranked)

    def test_empty_and_single_chunk_flushes_carry_a_column_of_their_length(self):
        backend = BACKENDS[6]
        engine = QueryEngine(backend)
        tails_only = engine.search_batch(["ACG", "T"]).stats.requests
        assert len(tails_only) == 0 and tails_only.occ.size == 0
        empty = CoalescingWindow(1).push(tails_only)
        assert empty.unique == 0 and empty.occ is not None and empty.occ.size == 0
        assert CoalescingWindow(1).push([]).occ.size == 0
        one_step = engine.search_batch([HIT[:6]]).stats.requests
        assert len(one_step.chunks()) == 1
        single = CoalescingWindow(1).push(one_step)
        assert single.unique == len(one_step) == single.occ.size
        assert_column(backend.table, single)
        assert ExmaAccelerator(backend.table, None).replay_flush(empty).requests == 0
