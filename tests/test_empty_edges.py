"""Regression locks on empty/idle edge cases across the pipeline.

A long-lived serving deployment hits these constantly — an admission
window expiring on an empty queue, a flush with zero surviving requests,
a drained stream — and none of them may crash, divide by zero, or report
a nonsense aggregate.  These tests pin today's (correct) behavior so a
future refactor cannot silently regress the idle path.

The serving-side idle edge (admission window timing out with no queued
queries) is locked in ``tests/test_serving.py::TestAdmissionWindow``.
"""

from __future__ import annotations

import pytest

from repro.accel.exma_accelerator import ExmaAccelerator, WindowedRunResult
from repro.engine.backends import ExmaBackend
from repro.engine.engine import QueryEngine
from repro.engine.window import CoalescingWindow
from repro.exma.table import ExmaTable
from repro.genome.sequence import random_genome


@pytest.fixture(scope="module")
def accelerator():
    table = ExmaTable(random_genome(1200, seed=3), k=4)
    return ExmaAccelerator(table, None)


@pytest.fixture(scope="module")
def engine():
    table = ExmaTable(random_genome(1200, seed=3), k=4)
    return QueryEngine(ExmaBackend(table=table))


class TestEmptyAcceleratorRuns:
    def test_run_empty_batch(self, accelerator):
        result = accelerator.run([])
        assert result.requests == 0
        assert result.total_cycles == 0
        assert result.dram_requests == 0
        # An empty run did no work: no bases, no time, no energy, and no
        # DRAM channel reads a byte.  Derived rates stay finite because
        # ``throughput`` floors the seconds it divides by.
        assert result.bases_processed == 0
        assert result.seconds == 0
        assert result.accelerator_energy_j == result.dram_energy_j == 0
        assert all(channel.energy_nj == 0 for channel in result.per_channel)
        assert result.throughput.mbase_per_second == 0

    def test_windowed_all_short_batch_is_an_empty_run(self, accelerator, engine):
        """Queries shorter than k resolve from the tail table and issue no
        Occ request, so their flush replays as no work at all, not as one
        base in a picosecond."""
        stats = engine.search_batch(["ACG", "TTA", "GGC"]).stats
        assert len(stats.requests) == 0
        result = accelerator.run_windowed([stats.requests], window=1)
        assert result.windows == 1
        assert result.bases_processed == 0
        assert result.seconds == 0
        assert result.accelerator_energy_j + result.dram_energy_j == 0

    def test_run_stream_empty_iterator(self, accelerator):
        result = accelerator.run_stream(iter([]))
        assert result.flushes == []
        assert result.windows == 0
        assert result.batches == 0
        assert result.issued == 0

    def test_run_windowed_empty_stream(self, accelerator):
        result = accelerator.run_windowed(iter([]), window=2)
        assert result.flushes == []
        assert result.batches == 0
        assert result.issued == 0
        assert result.merge_ratio == 1.0


class TestEmptyWindowedAggregates:
    def test_zero_flush_aggregates_are_finite(self):
        result = WindowedRunResult(
            name="empty", flushes=[], capacity=2, batches=0, issued=0
        )
        assert result.requests == 0
        assert result.bases_processed == 0
        assert result.seconds == 0
        # Ratio-shaped aggregates take their identity values, not NaN.
        assert result.merge_ratio == 1.0
        assert result.bandwidth_utilization == 0.0
        assert result.row_hit_rate == 0.0


class TestEmptyCoalescingWindow:
    def test_flush_of_untouched_window_is_none(self):
        assert CoalescingWindow(2).flush() is None

    def test_empty_batches_still_count_toward_capacity(self, engine, accelerator):
        """Two pushed-but-empty request streams fill a W=2 window: the
        flush records 2 batches and 0 requests, and replaying it is a
        clean no-op run."""
        window = CoalescingWindow(2)
        assert window.push(engine.search_batch([]).stats.requests) is None
        flushed = window.push(engine.search_batch([]).stats.requests)
        assert flushed is not None
        assert flushed.batches == 2
        assert flushed.unique == 0
        assert flushed.issued == 0
        replayed = accelerator.run(flushed)
        assert replayed.requests == 0
        assert replayed.total_cycles == 0

    def test_replay_flush_matches_run_on_empty_flush(self, engine, accelerator):
        """replay_flush (the serving unit of work) degrades identically
        to run() on an all-empty flush."""
        window = CoalescingWindow(2)
        window.push(engine.search_batch([]).stats.requests)
        flushed = window.push(engine.search_batch([]).stats.requests)
        assert accelerator.replay_flush(flushed) == accelerator.run(flushed)


class TestParallelReplayEdges:
    """The parallel replay layer must degrade exactly like serial on the
    idle edges: an empty stream fans out zero epochs, a single flush runs
    inline, and both report the same all-zero aggregates."""

    def test_run_stream_empty_iterator_parallel(self, accelerator):
        result = accelerator.run_stream(iter([]), replay_workers=2)
        assert result.flushes == []
        assert result.windows == 0
        assert result.batches == 0
        assert result.issued == 0
        accelerator.close()

    def test_run_windowed_empty_stream_parallel(self, accelerator):
        result = accelerator.run_windowed(iter([]), window=2, replay_workers=2)
        assert result == accelerator.run_windowed(iter([]), window=2)
        accelerator.close()

    def test_single_flush_runs_inline(self, engine, accelerator):
        """One epoch is not worth a pool round-trip: the single-flush
        stream replays inline and still equals the serial result."""
        requests, _ = engine.request_stream(["ACGTACGT", "TTTTACGT"])
        serial = accelerator.run_windowed([requests], window=4)
        parallel = accelerator.run_windowed([requests], window=4, replay_workers=2)
        assert parallel == serial
        accelerator.close()

    def test_all_empty_flushes_parallel(self, engine, accelerator):
        """Zero-request flushes survive the pool round-trip unchanged."""
        streams = [engine.search_batch([]).stats.requests for _ in range(4)]
        serial = accelerator.run_windowed(streams, window=1)
        parallel = accelerator.run_windowed(streams, window=1, replay_workers=2)
        assert parallel == serial
        assert parallel.requests == 0
        assert parallel.batches == 4
        accelerator.close()


class TestEmptyEngineBatch:
    def test_search_batch_empty(self, engine):
        result = engine.search_batch([])
        assert result.intervals == []
        assert result.stats.requests.chunks() == []
        assert len(result.stats.requests) == 0
