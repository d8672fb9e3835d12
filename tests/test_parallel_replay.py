"""Epoch-parallel replay equivalence suite.

Every ``run_stream`` flush is an independent scheduling epoch — the
scheduler, caches and DRAM state start fresh per flush (the PR 4
contract) — so fanning epochs across a worker pool is pure reassembly:
``run_stream(replay_workers=N)`` must produce a
:class:`~repro.accel.exma_accelerator.WindowedRunResult` that is
**field-for-field identical** (dataclass equality over every counter,
cache/DRAM stat and energy ledger) to the serial loop, for the request
streams of all six engine backends, at every worker count, on both pool
kinds.  Anything less and the parallel path is not allowed to exist.
"""

from __future__ import annotations

import pytest

from repro.accel import ExmaAccelerator, ExmaAcceleratorConfig, ParallelReplay
from repro.engine import CoalescingWindow, QueryEngine, create_backend
from repro.engine.backends import ExmaBackend, FMIndexBackend, LisaBackend
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.lisa.search import LisaIndex
from repro.serving import QueryService, ServingConfig
from repro.testing import random_queries, reference_and_queries

BACKEND_NAMES = ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")

#: Worker counts the sweep pins (1 is the serial reference itself).
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def workload():
    reference, _ = reference_and_queries(genome_length=900, seed=3)
    batches = [
        random_queries(reference, count=10, length=18, seed=20 + i) for i in range(4)
    ]
    return reference, batches


@pytest.fixture(scope="module")
def backends(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=30, seed=0)
    return {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": LisaBackend(
            lisa_index=LisaIndex(reference, k=3, use_learned_index=True)
        ),
    }


@pytest.fixture(scope="module")
def accelerator(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    config = ExmaAcceleratorConfig().with_overrides(
        base_cache_bytes=2048, index_cache_bytes=1024, cam_entries=32
    )
    accelerator = ExmaAccelerator(table, None, config)
    yield accelerator
    accelerator.close()


@pytest.fixture(scope="module")
def streams(workload, backends):
    """Per-backend: the columnar request stream of every consecutive batch."""
    _, batches = workload
    per_backend = {}
    for name, backend in backends.items():
        engine = QueryEngine(backend)
        per_backend[name] = [engine.request_stream(queries)[0] for queries in batches]
    return per_backend


@pytest.fixture(scope="module")
def serial_results(streams, accelerator):
    """The serial anchors every parallel run must reproduce exactly."""
    return {
        name: accelerator.run_windowed(batch_streams, window=2)
        for name, batch_streams in streams.items()
    }


# --------------------------------------------------------------------- #
# The equivalence contract
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_thread_pool_field_for_field(
        self, name, workers, streams, accelerator, serial_results
    ):
        result = accelerator.run_windowed(
            streams[name], window=2, replay_workers=workers, executor="thread"
        )
        assert result == serial_results[name]

    def test_process_pool_field_for_field(
        self, name, streams, accelerator, serial_results
    ):
        """The process pool ships the accelerator once via the pool
        initializer; every epoch result must survive the pickle round
        trip unchanged."""
        result = accelerator.run_windowed(
            streams[name], window=2, replay_workers=2, executor="process"
        )
        assert result == serial_results[name]


class TestPlainRequestSequences:
    """run_stream also accepts raw request sequences (not windowed
    batches): the parallel path must keep the same batches/issued
    accounting — one batch and len(requests) issued per epoch."""

    def test_request_lists_parallel_equals_serial(self, streams, accelerator):
        epochs = [list(stream.materialize()) for stream in streams["exma"]]
        serial = accelerator.run_stream(iter(epochs))
        parallel = accelerator.run_stream(iter(epochs), replay_workers=2)
        assert parallel == serial
        assert parallel.batches == len(epochs)
        assert parallel.issued == sum(len(epoch) for epoch in epochs)


class TestParallelReplayDriver:
    def test_replay_flush_matches_accelerator(self, streams, accelerator):
        flushes = list(CoalescingWindow(2).stream(streams["exma"]))
        with ParallelReplay(accelerator, workers=2, executor="thread") as replay:
            for flushed in flushes:
                assert replay.replay_flush(flushed) == accelerator.replay_flush(flushed)

    def test_workers_validated(self, accelerator):
        with pytest.raises(ValueError):
            ParallelReplay(accelerator, workers=0)
        with pytest.raises(ValueError):
            ParallelReplay(accelerator, workers=2, executor="greenlet")

    def test_close_is_idempotent(self, accelerator):
        replay = ParallelReplay(accelerator, workers=2)
        replay.close()
        replay.close()


class TestPoolLifecycle:
    def test_pool_reused_swapped_and_closed(self, streams, accelerator):
        """Same knobs reuse the owned pool; changed knobs swap it;
        close() releases it — and every configuration stays exact."""
        serial = accelerator.run_windowed(streams["fmindex"], window=2)

        first = accelerator.run_windowed(streams["fmindex"], window=2, replay_workers=2)
        pool = accelerator.worker_pool
        assert pool is not None and pool.max_workers == 2

        second = accelerator.run_windowed(streams["fmindex"], window=2, replay_workers=2)
        assert accelerator.worker_pool is pool  # reused, not rebuilt

        third = accelerator.run_windowed(streams["fmindex"], window=2, replay_workers=4)
        assert accelerator.worker_pool is not pool  # swapped on knob change
        assert accelerator.worker_pool.max_workers == 4

        accelerator.close()
        assert accelerator.worker_pool is None
        assert first == serial and second == serial and third == serial

    def test_serial_run_leaves_no_pool(self, streams, accelerator):
        accelerator.close()
        accelerator.run_windowed(streams["fmindex"], window=2, replay_workers=1)
        assert accelerator.worker_pool is None


class TestKnobResolution:
    def test_invalid_knobs_rejected_on_entry(self, accelerator):
        with pytest.raises(ValueError):
            accelerator.run_stream(iter([]), replay_workers=0)
        with pytest.raises(ValueError):
            accelerator.run_stream(iter([]), replay_workers=1, executor="greenlet")


# --------------------------------------------------------------------- #
# Pool failure: rebuild once, then degrade to serial (exactly)
# --------------------------------------------------------------------- #


class TestPoolDegradation:
    """A broken or wedged pool must never change results: the ladder is
    rebuild-once then warn-once serial fallback, each rung field-for-field
    identical to the serial replay."""

    def _flushes(self, streams):
        return list(CoalescingWindow(2).stream(streams["exma"]))

    def test_process_worker_kill_rebuilds_pool_exactly(self, streams, accelerator):
        from repro.faults import SITE_SUBMIT, FaultInjector, FaultPlan, FaultSpec

        flushes = self._flushes(streams)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site=SITE_SUBMIT, kind="kill", at=(0,)),))
        )
        with ParallelReplay(
            accelerator, workers=2, executor="process", faults=injector
        ) as replay:
            for flushed in flushes:
                assert replay.replay_flush(flushed) == accelerator.replay_flush(flushed)
            assert not replay.degraded  # one failure: rebuilt, not degraded
        assert injector.total_injected == 1

    def test_repeated_kills_never_change_results(self, streams, accelerator):
        """A kill on *every* flush submission: whether each broken pool is
        observed at submit time or at gather time (a scheduling race), the
        ladder absorbs it — every result stays exact and nothing escapes.
        The warn-once on the second observed failure is tolerated, not
        required (the deterministic rebuild->degrade sequence is pinned by
        the wedged-pool timeout test below)."""
        import warnings as _warnings

        from repro.faults import SITE_SUBMIT, FaultInjector, FaultPlan, FaultSpec

        flushes = self._flushes(streams)
        assert len(flushes) >= 2
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site=SITE_SUBMIT, kind="kill", at=tuple(range(len(flushes)))
                    ),
                )
            )
        )
        with ParallelReplay(
            accelerator, workers=2, executor="process", faults=injector
        ) as replay:
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                results = [replay.replay_flush(flushed) for flushed in flushes]
        assert injector.total_injected == len(flushes)
        assert results == [accelerator.replay_flush(flushed) for flushed in flushes]

    def test_thread_kill_degrades_on_submitting_side(self, streams, accelerator):
        """A thread pool has no separate process to take down: the kill
        surfaces as an InjectedFault on the submitting side instead of
        silently succeeding."""
        from repro.faults import SITE_SUBMIT, FaultInjector, FaultPlan, FaultSpec, InjectedFault

        flushes = self._flushes(streams)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site=SITE_SUBMIT, kind="kill", at=(0,)),))
        )
        with ParallelReplay(
            accelerator, workers=2, executor="thread", faults=injector
        ) as replay:
            with pytest.raises(InjectedFault):
                replay.replay_flush(flushes[0])
            # Later flushes are untouched (the fault was a task error, not
            # a pool failure).
            assert replay.replay_flush(flushes[1]) == accelerator.replay_flush(flushes[1])

    def test_wedged_pool_times_out_into_serial_fallback(
        self, streams, accelerator, monkeypatch
    ):
        """A replay that outlives the gather deadline trips the whole
        ladder — timeout, rebuild, timeout, degrade — and the inline
        fallback still returns the exact serial result."""
        import time as _time

        import repro.accel.parallel as parallel_module

        flushes = self._flushes(streams)
        real_epoch = parallel_module.replay_epoch

        def wedged_epoch(accel, name, flushed):
            _time.sleep(0.2)
            return real_epoch(accel, name, flushed)

        monkeypatch.setattr(parallel_module, "replay_epoch", wedged_epoch)
        with ParallelReplay(
            accelerator, workers=2, executor="thread", timeout=0.01
        ) as replay:
            with pytest.warns(RuntimeWarning, match="failed twice"):
                result = replay.replay_flush(flushes[0])
            assert replay.degraded
            assert result == accelerator.replay_flush(flushes[0])

    def test_timeout_validated(self, accelerator):
        with pytest.raises(ValueError):
            ParallelReplay(accelerator, workers=2, timeout=0.0)
        with pytest.raises(ValueError):
            ParallelReplay(accelerator, workers=2, timeout=-1.0)


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #


class TestServingReplayWorkers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(replay_workers=0)
        with pytest.raises(ValueError):
            ServingConfig(replay_executor="greenlet")

    def test_service_shares_one_parallel_replay(self, workload):
        """A replay_workers=2 service serves the same intervals as the
        plain engine and funnels every batcher's flush through one shared
        ParallelReplay over the pool."""
        reference, batches = workload
        table = ExmaTable(reference, k=4)
        engine = QueryEngine(ExmaBackend(table=table))
        accelerator = ExmaAccelerator(table, None)
        config = ServingConfig(
            max_batch=16, max_delay=0.005, window=2, workers=2, replay_workers=2
        )
        queries = [query for batch in batches for query in batch]
        expected = engine.search_batch(queries)
        with QueryService(engine, accelerator, config) as service:
            assert service.replay is not None
            assert service.replay.workers == 2
            tickets = [service.submit([query]) for query in queries]
            service.stop()
            intervals = [
                outcome.interval
                for ticket in tickets
                for outcome in ticket.result(timeout=60.0)
            ]
        assert intervals == expected.intervals
        assert service.stats.flushes >= 1

    def test_search_only_service_has_no_replay(self, workload):
        reference, _ = workload
        engine = QueryEngine(ExmaBackend(table=ExmaTable(reference, k=4)))
        with QueryService(engine, None, ServingConfig(replay_workers=2)) as service:
            assert service.replay is None
            service.stop()
