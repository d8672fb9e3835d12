"""Serving-layer suite: admission, batching, fairness, backpressure, and
the served-equals-offline equivalence contract.

The load-bearing test is :class:`TestOfflineEquivalence`: for a given
partitioning of the served queries into dynamic batches, the service's
flush replays must be **field-for-field identical** to
:meth:`repro.accel.exma_accelerator.ExmaAccelerator.run_windowed` over the
same per-batch request streams, and every returned interval identical to
:meth:`repro.engine.engine.QueryEngine.search_batch` — serving is a
different *arrival* of the same computation, never a different result.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.accel.exma_accelerator import ExmaAccelerator
from repro.engine.backends import ExmaBackend
from repro.engine.engine import QueryEngine
from repro.engine.sharded import ShardedQueryEngine
from repro.exma.table import ExmaTable
from repro.genome.sequence import random_genome
from repro.serving import (
    AdmissionRejected,
    QueryService,
    ServingConfig,
    bursty_schedule,
    make_schedule,
    percentile,
    poisson_schedule,
    run_open_loop,
    sample_query_pool,
)
from repro.serving.loadgen import zipfian_picks
from repro.serving.service import ServingStats, TenantQueues, Ticket, _Pending
from repro.testing import random_queries

#: Generous join/result timeout: everything here is toy-scale.
TIMEOUT = 60.0


@pytest.fixture(scope="module")
def serving_stack():
    reference = random_genome(1800, seed=11)
    table = ExmaTable(reference, k=4)
    backend = ExmaBackend(table=table)
    accelerator = ExmaAccelerator(table, None)
    return reference, backend, accelerator


def _pending(query: str, tenant: str, arrival: float = 0.0) -> _Pending:
    return _Pending(query, tenant, Ticket(1), 0, arrival)


def _served_partitions_match_offline(serving_stack, engine, workers):
    """Serve six exactly-``max_batch`` groups through *workers* batcher
    workers over *engine*, then check each worker's flushes against the
    offline ``run_windowed`` (serial engine) over the batches it took.
    Returns the stopped service and its ``worker -> batch indexes``
    partition."""
    reference, backend, accelerator = serving_stack
    batch, groups = 6, 6
    query_groups = [
        random_queries(reference, count=batch, length=16, seed=200 + index)
        for index in range(groups)
    ]
    config = ServingConfig(
        max_batch=batch, max_delay=30.0, window=2, idle_timeout=30.0, workers=workers
    )
    service = QueryService(engine, accelerator, config)
    with service:
        tickets = [service.submit(group) for group in query_groups]
        service.stop()
    outcomes = [ticket.result(timeout=TIMEOUT) for ticket in tickets]

    # Single tenant + exactly-max_batch groups: dynamic batch g is
    # group g, and one worker serves all of it.
    partition: dict[int, list[int]] = {}
    for group_index, group_outcomes in enumerate(outcomes):
        assert {outcome.batch_index for outcome in group_outcomes} == {group_index}
        owners = {outcome.worker_index for outcome in group_outcomes}
        assert len(owners) == 1
        partition.setdefault(owners.pop(), []).append(group_index)
    assert sorted(index for taken in partition.values() for index in taken) == list(range(groups))

    offline_engine = QueryEngine(backend)
    streams = [offline_engine.search_batch(group).stats.requests for group in query_groups]
    served = service.worker_results()
    assert len(served) == workers
    for worker_index in range(workers):
        taken = partition.get(worker_index, [])
        # batch_index is stamped at take time, so ascending order is
        # the order this worker took (and flushed) its batches.
        assert taken == sorted(taken)
        offline = accelerator.run_windowed(
            iter(streams[index] for index in taken), window=config.window, name=config.name
        )
        assert served[worker_index].flushes == offline.flushes
        assert served[worker_index].issued == offline.issued
        assert served[worker_index].batches == offline.batches

    # And the intervals are still exactly the engine's.
    for group, group_outcomes in zip(query_groups, outcomes):
        assert [
            outcome.interval for outcome in group_outcomes
        ] == offline_engine.search_batch(group).intervals
    return service, partition


# --------------------------------------------------------------------- #
# Admission queue and fairness
# --------------------------------------------------------------------- #


class TestTenantQueues:
    def test_round_robin_interleaves_tenants(self):
        queues = TenantQueues(capacity=64)
        queues.admit([_pending(f"a{i}", "a") for i in range(5)])
        queues.admit([_pending(f"b{i}", "b") for i in range(2)])
        batch = queues.take(6)
        order = [(p.tenant, p.query) for p in batch]
        # One query per tenant per turn until b drains, then a alone;
        # within each tenant strictly FIFO.
        assert order == [
            ("a", "a0"), ("b", "b0"), ("a", "a1"), ("b", "b1"), ("a", "a2"), ("a", "a3"),
        ]
        assert queues.queued == 1

    def test_round_robin_resumes_after_last_served_tenant(self):
        queues = TenantQueues(capacity=64)
        queues.admit([_pending(f"a{i}", "a") for i in range(4)])
        queues.admit([_pending(f"b{i}", "b") for i in range(4)])
        first = queues.take(3)
        second = queues.take(3)
        # The second batch starts with the tenant after the last served,
        # so across batches both tenants get equal slots.
        tenants = [p.tenant for p in first + second]
        assert tenants.count("a") == tenants.count("b") == 3

    def test_flooding_tenant_cannot_starve_others(self):
        queues = TenantQueues(capacity=256)
        queues.admit([_pending(f"flood{i}", "flood") for i in range(100)])
        queues.admit([_pending("fair0", "fair")])
        batch = queues.take(8)
        assert "fair" in {p.tenant for p in batch}

    def test_capacity_accounting(self):
        queues = TenantQueues(capacity=4)
        assert queues.has_room(4)
        queues.admit([_pending(f"q{i}", "t") for i in range(4)])
        assert not queues.has_room(1)
        queues.take(2)
        assert queues.has_room(2) and not queues.has_room(3)

    def test_oldest_arrival_spans_tenants(self):
        queues = TenantQueues(capacity=8)
        queues.admit([_pending("late", "a", arrival=5.0)])
        queues.admit([_pending("early", "b", arrival=1.0)])
        assert queues.oldest_arrival() == 1.0
        assert queues.take(8)  # drain
        assert queues.oldest_arrival() is None

    def test_drained_tenants_are_evicted(self):
        """Regression: the ring must stay O(active tenants), not O(all
        tenants ever seen) — an always-on service facing one-shot tenants
        previously leaked a queue entry per tenant forever."""
        queues = TenantQueues(capacity=100_000)
        for index in range(1000):
            queues.admit([_pending("q", f"one-shot-{index}")])
        assert queues.active == 1000
        taken = queues.take(500)
        assert len(taken) == 500
        # The 500 drained tenants are fully evicted, not just emptied.
        assert queues.active == 500
        assert len(queues._queues) == 500
        assert len(queues._ring) == 500
        queues.take(500)
        assert queues.active == 0
        assert queues._queues == {} and not queues._ring
        assert queues.oldest_arrival() is None

    def test_evicted_tenant_readmits_at_ring_tail(self):
        """Eviction must not buy extra turns: a tenant that drains and
        comes back re-enters behind the tenants already waiting."""
        queues = TenantQueues(capacity=64)
        queues.admit([_pending("a0", "a"), _pending("a1", "a")])
        queues.admit([_pending("b0", "b")])
        assert [(p.tenant, p.query) for p in queues.take(2)] == [("a", "a0"), ("b", "b0")]
        assert queues.tenants == ["a"]  # b drained => evicted
        queues.admit([_pending("b1", "b")])
        assert queues.tenants == ["a", "b"]
        assert [(p.tenant, p.query) for p in queues.take(2)] == [("a", "a1"), ("b", "b1")]


# --------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------- #


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(
            QueryEngine(backend), config=ServingConfig(queue_capacity=8, max_batch=4)
        )
        # Not started: nothing drains, so the bound is exact.
        service.submit(["ACGT"] * 8)
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(["ACGT"])
        rejection = excinfo.value
        assert rejection.retry_after > 0
        assert rejection.queued == 8 and rejection.capacity == 8
        # Drain estimate: 8 queued / 4 per batch = 2 admission windows.
        assert rejection.retry_after == pytest.approx(2 * service.config.max_delay)
        assert service.stats.rejected == 1
        service.stop(drain=False)

    def test_oversized_group_rejected_before_any_enqueue(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(
            QueryEngine(backend), config=ServingConfig(queue_capacity=4)
        )
        with pytest.raises(AdmissionRejected):
            service.submit(["ACGT"] * 5)
        assert service.stats.accepted == 0
        service.stop(drain=False)

    def test_submit_after_stop_raises(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(QueryEngine(backend))
        service.stop()
        with pytest.raises(RuntimeError):
            service.submit(["ACGT"])

    def test_empty_submit_after_stop_raises(self, serving_stack):
        """Regression: an empty group used to short-circuit *before* the
        stopped check and hand back an already-resolved ticket — accepted
        work from a dead service.  Both paths must raise."""
        _, backend, _ = serving_stack
        service = QueryService(QueryEngine(backend))
        service.stop()
        with pytest.raises(RuntimeError):
            service.submit([])
        with pytest.raises(RuntimeError):
            service.submit(["ACGT"])

    def test_retry_after_reflects_observed_service_time(self, serving_stack):
        """Regression: retry_after used to charge only the admission
        window per backlog batch, so whenever real batch service time
        exceeded max_delay — exactly the overload that causes bounces —
        clients were told to come back into a still-full queue."""
        _, backend, _ = serving_stack
        service = QueryService(
            QueryEngine(backend),
            config=ServingConfig(queue_capacity=8, max_batch=4, max_delay=0.005),
        )
        service.submit(["ACGT"] * 8)
        service._observe_service_time(0.5)
        assert service._service_ewma == pytest.approx(0.5)
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(["ACGT"])
        # 2 backlog batches at the observed 0.5 s pace, not the 5 ms window.
        assert excinfo.value.retry_after == pytest.approx(2 * 0.5)
        service.stop(drain=False)

    def test_service_time_ewma_smooths(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(QueryEngine(backend))
        assert service._service_ewma is None
        service._observe_service_time(0.5)
        service._observe_service_time(0.1)
        # alpha = 0.2: 0.5 + 0.2 * (0.1 - 0.5)
        assert service._service_ewma == pytest.approx(0.42)
        service.stop(drain=False)


# --------------------------------------------------------------------- #
# The admission window
# --------------------------------------------------------------------- #


class TestAdmissionWindow:
    def test_idle_timeout_with_no_queued_queries(self, serving_stack):
        """An admission window expiring on an empty queue is a no-op tick:
        no batch, no flush, the service stays healthy."""
        _, backend, accelerator = serving_stack
        service = QueryService(
            QueryEngine(backend),
            accelerator,
            ServingConfig(idle_timeout=0.01),
        )
        assert service._next_batch() == []
        assert service.stats.idle_timeouts == 1
        assert service.stats.batches == 0 and service.stats.flushes == 0
        # The service still serves afterwards.
        with service:
            ticket = service.submit(["ACGTACGT"])
            service.stop()
        assert ticket.done()

    def test_stopping_idle_loop_returns_none(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(QueryEngine(backend))
        service._stopping = True
        assert service._next_batch() is None

    def test_max_delay_bounds_batch_wait(self, serving_stack):
        """A lone query must not wait for max_batch company forever."""
        _, backend, accelerator = serving_stack
        config = ServingConfig(max_batch=1024, max_delay=0.02, window=1)
        with QueryService(QueryEngine(backend), accelerator, config) as service:
            start = time.monotonic()
            outcome = service.submit(["ACGTACGT"]).result(timeout=TIMEOUT)[0]
            elapsed = time.monotonic() - start
        assert outcome.latency >= 0
        # Window (20 ms) + search + replay; generous bound for slow CI.
        assert elapsed < 10.0
        assert service.stats.batches == 1

    def test_idle_tick_flushes_partial_window(self, serving_stack):
        """Liveness: a batch stuck in a half-full coalescing window is
        flushed by the next idle tick — completions never wait on future
        traffic (no stop() needed)."""
        reference, backend, accelerator = serving_stack
        config = ServingConfig(
            max_batch=4, max_delay=0.005, window=8, idle_timeout=0.02
        )
        with QueryService(QueryEngine(backend), accelerator, config) as service:
            ticket = service.submit(random_queries(reference, count=4, length=16, seed=21))
            outcomes = ticket.result(timeout=TIMEOUT)  # resolves pre-stop
            assert service.stats.flushes == 1
        assert {outcome.flush_index for outcome in outcomes} == {0}

    def test_full_batch_closes_window_early(self, serving_stack):
        """max_batch queries queued => the batch forms without waiting out
        the (here: very long) admission window."""
        _, backend, accelerator = serving_stack
        config = ServingConfig(max_batch=6, max_delay=30.0, window=1)
        with QueryService(QueryEngine(backend), accelerator, config) as service:
            ticket = service.submit(["ACGTAC"] * 6)
            outcomes = ticket.result(timeout=TIMEOUT)
        assert len(outcomes) == 6
        assert {outcome.batch_index for outcome in outcomes} == {0}


# --------------------------------------------------------------------- #
# Served results == offline results
# --------------------------------------------------------------------- #


class TestOfflineEquivalence:
    @pytest.mark.parametrize("window,groups", [(1, 3), (2, 4), (2, 3), (4, 2)])
    def test_flushes_identical_to_run_windowed(self, serving_stack, window, groups):
        """Deterministic batching (every submit exactly max_batch queries,
        huge max_delay) makes served batches == submitted groups; the
        flush replays must then equal run_windowed over the same streams
        field-for-field — including the trailing partial window forced
        out by stop(drain=True)."""
        reference, backend, accelerator = serving_stack
        batch = 8
        query_groups = [
            random_queries(reference, count=batch, length=16, seed=100 + index)
            for index in range(groups)
        ]
        config = ServingConfig(
            max_batch=batch, max_delay=30.0, window=window, idle_timeout=30.0
        )
        service = QueryService(QueryEngine(backend), accelerator, config)
        with service:
            tickets = [service.submit(group) for group in query_groups]
            service.stop()
        outcomes = [ticket.result(timeout=TIMEOUT) for ticket in tickets]

        offline_engine = QueryEngine(backend)
        streams = [
            offline_engine.search_batch(group).stats.requests for group in query_groups
        ]
        offline = accelerator.run_windowed(
            iter(streams), window=window, name=config.name
        )

        served = service.result()
        assert served.flushes == offline.flushes
        assert served.issued == offline.issued
        assert served.batches == offline.batches
        assert served.capacity == window
        for group, group_outcomes in zip(query_groups, outcomes):
            assert [
                outcome.interval for outcome in group_outcomes
            ] == offline_engine.search_batch(group).intervals

    @pytest.mark.parametrize("replayed", [True, False])
    def test_served_batch_prices_nothing(self, serving_stack, replayed):
        """Nothing on the served path reads the search-side cost counters,
        so no served batch prices them, with or without an accelerator
        replaying its flush; the outcomes are the engine's."""
        reference, backend, accelerator = serving_stack
        pricings = []

        class Spied(ExmaBackend):
            def _step_contribution(self, keys, occ):
                pricings.append(keys.size)
                return super()._step_contribution(keys, occ)

        queries = random_queries(reference, count=6, length=14, seed=9)
        engine = QueryEngine(Spied(table=backend.table))
        with QueryService(engine, accelerator if replayed else None) as service:
            outcomes = service.submit(queries).result(timeout=TIMEOUT)
        assert pricings == []
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.interval for outcome in outcomes] == QueryEngine(
            backend
        ).search_batch(queries).intervals

    def test_search_only_service_matches_engine(self, serving_stack):
        reference, backend, _ = serving_stack
        queries = random_queries(reference, count=10, length=14, seed=5)
        with QueryService(QueryEngine(backend)) as service:
            outcomes = service.submit(queries).result(timeout=TIMEOUT)
        assert [outcome.interval for outcome in outcomes] == QueryEngine(
            backend
        ).search_batch(queries).intervals
        assert all(outcome.flush_index == -1 for outcome in outcomes)


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_stop_drains_partial_window(self, serving_stack):
        reference, backend, accelerator = serving_stack
        config = ServingConfig(max_batch=4, max_delay=30.0, window=8)
        service = QueryService(QueryEngine(backend), accelerator, config)
        with service:
            ticket = service.submit(random_queries(reference, count=4, length=16, seed=9))
            service.stop()
        assert ticket.done()
        assert service.stats.flushes == 1  # the forced partial flush
        assert service.result().capacity == 8

    def test_stop_without_drain_cancels_queue(self, serving_stack):
        """stop(drain=False) resolves still-queued tickets immediately with
        structured cancelled outcomes — no waiter ever strands into
        TimeoutError."""
        _, backend, _ = serving_stack
        service = QueryService(
            QueryEngine(backend), config=ServingConfig(queue_capacity=16)
        )
        ticket = service.submit(["ACGT"] * 3)
        service.stop(drain=False)
        assert ticket.done()
        outcomes = ticket.result(timeout=0.01)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.status == "cancelled"
            assert not outcome.ok
            assert outcome.interval is None
            assert "QueryCancelled" in outcome.error
        assert service.stats.cancelled == 3
        assert service.stats.completed == 0

    def test_never_started_service_drains_on_stop(self, serving_stack):
        """stop(drain=True) completes admitted work even if the batcher
        thread never ran."""
        reference, backend, accelerator = serving_stack
        service = QueryService(
            QueryEngine(backend), accelerator, ServingConfig(window=2)
        )
        ticket = service.submit(random_queries(reference, count=5, length=16, seed=3))
        service.stop()
        assert ticket.done()
        assert service.stats.flushes == 1

    def test_empty_submit_resolves_immediately(self, serving_stack):
        _, backend, _ = serving_stack
        service = QueryService(QueryEngine(backend))
        ticket = service.submit([])
        assert ticket.done() and ticket.result(timeout=0) == []
        service.stop()

    def test_per_tenant_completion_counts(self, serving_stack):
        reference, backend, accelerator = serving_stack
        with QueryService(QueryEngine(backend), accelerator) as service:
            tickets = [
                service.submit(random_queries(reference, 3, 14, seed=index), tenant=tenant)
                for index, tenant in enumerate(("alice", "bob"))
            ]
            service.stop()
        for ticket in tickets:
            ticket.result(timeout=TIMEOUT)
        assert service.stats.per_tenant == {"alice": 3, "bob": 3}


# --------------------------------------------------------------------- #
# Bounded stats (regression: unbounded per-query growth)
# --------------------------------------------------------------------- #


class TestBoundedStats:
    def test_latencies_bounded_to_retention(self):
        """Regression: ``latencies`` grew one float per completed query
        forever.  At the bound the record is a trailing window."""
        stats = ServingStats(retention=4)
        for value in range(1, 11):
            stats.latencies.append(float(value))
        assert list(stats.latencies) == [7.0, 8.0, 9.0, 10.0]
        # Percentiles over the retained trailing window.
        assert stats.latency_percentile(50) == 8.0
        assert stats.latency_percentile(100) == 10.0

    def test_percentiles_exact_under_retention(self):
        stats = ServingStats(retention=10)
        for value in range(1, 11):
            stats.latencies.append(float(value))
        # At-or-under the bound nothing is truncated: exact nearest-rank.
        assert stats.latency_percentile(50) == 5.0
        assert stats.latency_percentile(90) == 9.0
        assert stats.latency_percentile(100) == 10.0

    def test_bare_stats_stay_unbounded(self):
        stats = ServingStats()
        assert stats.latencies.maxlen is None

    def test_service_bounds_latencies_and_flushes(self, serving_stack):
        """Counters keep the lifetime totals; the per-item records keep
        only the most recent ``stats_retention`` entries."""
        reference, backend, accelerator = serving_stack
        config = ServingConfig(
            max_batch=1, max_delay=30.0, window=1, stats_retention=3
        )
        service = QueryService(QueryEngine(backend), accelerator, config)
        queries = random_queries(reference, count=5, length=14, seed=41)
        tickets = [service.submit([query]) for query in queries]
        service.stop()  # never started: drains inline, 5 batches, 5 flushes
        for ticket in tickets:
            ticket.result(timeout=TIMEOUT)
        assert service.stats.completed == 5
        assert service.stats.flushes == 5
        assert len(service.stats.latencies) == 3
        assert len(service.result().flushes) == 3
        assert service.stats.latencies.maxlen == 3


# --------------------------------------------------------------------- #
# Saturation: driving the service past its admission bound
# --------------------------------------------------------------------- #


class TestSaturation:
    def test_overload_rejects_then_accepted_work_drains(self, serving_stack):
        """Deterministic saturation: with the batcher not running, offered
        load past ``queue_capacity`` must be rejected with finite positive
        retry_after hints, and every *accepted* ticket must still resolve
        once the service drains."""
        reference, backend, accelerator = serving_stack
        ticks = [0.0]
        config = ServingConfig(queue_capacity=12, max_batch=4, window=2)
        service = QueryService(
            QueryEngine(backend), accelerator, config, clock=lambda: ticks[0]
        )
        queries = random_queries(reference, count=4, length=14, seed=77)
        accepted, rejections = [], []
        for index in range(8):
            ticks[0] = index * 0.001
            try:
                accepted.append(service.submit(queries, tenant=f"t{index % 3}"))
            except AdmissionRejected as rejection:
                rejections.append(rejection)
        # 12 capacity / groups of 4: exactly 3 groups fit, 5 bounce.
        assert len(accepted) == 3 and len(rejections) == 5
        assert service.stats.rejected == 4 * len(rejections)
        for rejection in rejections:
            assert math.isfinite(rejection.retry_after) and rejection.retry_after > 0
            assert rejection.queued == 12 and rejection.capacity == 12

        # retry_after coherence: once a real batch pace is observed, the
        # hint must cover the backlog at that pace spread over the workers.
        service._observe_service_time(0.25)
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(queries)
        backlog_batches = math.ceil(12 / config.max_batch)
        floor = math.ceil(backlog_batches / config.workers) * 0.25
        assert excinfo.value.retry_after >= floor - 1e-9

        service.stop()  # drain inline
        for ticket in accepted:
            outcomes = ticket.result(timeout=TIMEOUT)
            assert all(outcome.interval is not None for outcome in outcomes)
        assert service.stats.completed == 4 * len(accepted)


# --------------------------------------------------------------------- #
# The worker pool
# --------------------------------------------------------------------- #


class TestWorkerPool:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(workers=0)
        with pytest.raises(ValueError):
            ServingConfig(stats_retention=0)

    def test_engine_clone_shares_backend(self, serving_stack):
        reference, backend, _ = serving_stack
        engine = QueryEngine(backend)
        clone = engine.clone()
        assert clone is not engine and clone.backend is engine.backend
        queries = random_queries(reference, count=6, length=14, seed=13)
        assert clone.search_batch(queries).intervals == engine.search_batch(queries).intervals

    def test_service_spawns_one_worker_per_config(self, serving_stack):
        _, backend, accelerator = serving_stack
        service = QueryService(
            QueryEngine(backend), accelerator, ServingConfig(workers=3)
        )
        workers = service.workers
        assert [worker.index for worker in workers] == [0, 1, 2]
        # Worker 0 keeps the caller's engine; the rest get clones over the
        # same shared backend, each with a private coalescing window.
        assert workers[0].engine is service.engine
        assert all(worker.engine.backend is backend for worker in workers)
        assert len({id(worker.window) for worker in workers}) == 3
        service.stop(drain=False)

    def test_multi_worker_serves_and_stays_fair(self, serving_stack):
        reference, backend, accelerator = serving_stack
        config = ServingConfig(max_batch=4, max_delay=0.002, window=2, workers=2)
        with QueryService(QueryEngine(backend), accelerator, config) as service:
            tickets = [
                service.submit(random_queries(reference, 6, 14, seed=index), tenant=tenant)
                for index, tenant in enumerate(("alice", "bob", "carol"))
            ]
            service.stop()
        outcomes = [ticket.result(timeout=TIMEOUT) for ticket in tickets]
        assert service.stats.per_tenant == {"alice": 6, "bob": 6, "carol": 6}
        assert {
            outcome.worker_index for group in outcomes for outcome in group
        } <= {0, 1}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_partitions_match_run_windowed(self, serving_stack, workers):
        """The PR 6 equivalence pin, extended per worker partition: each
        worker's flush sequence must equal the offline ``run_windowed``
        over the batch streams that worker happened to take, whatever the
        nondeterministic batch-to-worker assignment was."""
        _, backend, _ = serving_stack
        _served_partitions_match_offline(serving_stack, QueryEngine(backend), workers)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sharded_clones_match_run_windowed(self, serving_stack, executor):
        """The same pin over a sharded engine: every batcher worker searches
        on its own clone of a two-shard ``ShardedQueryEngine`` (with its own
        pool), and each worker's flushes still equal the offline serial
        engine's ``run_windowed``."""
        _, backend, _ = serving_stack
        engine = ShardedQueryEngine(backend, shards=2, executor=executor)
        service, partition = _served_partitions_match_offline(serving_stack, engine, workers=2)
        try:
            for worker in service.workers:
                assert isinstance(worker.engine, ShardedQueryEngine)
                assert (worker.engine.effective_shards, worker.engine.executor) == (2, executor)
                if partition.get(worker.index):
                    assert worker.engine.worker_pool is not None  # the split really ran
        finally:
            for worker in service.workers:
                worker.engine.close()

    def test_multi_worker_open_loop_completes_everything(self, serving_stack):
        reference, backend, accelerator = serving_stack
        pool = sample_query_pool(reference, pool_size=32, length=14, seed=0)
        schedule = make_schedule(
            poisson_schedule(rate=300.0, duration=0.2, seed=2),
            pool,
            tenants=3,
            queries_per_arrival=2,
            seed=2,
        )
        config = ServingConfig(max_delay=0.005, window=2, workers=2)
        service = QueryService(QueryEngine(backend), accelerator, config)
        with service:
            result = run_open_loop(service, schedule, result_timeout=TIMEOUT)
        assert result.accepted > 0
        assert service.stats.completed == result.accepted
        p99 = service.stats.latency_percentile(99)
        assert math.isfinite(p99) and p99 > 0


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #


class TestLoadGen:
    def test_poisson_schedule_shape(self):
        offsets = poisson_schedule(rate=200.0, duration=1.0, seed=0)
        assert offsets == sorted(offsets)
        assert all(0 <= offset < 1.0 for offset in offsets)
        # Poisson(200): overwhelmingly within +-50% of the mean count.
        assert 100 <= len(offsets) <= 300
        assert offsets == poisson_schedule(rate=200.0, duration=1.0, seed=0)

    def test_bursty_schedule_concentrates_in_on_windows(self):
        offsets = bursty_schedule(
            rate=200.0, duration=1.0, seed=0, period=0.2, on_fraction=0.25
        )
        assert offsets == sorted(offsets)
        assert all(0 <= offset < 1.0 for offset in offsets)
        # Every arrival lands inside the first quarter of its period.
        assert all((offset % 0.2) <= 0.05 + 1e-9 for offset in offsets)

    def test_zipfian_picks_are_skewed(self):
        picks = zipfian_picks(5000, pool_size=64, s=1.2, seed=0)
        assert picks.min() >= 0 and picks.max() < 64
        top_share = (picks == 0).sum() / picks.size
        assert top_share > 1.5 / 64  # clearly above the uniform share

    def test_make_schedule_round_robins_tenants(self):
        pool = ["AAAA", "CCCC", "GGGG"]
        schedule = make_schedule(
            [0.0, 0.1, 0.2, 0.3], pool, tenants=2, queries_per_arrival=2, seed=0
        )
        assert [arrival.tenant for arrival in schedule] == [
            "tenant-0", "tenant-1", "tenant-0", "tenant-1",
        ]
        assert all(len(arrival.queries) == 2 for arrival in schedule)
        assert all(query in pool for arrival in schedule for query in arrival.queries)

    def test_open_loop_end_to_end(self, serving_stack):
        """A real open-loop run at toy scale: everything accepted must
        complete with finite latencies; offered == accepted + rejected."""
        reference, backend, accelerator = serving_stack
        pool = sample_query_pool(reference, pool_size=32, length=14, seed=0)
        schedule = make_schedule(
            poisson_schedule(rate=300.0, duration=0.2, seed=1),
            pool,
            tenants=2,
            queries_per_arrival=2,
            seed=1,
        )
        service = QueryService(
            QueryEngine(backend), accelerator, ServingConfig(max_delay=0.005, window=2)
        )
        with service:
            result = run_open_loop(service, schedule, result_timeout=TIMEOUT)
        assert result.offered == result.accepted + result.rejected
        assert result.accepted > 0
        assert service.stats.completed == result.accepted
        p99 = service.stats.latency_percentile(99)
        assert math.isfinite(p99) and p99 > 0

    def test_rate_ladder(self):
        from repro.serving import rate_ladder

        assert rate_ladder(100.0, [1, 4, 2]) == [100.0, 200.0, 400.0]
        with pytest.raises(ValueError):
            rate_ladder(0.0, [1])
        with pytest.raises(ValueError):
            rate_ladder(100.0, [])
        with pytest.raises(ValueError):
            rate_ladder(100.0, [1, -2])

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 0) == 1.0
        assert math.isnan(percentile([], 99))
        with pytest.raises(ValueError):
            percentile(values, 101)
