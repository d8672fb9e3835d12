"""Fault-injection and supervision suite.

Two layers: the registry itself (spec grammar, seeded determinism, the
exact-probe schedule that makes failure edges testable instead of
flaky), and the serving stack under injected faults — transient search
faults absorbed by bisection, poisoned queries quarantined alone, worker
kills respawned by supervision, replay retry/degraded-mode ladders, and
the zero-stranded ledger contract under combined chaos.
"""

from __future__ import annotations

import pytest

from repro.accel.exma_accelerator import ExmaAccelerator
from repro.engine.backends import ExmaBackend
from repro.engine.engine import QueryEngine
from repro.engine.sharded import ShardedQueryEngine
from repro.exma.table import ExmaTable
from repro.faults import (
    FAULT_SITES,
    SITE_LOOP,
    SITE_REPLAY,
    SITE_SEARCH,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerKilled,
    parse_fault_spec,
)
from repro.genome.sequence import random_genome
from repro.serving import QueryService, ServingConfig
from repro.testing import random_queries

TIMEOUT = 60.0


@pytest.fixture(scope="module")
def stack():
    reference = random_genome(1600, seed=7)
    table = ExmaTable(reference, k=4)
    engine = QueryEngine(ExmaBackend(table=table))
    queries = random_queries(reference, count=12, length=16, seed=5)
    return reference, table, engine, queries


def _service(stack, config):
    _, table, engine, _ = stack
    return QueryService(engine, ExmaAccelerator(table, None), config)


def _plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


# --------------------------------------------------------------------- #
# Specs and the CLI grammar
# --------------------------------------------------------------------- #


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nowhere", kind="raise", rate=0.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site=SITE_SEARCH, kind="explode", rate=0.5)
        with pytest.raises(ValueError, match="rate must be in"):
            FaultSpec(site=SITE_SEARCH, kind="raise", rate=1.5)
        with pytest.raises(ValueError, match="rate > 0 or explicit"):
            FaultSpec(site=SITE_SEARCH, kind="raise")
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(site=SITE_SEARCH, kind="raise", at=(-1,))
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site=SITE_SEARCH, kind="delay", rate=0.5, delay_s=-1.0)

    def test_parse_rate_form(self):
        spec = parse_fault_spec("replay.flush:raise:0.2")
        assert spec == FaultSpec(site=SITE_REPLAY, kind="raise", rate=0.2)

    def test_parse_schedule_and_delay_forms(self):
        spec = parse_fault_spec("worker.loop:kill:@3,7")
        assert spec.site == SITE_LOOP and spec.kind == "kill"
        assert spec.at == (3, 7) and spec.rate == 0.0
        delayed = parse_fault_spec("engine.search:delay:0.05:1.5")
        assert delayed.kind == "delay" and delayed.delay_s == 1.5

    def test_parse_rejects_malformed(self):
        for bad in ("replay.flush", "replay.flush:raise", "a:b:c:d:e",
                    "replay.flush:raise:@"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_plan_parse_and_for_site(self):
        plan = FaultPlan.parse(
            ["engine.search:raise:0.1", "replay.flush:kill:@2"], seed=9
        )
        assert plan.seed == 9 and len(plan.specs) == 2
        assert plan.for_site(SITE_REPLAY)[0].at == (2,)
        assert plan.for_site(SITE_LOOP) == ()
        with pytest.raises(TypeError):
            FaultPlan(specs=("not a spec",))


# --------------------------------------------------------------------- #
# The injector runtime
# --------------------------------------------------------------------- #


class TestFaultInjector:
    def test_exact_schedule_fires_exactly_there(self):
        injector = FaultInjector(
            _plan(FaultSpec(site=SITE_SEARCH, kind="raise", at=(2, 5)))
        )
        decisions = [injector.decide(SITE_SEARCH) is not None for _ in range(8)]
        assert decisions == [False, False, True, False, False, True, False, False]
        assert injector.injected[SITE_SEARCH] == 2
        assert injector.probes[SITE_SEARCH] == 8

    def test_rate_stream_is_seed_deterministic(self):
        """Fresh injectors over the same plan replay the same stream."""
        plan = _plan(FaultSpec(site=SITE_REPLAY, kind="raise", rate=0.3), seed=42)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        decisions_a = [a.decide(SITE_REPLAY) is not None for _ in range(64)]
        decisions_b = [b.decide(SITE_REPLAY) is not None for _ in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_sites_draw_independent_streams(self):
        plan = _plan(
            FaultSpec(site=SITE_SEARCH, kind="raise", rate=0.3),
            FaultSpec(site=SITE_REPLAY, kind="raise", rate=0.3),
        )
        solo = FaultInjector(plan)
        replay_alone = [solo.decide(SITE_REPLAY) is not None for _ in range(32)]
        mixed = FaultInjector(plan)
        for _ in range(32):
            mixed.decide(SITE_SEARCH)  # interleaved probes at another site
        replay_mixed = [mixed.decide(SITE_REPLAY) is not None for _ in range(32)]
        assert replay_alone == replay_mixed

    def test_fire_semantics(self):
        injector = FaultInjector(
            _plan(
                FaultSpec(site=SITE_SEARCH, kind="raise", at=(0,)),
                FaultSpec(site=SITE_LOOP, kind="kill", at=(0,)),
                FaultSpec(site=SITE_REPLAY, kind="delay", at=(0,), delay_s=0.0),
            )
        )
        with pytest.raises(InjectedFault) as raised:
            injector.fire(SITE_SEARCH)
        assert raised.value.site == SITE_SEARCH and raised.value.probe == 0
        assert not isinstance(raised.value, WorkerKilled)
        with pytest.raises(WorkerKilled):
            injector.fire(SITE_LOOP)
        injector.fire(SITE_REPLAY)  # delay_s=0: returns, no raise
        injector.fire(SITE_SEARCH)  # probe 1: off schedule, no-op
        assert injector.total_injected == 3

    def test_unknown_site_rejected(self):
        injector = FaultInjector(_plan())
        with pytest.raises(ValueError):
            injector.decide("nowhere")

    def test_empty_plan_never_fires(self):
        injector = FaultInjector(_plan())
        for site in FAULT_SITES:
            for _ in range(16):
                injector.fire(site)
        assert injector.total_injected == 0


# --------------------------------------------------------------------- #
# The serving stack under injected faults
# --------------------------------------------------------------------- #


class _PoisonEngine:
    """An engine whose batches fail whenever the poisoned query rides along."""

    def __init__(self, engine, poison: str):
        self._engine = engine
        self._poison = poison

    def clone(self):
        return _PoisonEngine(self._engine.clone(), self._poison)

    def search_batch(self, queries, **options):
        if self._poison in queries:
            raise ValueError(f"poisoned query {self._poison!r}")
        return self._engine.search_batch(queries, **options)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class TestServingUnderFaults:
    def test_transient_search_fault_absorbed_by_bisection(self, stack):
        """One injected search failure on a multi-query batch: the bisected
        halves re-search clean, so every query still completes."""
        _, _, _, queries = stack
        config = ServingConfig(
            max_batch=16,
            faults=_plan(FaultSpec(site=SITE_SEARCH, kind="raise", at=(0,))),
        )
        service = _service(stack, config)
        ticket = service.submit(queries)
        service.stop()
        outcomes = ticket.result(timeout=TIMEOUT)
        assert all(outcome.ok for outcome in outcomes)
        assert service.stats.completed == len(queries)
        assert service.stats.failed == 0 and service.stats.quarantined == 0
        assert service.faults.total_injected == 1

    def test_poisoned_query_quarantined_alone(self, stack):
        """A query that fails every re-search is bisected down to a
        singleton and fails alone; its batch-mates complete."""
        _, table, engine, queries = stack
        poisoned = _PoisonEngine(engine, "NOTDNA")
        service = QueryService(
            poisoned, ExmaAccelerator(table, None), ServingConfig(max_batch=16)
        )
        group = queries[:5] + ["NOTDNA"] + queries[5:10]
        ticket = service.submit(group)
        service.stop()
        outcomes = ticket.result(timeout=TIMEOUT)
        by_query = {outcome.query: outcome for outcome in outcomes}
        bad = by_query["NOTDNA"]
        assert bad.status == "failed" and not bad.ok
        assert bad.interval is None and "SearchFailed" in bad.error
        for query in group:
            if query != "NOTDNA":
                assert by_query[query].ok
        assert service.stats.quarantined == 1
        assert service.stats.failed == 1
        assert service.stats.completed == len(group) - 1

    def test_failed_ticket_resolves_promptly(self, stack):
        """satellite: result(timeout=) on a failed query returns the failed
        outcome immediately — never a stranded TimeoutError."""
        _, table, engine, _ = stack
        poisoned = _PoisonEngine(engine, "NOTDNA")
        service = QueryService(poisoned, ExmaAccelerator(table, None), ServingConfig())
        ticket = service.submit(["NOTDNA"])
        service.stop()
        (outcome,) = ticket.result(timeout=1.0)
        assert ticket.done()
        assert outcome.status == "failed" and not outcome.ok

    def test_worker_kill_respawns_and_serves_on(self, stack):
        """A kill at the loop's first probe crashes the batcher thread;
        supervision respawns it and the service keeps completing queries."""
        _, _, _, queries = stack
        config = ServingConfig(
            workers=1,
            faults=_plan(FaultSpec(site=SITE_LOOP, kind="kill", at=(0,))),
        )
        service = _service(stack, config)
        with service:
            ticket = service.submit(queries)
            outcomes = ticket.result(timeout=TIMEOUT)
            service.stop()
        assert all(outcome.ok for outcome in outcomes)
        assert service.stats.worker_crashes == 1
        assert service.stats.completed == len(queries)

    def test_kill_mid_batch_fails_only_owned_queries(self, stack):
        """A worker killed at the search probe fails the batch it owns with
        a structured outcome; nothing strands, and the respawned worker
        completes later traffic."""
        _, _, _, queries = stack
        config = ServingConfig(
            workers=1,
            max_batch=16,
            faults=_plan(FaultSpec(site=SITE_SEARCH, kind="kill", at=(0,))),
        )
        service = _service(stack, config)
        with service:
            first = service.submit(queries[:6])
            first_outcomes = first.result(timeout=TIMEOUT)
            second = service.submit(queries[6:])
            second_outcomes = second.result(timeout=TIMEOUT)
            service.stop()
        assert all(outcome.status == "failed" for outcome in first_outcomes)
        assert all("WorkerKilled" in outcome.error for outcome in first_outcomes)
        assert all(outcome.ok for outcome in second_outcomes)
        assert service.stats.worker_crashes == 1
        stats = service.stats
        assert stats.completed + stats.failed + stats.cancelled == stats.accepted

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_kill_with_sharded_engine_strands_nothing(self, stack, executor):
        """The same kill over a two-shard engine, two batcher workers: the
        killed batch fails alone, the respawned worker searches on with the
        serial engine's answers, and the ledger balances."""
        _, table, engine, queries = stack
        sharded = ShardedQueryEngine(engine.backend, shards=2, executor=executor)
        config = ServingConfig(
            workers=2,
            max_batch=16,
            faults=_plan(FaultSpec(site=SITE_SEARCH, kind="kill", at=(0,))),
        )
        service = QueryService(sharded, ExmaAccelerator(table, None), config)
        try:
            with service:
                first = service.submit(queries[:6])
                first_outcomes = first.result(timeout=TIMEOUT)
                second = service.submit(queries[6:])
                second_outcomes = second.result(timeout=TIMEOUT)
                service.stop()
        finally:
            for worker in service.workers:
                worker.engine.close()
        assert first.done() and second.done()
        assert all("WorkerKilled" in outcome.error for outcome in first_outcomes)
        assert [outcome.interval for outcome in second_outcomes] == (
            engine.search_batch(queries[6:]).intervals
        )
        stats = service.stats
        assert stats.worker_crashes == 1
        assert (stats.failed, stats.completed) == (6, len(queries) - 6)
        assert stats.completed + stats.failed + stats.cancelled == stats.accepted

    def test_replay_fault_retried_then_completes(self, stack):
        """One injected replay failure: the capped-backoff retry succeeds,
        so the flush (and every query riding it) completes."""
        _, _, _, queries = stack
        config = ServingConfig(
            max_batch=16,
            faults=_plan(FaultSpec(site=SITE_REPLAY, kind="raise", at=(0,))),
        )
        service = _service(stack, config)
        ticket = service.submit(queries)
        service.stop()
        assert all(outcome.ok for outcome in ticket.result(timeout=TIMEOUT))
        assert service.stats.replay_faults == 1
        assert service.stats.failed == 0

    def test_replay_retries_exhausted_degrades_per_batch(self, stack):
        """A window whose flush fails every retry bisects into per-batch
        degraded replays; the clean batches all complete."""
        _, _, _, queries = stack
        config = ServingConfig(
            max_batch=6,
            window=2,
            replay_retries=2,
            faults=_plan(FaultSpec(site=SITE_REPLAY, kind="raise", at=(0, 1, 2))),
        )
        service = _service(stack, config)
        ticket = service.submit(queries)  # 12 queries -> two 6-query batches
        service.stop()
        assert all(outcome.ok for outcome in ticket.result(timeout=TIMEOUT))
        assert service.stats.replay_faults == 3  # the 3 window-flush attempts
        assert service.stats.failed == 0
        assert service.stats.flushes == 2  # one degraded flush per batch

    def test_replay_poisoned_single_batch_quarantined(self, stack):
        """A single-batch window that still fails after every retry is
        quarantined: its queries resolve failed with ReplayFailed."""
        _, _, _, queries = stack
        config = ServingConfig(
            max_batch=16,
            replay_retries=1,
            faults=_plan(FaultSpec(site=SITE_REPLAY, kind="raise", at=(0, 1))),
        )
        service = _service(stack, config)
        ticket = service.submit(queries)
        service.stop()
        outcomes = ticket.result(timeout=TIMEOUT)
        assert all(outcome.status == "failed" for outcome in outcomes)
        assert all("ReplayFailed" in outcome.error for outcome in outcomes)
        assert service.stats.quarantined == len(queries)
        assert service.stats.replay_faults == 2

    def test_combined_chaos_strands_nothing(self, stack):
        """The ledger contract: under combined search+replay faults every
        accepted query resolves — accepted == completed+failed+cancelled
        and every ticket is done."""
        reference, _, _, _ = stack
        config = ServingConfig(
            max_batch=8,
            workers=2,
            faults=_plan(
                FaultSpec(site=SITE_SEARCH, kind="raise", rate=0.2),
                FaultSpec(site=SITE_REPLAY, kind="raise", rate=0.2),
                FaultSpec(site=SITE_LOOP, kind="kill", at=(5,)),
                seed=3,
            ),
        )
        service = _service(stack, config)
        tickets = []
        with service:
            for index in range(12):
                group = random_queries(reference, count=4, length=14, seed=100 + index)
                tickets.append(service.submit(group, tenant=f"t{index % 3}"))
            for ticket in tickets:
                ticket.result(timeout=TIMEOUT)
            service.stop()
        assert all(ticket.done() for ticket in tickets)
        stats = service.stats
        assert stats.accepted == stats.completed + stats.failed + stats.cancelled
        assert service.faults.total_injected > 0

    def test_empty_plan_matches_no_injector(self, stack):
        """The fault-free pin: an empty FaultPlan must not perturb a single
        outcome field relative to a service with no injector at all."""
        _, _, _, queries = stack

        def outcomes_with(faults):
            service = _service(stack, ServingConfig(max_batch=6, faults=faults))
            ticket = service.submit(queries)
            service.stop()
            return [
                (o.query, o.interval, o.status, o.error, o.batch_index, o.flush_index)
                for o in ticket.result(timeout=TIMEOUT)
            ]

        assert outcomes_with(None) == outcomes_with(FaultPlan(specs=(), seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(replay_retries=-1)
        with pytest.raises(ValueError):
            ServingConfig(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            ServingConfig(replay_timeout=0.0)
        with pytest.raises(TypeError):
            ServingConfig(faults="replay.flush:raise:0.2")
