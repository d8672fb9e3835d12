"""Chaos benchmark — availability and tail latency under injected faults.

The serving benchmark (:mod:`repro.experiments.serving`) records what the
always-on stack *sustains*; this harness records what it *survives*.
Each scenario drives the open-loop load generator against a fresh
:class:`~repro.serving.service.QueryService` carrying a seeded
:class:`~repro.faults.FaultPlan` — transient search faults, transient
replay faults, scheduled worker kills, and all of them at once — and
measures the availability ledger the fault-tolerance layer guarantees:

* **zero stranded tickets** — every accepted query resolves to exactly
  one of ``completed`` / ``failed`` / ``cancelled`` (the structured
  :class:`~repro.serving.service.QueryOutcome` states), no waiter ever
  left hanging into ``TimeoutError``;
* **availability** — completed / accepted, which stays high because the
  recovery ladder (retry with backoff → bisection quarantine → worker
  respawn) fails only what is actually poisoned;
* **p99 under faults** — the tail the retries and respawns cost.

The ``fault-free`` scenario doubles as a regression pin: a run with an
*empty* fault plan (the injector threaded everywhere, injecting nothing)
must be field-for-field identical to a run with no injector at all
(``fault_free.identical``), proving the chaos plumbing costs the
production path nothing.  Results land in ``BENCH_chaos.json``; the
record pins the ledger (:func:`record`) and ``scripts/ci_gates.py --gate
'pins=RECORD:*.availability>=0.95'`` adds the availability floor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from ..engine.engine import QueryEngine
from ..faults import SITE_LOOP, SITE_REPLAY, SITE_SEARCH, FaultPlan, FaultSpec
from ..serving import (
    AdmissionRejected,
    QueryService,
    ServingConfig,
    percentile,
    poisson_schedule,
    make_schedule,
)
from .common import DEFAULT_STEP, build_serving_stack
from .record import Record, row_dict

__all__ = [
    "ChaosResult",
    "ChaosRow",
    "format_chaos",
    "record",
    "run_chaos",
]


@dataclass(frozen=True)
class ChaosRow:
    """One chaos scenario: the availability ledger under one fault plan."""

    label: str
    #: Whether the scenario's plan actually contains fault specs.
    faulted: bool
    submitted: int
    accepted: int
    rejected: int
    completed: int
    failed: int
    cancelled: int
    #: Accepted queries that resolved to *no* terminal state — the
    #: number the chaos gate pins to zero.
    stranded: int
    #: completed / accepted (1.0 with nothing accepted).
    availability: float
    p50_ms: float
    p99_ms: float
    #: Recovery-ladder accounting for the run.
    worker_crashes: int
    replay_faults: int
    quarantined: int
    #: Faults the injector actually fired across all sites.
    injected: int
    wall_seconds: float


@dataclass(frozen=True)
class ChaosResult:
    """All scenario rows plus the fault-free identity pin and workload."""

    rows: list[ChaosRow]
    #: Whether the empty-plan run was field-for-field identical to a run
    #: with no injector at all (flush results and query outcomes).
    fault_free_identical: bool
    genome_length: int
    k: int
    rate: float
    duration: float
    fault_rate: float
    fault_seed: int
    tenants: int
    queries_per_arrival: int
    query_length: int
    pool_size: int
    workers: int
    window: int
    max_batch: int
    max_delay: float
    queue_capacity: int
    replay_retries: int


def _scenarios(fault_rate: float, seed: int) -> list[tuple[str, FaultPlan]]:
    """The scenario ladder, mildest to nastiest, all seeded."""
    kill_schedule = (3, 11)
    return [
        ("fault-free", FaultPlan(specs=(), seed=seed)),
        (
            "search-raise",
            FaultPlan(
                specs=(FaultSpec(SITE_SEARCH, "raise", rate=fault_rate),), seed=seed
            ),
        ),
        (
            "replay-raise",
            FaultPlan(
                specs=(FaultSpec(SITE_REPLAY, "raise", rate=fault_rate),), seed=seed
            ),
        ),
        (
            "worker-kill",
            FaultPlan(
                specs=(FaultSpec(SITE_LOOP, "kill", at=kill_schedule),), seed=seed
            ),
        ),
        (
            "combined",
            FaultPlan(
                specs=(
                    FaultSpec(SITE_SEARCH, "raise", rate=fault_rate / 2),
                    FaultSpec(SITE_REPLAY, "raise", rate=fault_rate / 2),
                    FaultSpec(SITE_LOOP, "kill", at=(7,)),
                ),
                seed=seed,
            ),
        ),
    ]


def _drive(service: QueryService, schedule, result_timeout: float) -> dict:
    """Open-loop drive that tolerates failure: never raises on a wedged
    ticket, counts it as stranded instead (the thing the gate pins to 0).

    Mirrors :func:`~repro.serving.loadgen.run_open_loop`, but a chaos run
    exists precisely to observe broken completion behaviour, so the
    driver must survive it to report it.
    """
    clock = time.monotonic
    offered = accepted = rejected = 0
    tickets = []
    start = clock()
    for arrival in schedule:
        delay = start + arrival.offset - clock()
        if delay > 0:
            time.sleep(delay)
        offered += len(arrival.queries)
        try:
            tickets.append(service.submit(arrival.queries, tenant=arrival.tenant))
            accepted += len(arrival.queries)
        except AdmissionRejected:
            rejected += len(arrival.queries)
    service.stop()  # drain: everything admitted must now resolve
    deadline = clock() + result_timeout
    stranded_tickets = sum(
        0 if ticket.wait(max(0.0, deadline - clock())) else 1 for ticket in tickets
    )
    return {
        "offered": offered,
        "accepted": accepted,
        "rejected": rejected,
        "stranded_tickets": stranded_tickets,
        "wall_seconds": clock() - start,
    }


def _fault_free_pin(backend, accelerator, pool, window: int, name: str) -> bool:
    """Prove the injector plumbing is a no-op when it injects nothing.

    Two deterministic drain runs over identical query groups — one with
    no injector, one with an *empty* fault plan threaded through every
    injection point — must produce field-for-field identical flush
    results and query outcomes (interval, status, batch/flush indices).
    """
    groups = [pool[index * 6 : (index + 1) * 6] for index in range(4)]
    base = ServingConfig(
        max_batch=6, max_delay=30.0, window=window, idle_timeout=30.0, name=name
    )

    def drain(config: ServingConfig):
        service = QueryService(QueryEngine(backend), accelerator, config)
        tickets = [service.submit(group) for group in groups]
        service.stop()  # never-started: drains inline, deterministically
        outcomes = [ticket.result(timeout=60.0) for ticket in tickets]
        keyed = [
            (o.query, o.interval, o.status, o.error, o.batch_index, o.flush_index)
            for group_outcomes in outcomes
            for o in group_outcomes
        ]
        return service.result(), keyed

    clean_result, clean_outcomes = drain(base)
    probed_result, probed_outcomes = drain(
        replace(base, faults=FaultPlan(specs=(), seed=0))
    )
    return (
        clean_result.flushes == probed_result.flushes
        and clean_result.issued == probed_result.issued
        and clean_result.batches == probed_result.batches
        and clean_outcomes == probed_outcomes
    )


def run_chaos(
    genome_length: int = 20_000,
    seed: int = 0,
    rate: float = 400.0,
    duration: float = 0.5,
    fault_rate: float = 0.2,
    tenants: int = 3,
    queries_per_arrival: int = 2,
    query_length: int = 24,
    pool_size: int = 256,
    zipf_s: float = 1.1,
    k: int = DEFAULT_STEP,
    max_batch: int = 32,
    max_delay: float = 0.005,
    window: int = 2,
    queue_capacity: int = 2048,
    workers: int = 2,
    replay_retries: int = 2,
    result_timeout: float = 60.0,
) -> ChaosResult:
    """Run the chaos scenario ladder against one shared index/accelerator.

    One fresh service per scenario (the injector state must not leak
    across rows); the arrival schedule is identical across scenarios, so
    the rows differ only in the injected faults.  ``fault_rate`` is the
    per-probe trigger probability of the transient-fault scenarios; the
    worker-kill scenario uses a fixed probe schedule instead so the
    respawn path is exercised deterministically.
    """
    backend, accelerator, pool = build_serving_stack(
        genome_length, seed, k, query_length, pool_size
    )
    schedule = make_schedule(
        poisson_schedule(rate, duration, seed=seed),
        pool,
        tenants=tenants,
        queries_per_arrival=queries_per_arrival,
        zipf_s=zipf_s,
        seed=seed,
    )

    rows = []
    for label, plan in _scenarios(fault_rate, seed):
        config = ServingConfig(
            max_batch=max_batch,
            max_delay=max_delay,
            queue_capacity=queue_capacity,
            window=window,
            workers=workers,
            replay_retries=replay_retries,
            faults=plan,
            name=f"EXMA-chaos-{label}",
        )
        service = QueryService(QueryEngine(backend), accelerator, config)
        service.start()
        drive = _drive(service, schedule, result_timeout)
        stats = service.stats
        resolved = stats.completed + stats.failed + stats.cancelled
        stranded = max(0, drive["accepted"] - resolved)
        latencies_ms = [latency * 1e3 for latency in stats.latencies]
        injector = service.faults
        rows.append(
            ChaosRow(
                label=label,
                faulted=bool(plan.specs),
                submitted=drive["offered"],
                accepted=drive["accepted"],
                rejected=drive["rejected"],
                completed=stats.completed,
                failed=stats.failed,
                cancelled=stats.cancelled,
                stranded=stranded,
                availability=(
                    stats.completed / drive["accepted"] if drive["accepted"] else 1.0
                ),
                p50_ms=percentile(latencies_ms, 50.0),
                p99_ms=percentile(latencies_ms, 99.0),
                worker_crashes=stats.worker_crashes,
                replay_faults=stats.replay_faults,
                quarantined=stats.quarantined,
                injected=injector.total_injected if injector is not None else 0,
                wall_seconds=drive["wall_seconds"],
            )
        )

    fault_free_identical = _fault_free_pin(
        backend, accelerator, pool, window, name="EXMA-chaos-pin"
    )

    return ChaosResult(
        rows=rows,
        fault_free_identical=fault_free_identical,
        genome_length=genome_length,
        k=DEFAULT_STEP if k is None else k,
        rate=rate,
        duration=duration,
        fault_rate=fault_rate,
        fault_seed=seed,
        tenants=tenants,
        queries_per_arrival=queries_per_arrival,
        query_length=query_length,
        pool_size=pool_size,
        workers=workers,
        window=window,
        max_batch=max_batch,
        max_delay=max_delay,
        queue_capacity=queue_capacity,
        replay_retries=replay_retries,
    )


def format_chaos(result: ChaosResult) -> str:
    """Render the chaos table."""
    lines = [
        "Chaos - availability under injected faults "
        f"(human {result.genome_length:,} bp, k={result.k}, "
        f"{result.rate:.0f} arrivals/s x {result.queries_per_arrival} queries "
        f"for {result.duration:.2f}s, fault rate {result.fault_rate:.0%}, "
        f"{result.workers} worker(s), W={result.window}, "
        f"{result.replay_retries} replay retries)"
    ]
    lines.append(
        f"{'scenario':>12s} {'accept':>7s} {'done':>6s} {'fail':>5s} {'canc':>5s} "
        f"{'strand':>6s} {'avail':>7s} {'inject':>6s} {'crash':>5s} {'quar':>5s} "
        f"{'p50 ms':>7s} {'p99 ms':>7s}"
    )
    for row in result.rows:
        lines.append(
            f"{row.label:>12s} {row.accepted:7d} {row.completed:6d} {row.failed:5d} "
            f"{row.cancelled:5d} {row.stranded:6d} {row.availability:7.2%} "
            f"{row.injected:6d} {row.worker_crashes:5d} {row.quarantined:5d} "
            f"{row.p50_ms:7.2f} {row.p99_ms:7.2f}"
        )
    lines.append(
        "fault-free pin: "
        + ("identical to clean run" if result.fault_free_identical else "DIVERGED")
    )
    return "\n".join(lines)


def record(result: ChaosResult) -> Record:
    """``BENCH_chaos.json``: the scenario ledger plus the fault-free pin."""
    workload = row_dict(result)
    identical = workload.pop("fault_free_identical")
    rows = [
        row_dict(
            row, digits={"availability": 6, "p50_ms": 4, "p99_ms": 4, "wall_seconds": 6}
        )
        for row in result.rows
    ]
    clean = [row for row in rows if not row["faulted"]]
    faulted = [row for row in rows if row["faulted"]]
    headlines = [
        ("fault_free.identical", identical, "bool"),
        # The control scenarios lost nothing and injected nothing.
        (
            "fault_free.clean",
            all(
                row["failed"] == row["cancelled"] == row["injected"] == 0
                and row["availability"] == 1.0
                for row in clean
            ),
            "bool",
        ),
        # A control and a faulted scenario ran, and every faulted one fired.
        (
            "scenarios.cover_faulted_and_clean",
            bool(clean and faulted) and all(row["injected"] > 0 for row in faulted),
            "bool",
        ),
    ]
    for row in rows:
        label = row["label"]
        headlines.append((f"{label}.availability", row["availability"], "higher"))
        headlines.append((f"{label}.stranded_zero", row["stranded"] == 0, "bool"))
        resolved = row["completed"] + row["failed"] + row["cancelled"]
        balanced = 0 < row["accepted"] == resolved and math.isfinite(row["availability"])
        headlines.append((f"{label}.ledger_balanced", balanced, "bool"))
    return Record(
        benchmark="chaos",
        workload=workload,
        headlines=headlines,
        rows=rows,
        sections={"fault_free": {"identical": identical}},
    )
