"""The always-on serving layer: continuous ingestion with dynamic batching.

Everything below PR 5 is a *batch harness*: a caller materialises its
query batches up front and pushes them through ``QueryEngine`` /
``run_windowed``.  A service facing millions of users sees the opposite
shape — queries trickle in continuously from many concurrent clients, and
the system must *form* the batches the engine stack is fast on.
:class:`QueryService` closes that gap:

* **Admission** — clients :meth:`~QueryService.submit` query groups into a
  bounded multi-tenant queue (:class:`TenantQueues`).  When the backlog
  would exceed ``queue_capacity`` the submit is rejected immediately with
  :class:`AdmissionRejected` carrying a ``retry_after`` estimate — explicit
  backpressure instead of unbounded memory growth.
* **Dynamic batching** — a single batcher thread forms batches under a
  deadline-aware admission window: the window opens when the oldest
  queued query arrived and closes after ``max_delay`` seconds or as soon
  as ``max_batch`` queries are queued, whichever comes first.  Small
  traffic pays at most ``max_delay`` of batching latency; heavy traffic
  always runs full batches.
* **Fairness** — batch slots are filled round-robin across tenant queues
  (one query per tenant per turn, resuming after the last tenant served),
  so a flooding tenant cannot starve the others; each tenant still drains
  FIFO internally.
* **Execution** — each batch runs through the wrapped
  :class:`~repro.engine.engine.QueryEngine` (which brings the persistent
  sharded :class:`~repro.runtime.BackendWorkerPool` substrate along
  for free), its columnar request stream feeds a
  :class:`~repro.engine.window.CoalescingWindow`, and every flushed window
  is replayed on the accelerator model via
  :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.replay_flush` — the
  *same* unit of work :meth:`~repro.accel.exma_accelerator.ExmaAccelerator
  .run_stream` uses, so for a given batch partitioning the served flush
  results are field-for-field identical to the offline
  :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_windowed` path
  (pinned by ``tests/test_serving.py``).

Completion is per flush: a query's :class:`QueryOutcome` resolves once the
flush containing its batch has been replayed, and its latency spans
arrival → flush completion — the number the serving benchmark reports as
p50/p99 (:mod:`repro.experiments.serving`).
"""

from __future__ import annotations

import math
import operator
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from ..accel.exma_accelerator import (
    AcceleratorRunResult,
    ExmaAccelerator,
    WindowedRunResult,
)
from ..accel.parallel import ParallelReplay
from ..engine.engine import QueryEngine
from ..faults import SITE_REPLAY, FaultInjector, FaultPlan, WorkerKilled
from ..index.fmindex import Interval
from ..runtime import check_executor, check_workers
from .workers import BatcherWorker

__all__ = [
    "AdmissionRejected",
    "QueryCancelled",
    "QueryFailed",
    "QueryOutcome",
    "QueryService",
    "ReplayFailed",
    "SearchFailed",
    "ServingConfig",
    "ServingStats",
    "TenantQueues",
    "Ticket",
    "percentile",
]


#: Smoothing factor of the batch-service-time EWMA feeding
#: :meth:`QueryService._retry_after` — recent batches dominate (the
#: backlog drains at today's pace, not the lifetime average) without a
#: single slow batch whipsawing the estimate.
_EWMA_ALPHA = 0.2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 100]).

    Returns ``nan`` for an empty sequence — downstream gates check
    ``math.isfinite``, so "no latencies recorded" can never masquerade as
    a great tail.
    """
    if not values:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class QueryFailed(RuntimeError):
    """Base of the structured failure taxonomy.

    Every query a :class:`QueryService` accepts resolves to exactly one
    of three terminal states — ``completed``, ``failed`` or ``cancelled``
    (the zero-stranded-tickets contract) — and a non-completed
    :class:`QueryOutcome` carries ``str(error)`` of the ``QueryFailed``
    subclass (or original exception) that terminated it.
    """


class SearchFailed(QueryFailed):
    """The lockstep batch search raised; bisection isolated this query."""


class ReplayFailed(QueryFailed):
    """The flush replay failed after retries and degraded per-batch replay."""


class QueryCancelled(QueryFailed):
    """The service stopped without draining while the query was queued."""


class AdmissionRejected(RuntimeError):
    """A submit bounced off the full admission queue (backpressure).

    Attributes:
        retry_after: seconds the client should wait before retrying —
            the time the batcher needs to drain the current backlog at
            one ``max_batch`` batch per admission window.
        queued: queries queued at rejection time.
        capacity: the configured admission-queue bound.
    """

    def __init__(self, retry_after: float, queued: int, capacity: int) -> None:
        super().__init__(
            f"admission queue full ({queued}/{capacity} queries); "
            f"retry after {retry_after:.3f}s"
        )
        self.retry_after = retry_after
        self.queued = queued
        self.capacity = capacity


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the dynamic batcher and admission queue.

    Args:
        max_batch: most queries one dynamic batch may carry; a full queue
            closes the admission window early.
        max_delay: the admission window — the longest a queued query may
            wait for co-batched company before its batch is formed anyway.
        queue_capacity: bound on queries queued across all tenants;
            submits beyond it are rejected with a ``retry_after``.
        window: :class:`~repro.engine.window.CoalescingWindow` capacity W —
            how many consecutive dynamic batches share one cross-batch
            merge and flush replay.
        idle_timeout: how long the idle batcher sleeps between checks when
            nothing is queued (an admission window that times out with no
            queued queries simply reopens; see ``ServingStats
            .idle_timeouts``).  An idle tick also force-flushes a
            partially filled coalescing window, so under a traffic lull a
            query waits at most ~``idle_timeout`` for its flush instead
            of indefinitely for ``window`` batches' worth of company.
        workers: batcher workers draining the shared admission queue
            concurrently (:class:`~repro.serving.workers.BatcherWorker`).
            Each worker owns a cloned engine and its own coalescing
            window; batches are still formed one at a time under the
            service lock, so fairness and the per-partition offline
            equivalence are unchanged.
        replay_workers: size of the shared epoch-replay pool
            (:class:`~repro.accel.parallel.ParallelReplay`) the batcher
            workers hand their flushes to.  At 1 (the default) each
            batcher replays its flush inline, exactly as before; above 1
            every flush is offloaded to the pool — the batcher blocks on
            its own flush, but flushes from different batchers overlap,
            and with the process executor the replay escapes the GIL.
            Flush results are unchanged either way (the exact-equivalence
            contract).
        replay_executor: executor kind of the replay pool (``"thread"``
            or ``"process"``).
        stats_retention: how many completed-query latencies (and flush
            results) the service retains, oldest-first truncation beyond.
            Percentiles and :meth:`QueryService.result` are exact while
            the service lifetime stays under the bound — any benchmark
            run — and cover the most recent ``stats_retention``
            completions/flushes on an always-on service that outlives it;
            counters (``completed``, ``flushes``, ...) are never
            truncated.
        replay_retries: extra flush-replay attempts after a transient
            replay failure, with capped exponential backoff
            (``retry_backoff``) between attempts.  A flush that exhausts
            its retries is bisected per batch (degraded-mode replay) so a
            poisoned batch fails alone.
        retry_backoff: base sleep before replay retry *n* (doubled per
            attempt, capped at ``0.25`` s); ``0`` retries immediately.
        replay_timeout: gather timeout (seconds) on offloaded flush
            replays — a wedged replay-pool worker trips the pool's
            rebuild-once/serial-fallback ladder instead of blocking a
            batcher forever.  ``None`` (default) waits indefinitely.
        faults: optional :class:`~repro.faults.FaultPlan` of injected
            faults, evaluated by a seeded per-service
            :class:`~repro.faults.FaultInjector` (chaos testing).
            ``None`` disables injection entirely; the fault-free path is
            field-for-field identical either way.
        name: label stamped on the accelerator run results.
    """

    max_batch: int = 64
    max_delay: float = 0.005
    queue_capacity: int = 4096
    window: int = 1
    idle_timeout: float = 0.05
    workers: int = 1
    replay_workers: int = 1
    replay_executor: str = "thread"
    stats_retention: int = 200_000
    replay_retries: int = 2
    retry_backoff: float = 0.005
    replay_timeout: float | None = None
    faults: FaultPlan | None = None
    name: str = "EXMA-serving"

    def __post_init__(self) -> None:
        counts = ("max_batch", "queue_capacity", "window", "workers", "replay_workers",
                  "stats_retention")
        for name in counts:
            check_workers(getattr(self, name), name)
        if self.max_delay <= 0:
            raise ValueError("max_delay must be > 0")
        if self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0")
        check_executor(self.replay_executor)
        # The one count that may be 0: check_workers' integer test, floor 0.
        retries = self.replay_retries
        try:
            valid = not isinstance(retries, bool) and operator.index(retries) >= 0
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"replay_retries must be an integer >= 0, got {retries!r}")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.replay_timeout is not None and self.replay_timeout <= 0:
            raise ValueError("replay_timeout must be > 0 (or None)")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan (or None)")


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """One served query: its search result plus the serving timeline.

    Every accepted query resolves to exactly one outcome, successful or
    not: ``status`` is ``"completed"`` (interval valid), ``"failed"``
    (the query's batch or flush died after the recovery ladder —
    ``error`` names the :class:`QueryFailed` cause) or ``"cancelled"``
    (``stop(drain=False)`` dropped it while queued).  A ticket therefore
    always resolves; it never strands a waiter in ``TimeoutError``.
    """

    query: str
    tenant: str
    #: The search result; ``None`` unless ``status == "completed"``
    #: (except search-complete queries failed later in replay, which keep
    #: the interval their search produced).
    interval: Interval | None
    #: Clock reading when the query was admitted.
    arrival: float
    #: Clock reading when its flush finished replaying.
    completion: float
    #: Index of the dynamic batch that searched the query.
    batch_index: int
    #: Index of the flush that replayed it (-1 when the service runs
    #: without an accelerator and completes queries at search time).
    flush_index: int
    #: Index of the batcher worker that served the query (-1 when
    #: unknown, e.g. outcomes constructed outside the service).
    worker_index: int = -1
    #: Terminal state: ``"completed"``, ``"failed"`` or ``"cancelled"``.
    status: str = "completed"
    #: ``str`` of the failure cause (``None`` when completed).
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the query completed successfully."""
        return self.status == "completed"

    @property
    def latency(self) -> float:
        """Arrival-to-completion seconds (the benchmark's p50/p99 unit)."""
        return self.completion - self.arrival


class Ticket:
    """Completion handle for one submitted query group.

    Queries of one group may land in different dynamic batches (and
    flushes); the ticket resolves once *all* of them have completed, and
    :meth:`result` returns their outcomes in submission order.
    """

    __slots__ = ("_event", "_lock", "_outcomes", "_remaining")

    def __init__(self, count: int) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._outcomes: list[QueryOutcome | None] = [None] * count
        self._remaining = count
        if count == 0:
            self._event.set()

    def _complete(self, slot: int, outcome: QueryOutcome) -> None:
        with self._lock:
            self._outcomes[slot] = outcome
            self._remaining -= 1
            if self._remaining == 0:
                self._event.set()

    def done(self) -> bool:
        """Whether every query of the group has completed."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the group completes; False on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> list[QueryOutcome]:
        """The group's outcomes, in submission order.

        Raises:
            TimeoutError: the group did not complete within *timeout*.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query group not complete ({self._remaining} of "
                f"{len(self._outcomes)} queries pending)"
            )
        return list(self._outcomes)  # type: ignore[arg-type]


class _Pending:
    """One admitted query waiting for (or riding through) a batch."""

    __slots__ = ("query", "tenant", "ticket", "slot", "arrival", "interval", "batch_index")

    def __init__(self, query: str, tenant: str, ticket: Ticket, slot: int, arrival: float) -> None:
        self.query = query
        self.tenant = tenant
        self.ticket = ticket
        self.slot = slot
        self.arrival = arrival
        self.interval: Interval | None = None
        self.batch_index = -1


class TenantQueues:
    """Bounded multi-tenant FIFO queues with round-robin fair draining.

    Admission is bounded globally (``capacity`` queries across all
    tenants).  :meth:`take` fills a batch one query per tenant per turn,
    rotating through the ring of *active* tenants from just after the
    tenant served last — the classic round-robin guarantee: with T active
    tenants, each is due at least ``floor(max_batch / T)`` slots of every
    batch, regardless of how hard any single tenant floods.  Within a
    tenant, order stays FIFO.

    A tenant lives in the ring only while it has queries queued: the
    moment its queue drains it is **evicted** — queue and ring slot both
    freed — and a later submit re-enters it at the tail of the ring (the
    position a continuously-active tenant would be in right after being
    served, so eviction never buys anyone extra turns).  An always-on
    service facing millions of one-shot tenants therefore keeps the ring
    at O(active tenants), not O(all tenants ever seen), and every
    ``take()``/``oldest_arrival()`` walk is over active tenants only
    (pinned by ``tests/test_serving.py``).

    Not thread-safe on its own; :class:`QueryService` serialises access
    under its lock.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Per-tenant FIFO; a tenant is present iff its queue is non-empty.
        self._queues: dict[str, deque[_Pending]] = {}
        #: Active tenants in service order; ``take`` rotates left-to-right.
        self._ring: deque[str] = deque()
        self._queued = 0

    @property
    def queued(self) -> int:
        """Queries currently admitted and not yet taken."""
        return self._queued

    @property
    def active(self) -> int:
        """Tenants with at least one query queued (the ring size)."""
        return len(self._ring)

    @property
    def tenants(self) -> list[str]:
        """Active tenants, in ring (next-served-first) order."""
        return list(self._ring)

    def admit(self, pendings: Sequence[_Pending]) -> None:
        """Enqueue a group (caller enforced capacity; one tenant per call)."""
        for pending in pendings:
            queue = self._queues.get(pending.tenant)
            if queue is None:
                queue = self._queues[pending.tenant] = deque()
                self._ring.append(pending.tenant)
            queue.append(pending)
        self._queued += len(pendings)

    def has_room(self, count: int) -> bool:
        """Whether *count* more queries fit under the capacity bound."""
        return self._queued + count <= self.capacity

    def oldest_arrival(self) -> float | None:
        """Arrival time of the longest-waiting query (None when empty)."""
        heads = [queue[0].arrival for queue in self._queues.values()]
        return min(heads) if heads else None

    def take(self, limit: int) -> list[_Pending]:
        """Dequeue up to *limit* queries, round-robin across tenants.

        Rotates the active ring: the served tenant goes to the tail when
        it still has queries queued, and is evicted when the take drained
        it — either way the next take starts with the tenant after the
        one served last.
        """
        batch: list[_Pending] = []
        while len(batch) < limit and self._ring:
            tenant = self._ring.popleft()
            queue = self._queues[tenant]
            batch.append(queue.popleft())
            if queue:
                self._ring.append(tenant)
            else:
                del self._queues[tenant]
        self._queued -= len(batch)
        return batch

    def clear(self) -> list[_Pending]:
        """Drop everything queued (``stop(drain=False)``); returns the drops."""
        dropped = [pending for queue in self._queues.values() for pending in queue]
        self._queues.clear()
        self._ring.clear()
        self._queued = 0
        return dropped


class LatencyRing:
    """The last ``maxlen`` appended floats (all of them when ``None``).

    A ``deque(maxlen=...)`` in everything :class:`ServingStats` uses of
    one — ``append``, ``len``, oldest-first iteration, ``.maxlen`` — but
    stored as a packed float64 array: 8 bytes per retained latency where a
    deque of boxed floats costs four times that, on a record that grows
    with every served query.
    """

    __slots__ = ("maxlen", "_values", "_oldest")

    def __init__(self, values: Iterable[float] = (), maxlen: int | None = None) -> None:
        self.maxlen = maxlen
        self._values = array("d")
        #: Slot of the oldest entry once the ring is full (0 until then).
        self._oldest = 0
        for value in values:
            self.append(value)

    def append(self, value: float) -> None:
        if self.maxlen is None or len(self._values) < self.maxlen:
            self._values.append(value)
        else:
            self._values[self._oldest] = value
            self._oldest = (self._oldest + 1) % self.maxlen

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        yield from self._values[self._oldest :]
        yield from self._values[: self._oldest]


@dataclass
class ServingStats:
    """Counters the service accumulates over its lifetime.

    Mutated only by the submit path and the batcher threads under the
    service lock; read freely (python ints/floats, worst case a stale
    snapshot).

    The scalar counters grow for the whole service lifetime, but the
    per-query ``latencies`` record is **bounded**: only the most recent
    ``retention`` completions are kept (a :class:`LatencyRing`), so an
    always-on service does not leak one float per query forever.
    Percentiles are exact while ``completed <= retention`` — every
    benchmark run — and cover the trailing ``retention``-completion
    window beyond it (documented truncation, pinned by
    ``tests/test_serving.py``).
    """

    #: Client submit calls accepted / queries admitted through them.
    submissions: int = 0
    accepted: int = 0
    #: Queries bounced by backpressure.
    rejected: int = 0
    #: Queries searched / completed (outcome delivered).
    searched: int = 0
    completed: int = 0
    #: Dynamic batches formed and flush replays executed.
    batches: int = 0
    flushes: int = 0
    #: Requests entering / surviving the cross-batch merge.
    issued_requests: int = 0
    scheduled_requests: int = 0
    #: Query batches merged into flushed windows (mirrors
    #: :attr:`~repro.accel.exma_accelerator.WindowedRunResult.batches`).
    window_batches: int = 0
    #: Admission windows that timed out with no queued queries.
    idle_timeouts: int = 0
    #: Queries resolved with a failed / cancelled outcome (all three
    #: terminal states sum to every accepted query — the ledger the
    #: chaos gate checks).
    failed: int = 0
    cancelled: int = 0
    #: Batcher-worker crashes absorbed by supervision (each respawned
    #: the worker unless the service was stopping).
    worker_crashes: int = 0
    #: Flush-replay attempts that raised (each either retried with
    #: backoff or escalated to degraded per-batch replay).
    replay_faults: int = 0
    #: Queries failed in isolation after bisection (a poisoned query
    #: quarantined at search time, or a poisoned batch in degraded
    #: replay) — the rest of their batch/window completed.
    quarantined: int = 0
    #: Arrival→completion seconds per completed query, in completion
    #: order; bounded to the most recent :attr:`retention` completions.
    latencies: LatencyRing = field(default_factory=LatencyRing)
    #: Completed queries per tenant.
    per_tenant: dict[str, int] = field(default_factory=dict)
    #: Bound on :attr:`latencies` (``None`` = unbounded, for bare
    #: ``ServingStats()`` uses; the service always passes its config's
    #: ``stats_retention``).
    retention: int | None = None

    def __post_init__(self) -> None:
        self.latencies = LatencyRing(self.latencies, maxlen=self.retention)

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over the retained window
        (nan with nothing completed)."""
        return percentile(list(self.latencies), q)


class QueryService(object):
    """A long-lived serving loop over a query engine and accelerator model.

    Args:
        engine: the :class:`~repro.engine.engine.QueryEngine` dynamic
            batches run through (sharded engines bring their persistent
            worker pool along).  With ``config.workers > 1`` this engine
            serves worker 0 and each further batcher worker gets a
            :meth:`~repro.engine.engine.QueryEngine.clone` over the same
            read-only backend.
        accelerator: the accelerator model replaying each flushed window
            (immutable after construction, so all workers share it);
            ``None`` serves search-only and completes queries at search
            time.
        config: batching/backpressure knobs (:class:`ServingConfig`).
        clock: monotonic time source (injectable for tests).

    Use as a context manager, or :meth:`start` / :meth:`stop` explicitly.
    ``stop(drain=True)`` (the default) finishes everything admitted —
    remaining queue drained into final batches, every worker's partial
    coalescing window force-flushed — so every accepted ticket resolves.
    """

    def __init__(
        self,
        engine: QueryEngine,
        accelerator: ExmaAccelerator | None = None,
        config: ServingConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._engine = engine
        self._accelerator = accelerator
        self._config = config or ServingConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queues = TenantQueues(self._config.queue_capacity)
        #: Flush results in completion order, most recent
        #: ``stats_retention`` retained (the bounded-stats contract).
        self._flushes: "deque[AcceleratorRunResult]" = deque(
            maxlen=self._config.stats_retention
        )
        #: Fault-injection runtime, built once from the (frozen) plan;
        #: ``None`` — the production default — keeps every injection
        #: point a no-op branch.
        self._faults = (
            FaultInjector(self._config.faults)
            if self._config.faults is not None
            else None
        )
        #: Shared epoch-replay driver all batcher workers hand their
        #: flushes to; at ``replay_workers == 1`` it replays inline (no
        #: executor exists), so the single-worker path is unchanged.
        self._replay = (
            ParallelReplay(
                accelerator,
                workers=self._config.replay_workers,
                executor=self._config.replay_executor,
                faults=self._faults,
                timeout=self._config.replay_timeout,
            )
            if accelerator is not None
            else None
        )
        self._workers = [
            BatcherWorker(self, index, engine if index == 0 else engine.clone())
            for index in range(self._config.workers)
        ]
        self._stopping = False
        #: EWMA of observed batch service seconds (search + flush share);
        #: ``None`` until the first batch completes.
        self._service_ewma: float | None = None
        self.stats = ServingStats(retention=self._config.stats_retention)

    @property
    def config(self) -> ServingConfig:
        """The service's batching/backpressure knobs."""
        return self._config

    @property
    def engine(self) -> QueryEngine:
        """The wrapped query engine (worker 0's; others use clones)."""
        return self._engine

    @property
    def workers(self) -> list[BatcherWorker]:
        """The batcher workers, in index order."""
        return list(self._workers)

    @property
    def replay(self) -> ParallelReplay | None:
        """The shared epoch-replay driver (None when serving search-only)."""
        return self._replay

    @property
    def faults(self) -> FaultInjector | None:
        """The fault-injection runtime (None without a configured plan)."""
        return self._faults

    @property
    def running(self) -> bool:
        """Whether any batcher thread is alive."""
        return any(worker.alive for worker in self._workers)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryService":
        """Start the batcher workers (idempotent while running)."""
        with self._lock:
            if self._stopping:
                raise RuntimeError("service has been stopped")
            for worker in self._workers:
                if not worker.alive:
                    worker.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the batcher workers.

        With ``drain=True`` everything already admitted is batched,
        searched, flushed and completed first; with ``drain=False`` still-
        queued queries resolve *immediately* with a structured
        ``cancelled`` outcome (queries already searched and riding a
        partial coalescing window still complete — their work is done but
        for the flush).  Either way every accepted ticket resolves; a
        ``result()`` waiter is never stranded into ``TimeoutError``.
        """
        with self._wakeup:
            self._stopping = True
            dropped = [] if drain else self._queues.clear()
            self._wakeup.notify_all()
            threads = [worker.thread for worker in self._workers if worker.thread]
        if dropped:
            self._fail(
                dropped,
                QueryCancelled("service stopped without draining"),
                status="cancelled",
            )
        if threads:
            deadline = None if timeout is None else time.monotonic() + timeout
            for thread in threads:
                thread.join(
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
        elif drain:
            # Never-started service: drain inline so submitted work still
            # completes deterministically.
            self._drain_inline()
        if drain and not self.running and self._queues.queued:
            # A worker crashed while we were stopping and left queued
            # work behind (supervision does not respawn past this point):
            # sweep it inline so the zero-stranded contract holds.
            self._drain_inline()
        if self._replay is not None:
            self._replay.close()

    def _drain_inline(self) -> None:
        """Drain the queue on the caller's thread via worker 0, resolving
        everything as failed if even the inline sweep dies."""
        worker = self._workers[0]
        try:
            worker.finish()
        except BaseException as error:  # noqa: BLE001 - last-resort sweep
            worker._abandon_in_flight(error)
            with self._lock:
                leftovers = self._queues.clear()
            if leftovers:
                self._fail(leftovers, error)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #

    def submit(self, queries: Iterable[str], tenant: str = "default") -> Ticket:
        """Admit a query group for *tenant*; returns its :class:`Ticket`.

        Raises:
            AdmissionRejected: the bounded queue cannot hold the group;
                the exception's ``retry_after`` estimates when the backlog
                will have drained.
            RuntimeError: the service has been stopped — unconditionally,
                including for an empty group (an empty submit must not
                masquerade as accepted work on a dead service).
        """
        group = [str(query) for query in queries]
        ticket = Ticket(len(group))
        now = self._clock()
        with self._wakeup:
            if self._stopping:
                raise RuntimeError("service has been stopped")
            if not group:
                return ticket
            if not self._queues.has_room(len(group)):
                self.stats.rejected += len(group)
                raise AdmissionRejected(
                    retry_after=self._retry_after(),
                    queued=self._queues.queued,
                    capacity=self._config.queue_capacity,
                )
            self._queues.admit(
                [
                    _Pending(query, tenant, ticket, slot, now)
                    for slot, query in enumerate(group)
                ]
            )
            self.stats.submissions += 1
            self.stats.accepted += len(group)
            self._wakeup.notify_all()
        return ticket

    def _retry_after(self) -> float:
        """Backlog drain estimate for bounced clients.

        Batches outstanding × the per-batch pace, spread over the
        workers draining concurrently.  The pace is the admission window
        until batches have actually been observed, then never *less* than
        the EWMA of measured batch service time (search + flush-replay
        share): charging only the window, as PR 6 did, underestimates the
        drain whenever service time exceeds ``max_delay`` — which is
        exactly when clients are being bounced — and sends them straight
        back into a still-full queue.
        """
        backlog_batches = math.ceil(
            max(1, self._queues.queued) / self._config.max_batch
        )
        pace = self._config.max_delay
        if self._service_ewma is not None:
            pace = max(pace, self._service_ewma)
        return math.ceil(backlog_batches / self._config.workers) * pace

    def _observe_service_time(self, seconds: float) -> None:
        """Fold one batch's measured service time into the EWMA."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = seconds
            else:
                self._service_ewma += _EWMA_ALPHA * (seconds - self._service_ewma)

    @property
    def service_time_ewma(self) -> float | None:
        """EWMA of observed batch service seconds (None before any batch)."""
        return self._service_ewma

    # ------------------------------------------------------------------ #
    # Batch formation (shared by all workers; see workers.py for the loop)
    # ------------------------------------------------------------------ #

    def _take_batch(self) -> list[_Pending]:
        """Take one dynamic batch off the queues (caller holds the lock),
        stamping the global formation-order batch index."""
        batch = self._queues.take(self._config.max_batch)
        if batch:
            batch_index = self.stats.batches
            self.stats.batches += 1
            for pending in batch:
                pending.batch_index = batch_index
        return batch

    def _next_batch(self) -> list[_Pending] | None:
        """Form the next dynamic batch.

        Returns ``None`` to shut the loop down, ``[]`` when an admission
        window timed out with nothing queued (the idle tick — the loop
        simply reopens the window), else the batch.
        """
        config = self._config
        with self._wakeup:
            while self._queues.queued == 0:
                if self._stopping:
                    return None
                if not self._wakeup.wait(config.idle_timeout):
                    self.stats.idle_timeouts += 1
                    return []
            # The admission window is anchored at the oldest queued
            # query's arrival: nobody waits longer than max_delay for a
            # batch to form, and a full batch never waits at all.
            oldest = self._queues.oldest_arrival()
            deadline = (oldest if oldest is not None else self._clock()) + config.max_delay
            while self._queues.queued < config.max_batch and not self._stopping:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._wakeup.wait(remaining)
            return self._take_batch()

    def _fire_fault(self, site: str) -> None:
        """Probe one fault-injection site (no-op without a configured plan)."""
        if self._faults is not None:
            self._faults.fire(site)

    def _replay_flush(self, flushed) -> AcceleratorRunResult:
        """Replay one flushed window through the shared replay driver.

        The single replay entry point of every batcher worker: inline at
        ``replay_workers == 1``, offloaded to the persistent pool above —
        either way the result is field-for-field what
        :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.replay_flush`
        returns, so the offline-equivalence pin is untouched.
        """
        return self._replay.replay_flush(flushed, name=self._config.name)

    def _replay_with_retry(self, flushed) -> AcceleratorRunResult:
        """Replay a flush, absorbing transient faults with capped backoff.

        Up to ``1 + replay_retries`` attempts; each failed attempt counts
        into ``stats.replay_faults`` and sleeps ``retry_backoff * 2**n``
        (capped at 0.25 s) before the next.  :class:`~repro.faults
        .WorkerKilled` is never retried — a killed worker must crash to
        its supervisor, not limp on.  Exhausted retries raise
        :class:`ReplayFailed`; the worker then bisects the window into
        degraded per-batch replays so a poisoned batch fails alone.
        """
        attempts = 1 + self._config.replay_retries
        last: BaseException | None = None
        for attempt in range(attempts):
            try:
                self._fire_fault(SITE_REPLAY)
                return self._replay_flush(flushed)
            except WorkerKilled:
                raise
            except Exception as error:  # noqa: BLE001 - retry ladder
                last = error
                with self._lock:
                    self.stats.replay_faults += 1
                if attempt + 1 < attempts and self._config.retry_backoff > 0:
                    time.sleep(min(self._config.retry_backoff * (2**attempt), 0.25))
        raise ReplayFailed(
            f"flush replay failed after {attempts} attempt(s): {last}"
        ) from last

    def _record_flush(self, run: AcceleratorRunResult, flushed) -> int:
        """Account one replayed flush (called by the worker that ran it);
        returns the flush's global completion-order index."""
        with self._lock:
            flush_index = self.stats.flushes
            self.stats.flushes += 1
            self._flushes.append(run)
            self.stats.issued_requests += flushed.issued
            self.stats.scheduled_requests += flushed.unique
            self.stats.window_batches += flushed.batches
        return flush_index

    def _complete(
        self, pendings: list[_Pending], flush_index: int, worker_index: int = -1
    ) -> None:
        now = self._clock()
        with self._lock:
            for pending in pendings:
                self.stats.latencies.append(now - pending.arrival)
                self.stats.per_tenant[pending.tenant] = (
                    self.stats.per_tenant.get(pending.tenant, 0) + 1
                )
            self.stats.completed += len(pendings)
        for pending in pendings:
            pending.ticket._complete(
                pending.slot,
                QueryOutcome(
                    query=pending.query,
                    tenant=pending.tenant,
                    interval=pending.interval,
                    arrival=pending.arrival,
                    completion=now,
                    batch_index=pending.batch_index,
                    flush_index=flush_index,
                    worker_index=worker_index,
                ),
            )

    def _fail(
        self,
        pendings: list[_Pending],
        error: BaseException,
        worker_index: int = -1,
        status: str = "failed",
        quarantined: bool = False,
    ) -> None:
        """Resolve *pendings* with a structured failed/cancelled outcome.

        The unhappy-path twin of :meth:`_complete`: the tickets resolve
        right now — carrying the failure cause instead of hanging their
        waiters into ``TimeoutError`` — and the failure counters advance.
        Failed/cancelled queries never enter the latency record or the
        per-tenant completion counts; those stay success-only.
        """
        if not pendings:
            return
        now = self._clock()
        message = f"{type(error).__name__}: {error}"
        with self._lock:
            if status == "cancelled":
                self.stats.cancelled += len(pendings)
            else:
                self.stats.failed += len(pendings)
            if quarantined:
                self.stats.quarantined += len(pendings)
        for pending in pendings:
            pending.ticket._complete(
                pending.slot,
                QueryOutcome(
                    query=pending.query,
                    tenant=pending.tenant,
                    interval=pending.interval,
                    arrival=pending.arrival,
                    completion=now,
                    batch_index=pending.batch_index,
                    flush_index=-1,
                    worker_index=worker_index,
                    status=status,
                    error=message,
                ),
            )

    def _on_worker_crash(self, worker: BatcherWorker, error: BaseException) -> None:
        """Supervision: absorb a batcher-worker crash and respawn it.

        Runs on the dying worker's own thread as its last act (the
        worker already resolved its in-flight queries as failed).  The
        crash only takes down its batch: unless the service is stopping,
        a fresh thread picks the same worker state (engine, empty window)
        back up, so queued and future queries keep flowing.
        """
        with self._wakeup:
            self.stats.worker_crashes += 1
            # Respawn under the lock: :meth:`stop` snapshots the worker
            # threads under the same lock, so it either sees the old
            # (dying) thread or the replacement after ``start()`` —
            # never a Thread object that exists but is not yet started
            # (joining one raises RuntimeError).
            if not self._stopping:
                worker.start()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(self) -> WindowedRunResult:
        """The accumulated replay record, shaped exactly like
        :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_windowed`'s.

        For a given partitioning of the served queries into dynamic
        batches, the flushes in here are field-for-field identical to the
        offline path over the same batch streams — both run
        :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.replay_flush`
        on identical :class:`~repro.engine.window.WindowedBatch` merges.
        With multiple workers the flushes appear in completion order
        (interleaved across workers); :meth:`worker_results` gives the
        per-worker sequences the offline equivalence pin extends to.
        """
        with self._lock:
            return WindowedRunResult(
                name=self._config.name,
                flushes=list(self._flushes),
                capacity=self._config.window,
                batches=self.stats.window_batches,
                issued=self.stats.issued_requests,
            )

    def worker_results(self) -> list[WindowedRunResult]:
        """Each worker's replay record, in worker-index order.

        Worker *w*'s record covers exactly the dynamic batches that
        worker took (its partition), in the order it took them — the
        shape :class:`~repro.serving.workers.BatcherWorker.result`
        documents.  Call after :meth:`stop`.
        """
        return [worker.result() for worker in self._workers]
