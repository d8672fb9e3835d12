"""Batcher workers: the serving layer's scale-out unit.

PR 6's service ran everything through **one** batcher thread over one
engine and one coalescing window, so the whole pipeline — dynamic batch
formation, lockstep search, cross-batch merge, flush replay — was serial
no matter how many cores the host had.  :class:`BatcherWorker` is the
unit that scales that out (the work-queue/result-queue worker shape of
the lumos ``ASICQuad.Worker`` model): ``ServingConfig.workers`` of them
drain the *shared* :class:`~repro.serving.service.TenantQueues` under the
service lock, and each one owns

* its **own engine** — a :meth:`~repro.engine.engine.QueryEngine.clone`
  over the shared read-only backend, so lockstep searches of different
  batches run truly concurrently;
* its **own coalescing window** — consecutive batches taken by the same
  worker merge across that worker's window, and every flush is replayed
  via :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.replay_flush`
  as an independent scheduling epoch (the PR 4 contract), so a worker's
  flush sequence is field-for-field identical to the offline
  :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_windowed`
  path over the batches that worker happened to take — the single-worker
  equivalence pin holds per worker partition (``tests/test_serving.py``).

The worker is also the serving layer's **failure domain**.  Every
pending the worker takes off the queue is *owned* until its ticket
resolves, and the recovery ladder guarantees it resolves no matter what:

* a search exception **bisects** the batch — halves are re-searched
  independently until the poisoned query is isolated and fails alone
  (``SearchFailed``, quarantined), the rest complete;
* a replay exception is retried with capped backoff
  (:meth:`~repro.serving.service.QueryService._replay_with_retry`), then
  the window is **bisected per batch** in degraded-mode replay — each
  batch replays as its own single-batch flush, so a poisoned batch fails
  alone (``ReplayFailed``) while its window-mates still complete;
* anything that escapes the ladder (e.g. an injected
  :class:`~repro.faults.WorkerKilled`) crashes the worker: its owned
  queries resolve as failed, the window resets, and supervision
  (:meth:`~repro.serving.service.QueryService._on_worker_crash`)
  respawns the thread.

Batch formation, completion bookkeeping and the admission queue stay in
:class:`~repro.serving.service.QueryService`; the worker is the engine/
window/replay state plus the loop that drives it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..accel.exma_accelerator import AcceleratorRunResult, WindowedRunResult
from ..engine.window import CoalescingWindow
from ..faults import SITE_LOOP, SITE_SEARCH, WorkerKilled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.coalesce import RequestStream
    from ..engine.engine import QueryEngine
    from .service import QueryService, _Pending

__all__ = ["BatcherWorker"]


class BatcherWorker:
    """One batcher worker: a private engine + coalescing window draining
    the service's shared admission queue.

    Created (and started) by :class:`~repro.serving.service.QueryService`;
    everything shared — queue, stats, completion — goes through the
    service under its lock, everything per-worker (engine, window,
    batches awaiting their flush, flush results) lives here and is only
    touched by this worker's thread.
    """

    __slots__ = (
        "index",
        "engine",
        "window",
        "thread",
        "_service",
        "_in_window",
        "_in_window_streams",
        "_owned",
        "_flushes",
        "_window_batches",
        "_issued",
    )

    def __init__(self, service: "QueryService", index: int, engine: "QueryEngine") -> None:
        self.index = index
        self.engine = engine
        self.window = CoalescingWindow(service.config.window)
        self.thread: threading.Thread | None = None
        self._service = service
        #: Batches searched by this worker, awaiting their window flush —
        #: and, in parallel, each batch's columnar request stream (kept
        #: so a failed window flush can be bisected into per-batch
        #: degraded replays).
        self._in_window: list[list["_Pending"]] = []
        self._in_window_streams: list["RequestStream"] = []
        #: Every pending taken off the queue and not yet resolved.  The
        #: crash ledger: whatever is in here when the worker dies is
        #: failed immediately, so no ticket ever strands.  Only touched
        #: by this worker's thread.
        self._owned: list["_Pending"] = []
        self._flushes: list[AcceleratorRunResult] = []
        self._window_batches = 0
        self._issued = 0

    def start(self) -> None:
        """Start (or restart) this worker's batcher thread."""
        self.thread = threading.Thread(
            target=self.serve_loop,
            name=f"repro-serving-batcher-{self.index}",
            daemon=True,
        )
        self.thread.start()

    @property
    def alive(self) -> bool:
        """Whether this worker's thread is running."""
        return self.thread is not None and self.thread.is_alive()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def serve_loop(self) -> None:
        service = self._service
        try:
            while True:
                service._fire_fault(SITE_LOOP)
                batch = service._next_batch()
                if batch is None:
                    break
                if batch:
                    self._owned.extend(batch)
                    self.run_batch(batch)
                elif self._in_window:
                    # Idle tick with a partially filled coalescing window:
                    # no new batch is coming to top it off, so flush now —
                    # a query's completion must never wait on *future*
                    # traffic.
                    flushed = self.window.flush()
                    if flushed is not None:
                        self.replay(flushed)
            self.finish()
        except BaseException as error:  # noqa: BLE001 - crash containment
            self._abandon_in_flight(error)
            service._on_worker_crash(self, error)

    def run_batch(self, pendings: list["_Pending"]) -> None:
        """Search one dynamic batch and push it through this worker's window.

        The elapsed wall time (search plus any flush replay it triggered)
        feeds the service's EWMA of batch service time, which the
        backpressure ``retry_after`` estimate is based on.  A search
        exception never fails the whole batch outright: the batch is
        bisected (:meth:`_bisect_search_failure`) until the poisoned
        query fails alone.
        """
        service = self._service
        started = service._clock()
        try:
            try:
                service._fire_fault(SITE_SEARCH)
                result = self.engine.search_batch([pending.query for pending in pendings])
            except WorkerKilled:
                raise
            except Exception as error:  # noqa: BLE001 - bisection ladder
                self._bisect_search_failure(pendings, error)
                return
            with service._lock:
                service.stats.searched += len(pendings)
            for pending, interval in zip(pendings, result.intervals):
                pending.interval = interval
            if service._accelerator is None:
                self._resolve_completed(pendings, flush_index=-1)
            else:
                self._in_window.append(pendings)
                self._in_window_streams.append(result.stats.requests)
                flushed = self.window.push(result.stats.requests)
                if flushed is not None:
                    self.replay(flushed)
        finally:
            service._observe_service_time(service._clock() - started)

    def _bisect_search_failure(
        self, pendings: list["_Pending"], error: BaseException
    ) -> None:
        """Quarantine a poisoned query by halving the failed batch.

        A singleton failure is the poisoned query itself: it resolves as
        failed (:class:`~repro.serving.service.SearchFailed`, counted as
        quarantined) and the rest of the original batch — re-searched in
        ever smaller sub-batches — completes normally.  Transient faults
        simply succeed on the re-search.
        """
        from .service import SearchFailed

        if len(pendings) == 1:
            cause = SearchFailed(f"batch search failed: {error}")
            cause.__cause__ = error
            self._resolve_failed(pendings, cause, quarantined=True)
            return
        mid = len(pendings) // 2
        self.run_batch(pendings[:mid])
        self.run_batch(pendings[mid:])

    def replay(self, flushed) -> None:
        """Replay one flushed window — the worker's unit of work.

        Goes through the service's shared :class:`~repro.accel.parallel
        .ParallelReplay`: inline when ``replay_workers == 1``, offloaded
        to the persistent replay pool otherwise (this thread blocks on
        its own flush; flushes from other batcher workers overlap in the
        pool).  Transient replay faults retry with capped backoff; a
        flush that keeps failing falls to :meth:`_degraded_replay`.
        """
        service = self._service
        batches = self._in_window
        streams = self._in_window_streams
        self._in_window = []
        self._in_window_streams = []
        try:
            run = service._replay_with_retry(flushed)
        except WorkerKilled:
            raise
        except Exception as error:  # noqa: BLE001 - degraded-mode ladder
            self._degraded_replay(batches, streams, error)
            return
        self._flushes.append(run)
        self._window_batches += flushed.batches
        self._issued += flushed.issued
        flush_index = service._record_flush(run, flushed)
        self._resolve_completed(
            [pending for batch in batches for pending in batch], flush_index
        )

    def _degraded_replay(
        self,
        batches: list[list["_Pending"]],
        streams: list["RequestStream"],
        error: BaseException,
    ) -> None:
        """Bisect a repeatedly failing window into per-batch flushes.

        Each batch of the dead window replays as its own single-batch
        flush (retries included) — exactly what a ``window=1`` service
        would have run, so a surviving batch's flush result is still an
        honest :meth:`~repro.accel.exma_accelerator.ExmaAccelerator
        .replay_flush` epoch.  Only a batch that *still* fails resolves
        as failed (:class:`~repro.serving.service.ReplayFailed`,
        quarantined); its window-mates complete.
        """
        from .service import ReplayFailed

        service = self._service
        if len(batches) <= 1:
            cause = ReplayFailed(f"flush replay failed: {error}")
            cause.__cause__ = error
            self._resolve_failed(
                [pending for batch in batches for pending in batch],
                cause,
                quarantined=True,
            )
            return
        for pendings, stream in zip(batches, streams):
            single = CoalescingWindow(1).push(stream)
            if single is None:  # pragma: no cover - capacity-1 always flushes
                self._resolve_completed(pendings, flush_index=-1)
                continue
            try:
                run = service._replay_with_retry(single)
            except WorkerKilled:
                raise
            except Exception as inner:  # noqa: BLE001 - quarantine the batch
                cause = ReplayFailed(f"degraded per-batch replay failed: {inner}")
                cause.__cause__ = inner
                self._resolve_failed(pendings, cause, quarantined=True)
                continue
            self._flushes.append(run)
            self._window_batches += single.batches
            self._issued += single.issued
            flush_index = service._record_flush(run, single)
            self._resolve_completed(pendings, flush_index)

    def finish(self) -> None:
        """Drain the shared queue and force-flush this worker's partial
        window (the stop path; also run inline for a never-started service)."""
        service = self._service
        while True:
            with service._lock:
                batch = service._take_batch()
            if not batch:
                break
            self._owned.extend(batch)
            self.run_batch(batch)
        final = self.window.flush()
        if final is not None:
            self.replay(final)

    # ------------------------------------------------------------------ #
    # Resolution bookkeeping (the ownership ledger)
    # ------------------------------------------------------------------ #

    def _resolve_completed(self, pendings: list["_Pending"], flush_index: int) -> None:
        self._disown(pendings)
        self._service._complete(pendings, flush_index, worker_index=self.index)

    def _resolve_failed(
        self,
        pendings: list["_Pending"],
        error: BaseException,
        quarantined: bool = False,
    ) -> None:
        self._disown(pendings)
        self._service._fail(
            pendings, error, worker_index=self.index, quarantined=quarantined
        )

    def _disown(self, pendings: list["_Pending"]) -> None:
        if not self._owned:
            return
        resolved = set(map(id, pendings))
        self._owned = [p for p in self._owned if id(p) not in resolved]

    def _abandon_in_flight(self, error: BaseException) -> None:
        """Crash epilogue: fail everything this worker still owns.

        Resets the window and ownership ledger so a respawned thread
        starts clean; the owned pendings' tickets resolve as failed
        right now instead of stranding their waiters.
        """
        abandoned, self._owned = self._owned, []
        self._in_window = []
        self._in_window_streams = []
        self.window = CoalescingWindow(self._service.config.window)
        if abandoned:
            self._service._fail(abandoned, error, worker_index=self.index)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(self) -> WindowedRunResult:
        """This worker's replay record, shaped like
        :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_windowed`'s.

        For the batch partition this worker took, the flushes are
        field-for-field identical to the offline ``run_windowed`` over the
        same batch streams — both run ``replay_flush`` on identical
        merges.  Call only after the worker stopped (or from its thread).
        """
        return WindowedRunResult(
            name=self._service.config.name,
            flushes=list(self._flushes),
            capacity=self.window.capacity,
            batches=self._window_batches,
            issued=self._issued,
        )
