"""Epoch-parallel accelerator replay over a persistent worker pool.

PR 4 made every flush of a windowed stream an *independent scheduling
epoch* — fresh queue/cache/DRAM state per flush — and PR 5 made each
epoch columnar.  That leaves flushes embarrassingly parallel: replaying
flush *i* reads only the accelerator's immutable configuration (table,
index, layout), never state left behind by flush *i-1*.  This module
exploits that by running flush epochs on the same persistent
:class:`~repro.runtime.BackendWorkerPool` the sharded search engine
uses, with the accelerator itself as the pool's payload — so the process
executor ships the table/index/config **once** per worker via the pool
initializer, and each submitted call carries only its flush.

Whole streams fan out inside :meth:`~repro.accel.exma_accelerator
.ExmaAccelerator.run_stream` (``replay_workers=``); :class:`ParallelReplay`
here is the single-flush driver the serving layer shares between its
batcher threads, with the ``pool.submit`` fault probe and gather
timeout.  Either way each epoch result is **field-for-field identical**
to the serial replay (the PR 4/5 exact-equivalence contract extends
unchanged: identical integer/float arithmetic runs per epoch regardless
of which worker runs it).

Scaling notes: with the *process* executor the epochs escape the GIL
outright.  With the *thread* executor the replay scales only as far as
the per-epoch code releases the GIL — the NumPy calls between the
compiled stages.  Every compiled kernel the replay calls (each a
:data:`repro.native.KERNELS` row) runs under ``ctypes.PyDLL`` with the
GIL held, so threads overlap a flush's NumPy stretches, not its
kernels: two replay threads ran 1.09x and 1.15x as fast as the serial
replay on the ``offline-replay`` workload (ROADMAP item AB).
"""

from __future__ import annotations

import os
import time

from .. import runtime
from ..engine.coalesce import RequestStream
from ..faults import SITE_SUBMIT, FaultInjector, InjectedFault
from .exma_accelerator import AcceleratorRunResult, ExmaAccelerator, replay_epoch

__all__ = ["ParallelReplay", "replay_epoch"]


def _exit_worker(*_args) -> None:  # pragma: no cover - runs in a pool worker
    """Pool dispatch target of an injected *kill* fault: take this
    process-pool worker down hard, breaking the executor."""
    os._exit(17)


class ParallelReplay(runtime.PoolOwner):
    """A persistent flush-replay pool bound to one accelerator.

    Owns a :class:`~repro.runtime.BackendWorkerPool` whose payload is the
    accelerator (:class:`~repro.runtime.PoolOwner`: created on the first
    flush, reused for every later one, closable as a context manager) and
    offloads single epochs to it: the serving layer's batcher threads
    each block on their own :meth:`replay_flush`, so concurrent flushes
    from different batchers overlap in the pool.

    Args:
        accelerator: the accelerator every worker replays on (picklable
            for the process executor).
        workers: pool size, honoured verbatim; 1 (the default) replays
            inline.
        executor: ``"thread"`` or ``"process"``.
        faults: optional :class:`~repro.faults.FaultInjector` probed at
            ``pool.submit`` before each pool crossing (chaos testing of
            the degradation ladder; ``None`` — the default — costs the
            fault-free path nothing).
        timeout: default gather timeout (seconds) for pool submissions;
            ``None`` waits indefinitely.  A timed-out or broken pool
            walks :class:`~repro.runtime.BackendWorkerPool`'s ladder:
            rebuilt once, then serial replay with a warn-once — the
            replayed results are identical either way.
    """

    def __init__(
        self,
        accelerator: ExmaAccelerator,
        workers: int = 1,
        executor: str = "thread",
        faults: FaultInjector | None = None,
        timeout: float | None = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 (or None)")
        self._accelerator = accelerator
        self._workers = runtime.check_workers(workers)
        self._executor = runtime.check_executor(executor)
        self._faults = faults
        self._timeout = timeout

    @property
    def workers(self) -> int:
        """Replay-worker count."""
        return self._workers

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial in-process replay."""
        return self._pool is not None and self._pool.degraded

    def _replay_pool(self) -> runtime.BackendWorkerPool:
        return self._pool_for(self._accelerator, self._executor, self._workers)

    def _inject_submit_fault(self) -> None:
        """Probe the ``pool.submit`` injection site before a pool crossing.

        A *kill* fault takes down a live process-pool worker with
        ``os._exit`` (breaking the executor so the caller's degradation
        ladder engages); on a thread pool — where a worker cannot be
        killed — it degrades to a ``raise`` on the submitting side.
        """
        if self._faults is None:
            return
        spec = self._faults.decide(SITE_SUBMIT)
        if spec is None:
            return
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "kill" and self._workers > 1 and self._executor == "process":
            pool = self._replay_pool()
            if not pool.degraded:
                try:
                    pool.submit(_exit_worker, None)
                except Exception:  # noqa: BLE001 - pool already broken
                    # A previous kill already broke the executor and no
                    # call observed it yet: the submit that follows this
                    # probe will, and walks the degradation ladder.
                    pass
            return
        raise InjectedFault(SITE_SUBMIT, self._faults.probes[SITE_SUBMIT] - 1)

    def replay_flush(
        self,
        flushed: RequestStream,
        name: str = "EXMA",
    ) -> AcceleratorRunResult:
        """Replay one flush epoch on a pool worker.

        The epoch always crosses to a worker — even though a lone flush
        gains nothing by itself, concurrent callers (the serving batcher
        threads) overlap in the pool, and with the process executor the
        replay leaves the GIL of the submitting process — except at
        ``workers == 1``, where the pool runs it inline and no executor
        exists.  A broken or wedged pool is absorbed by the rebuild-once
        / serial-fallback ladder (:meth:`~repro.runtime.BackendWorkerPool
        .run_one`), so the caller always gets the field-for-field
        identical epoch result.
        """
        self._inject_submit_fault()
        return self._replay_pool().run_one(
            replay_epoch, flushed, name, timeout=self._timeout
        )
