"""The runtime plane: which workers run a piece of work, and what
happens when they fail.

Sharded search, epoch-parallel replay, the DSE sweep and the serving
layer all fan independent work items across host workers, and all of
them promise the same thing: *how* the host executes never changes *what*
the model computes.  This module is the single home of that policy, so
every consumer resolves it the same way and exactly once:

* :func:`check_workers` / :func:`check_executor`, the one validation of
  an explicit worker count or executor kind, and :func:`resolve_workers`,
  the one hardware clamp (used by the adaptive ``QueryEngine``);
* :class:`BackendWorkerPool`, the persistent thread/process pool with
  its rebuild-once → serial-fallback ladder, and :class:`PoolOwner`, the
  lazy create/reuse/swap/close lifecycle every pool holder mixes in;
* :func:`host_block`, what a benchmark record says about the host and
  configuration that produced it.

A parallel path runs only when an explicit argument asks for it: every
default is serial, and no environment variable changes one.

It is a leaf: standard library only, nothing from ``repro``.
"""

from __future__ import annotations

import operator
import os
import threading
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Iterable, TypeVar

__all__ = [
    "ENV_VARIABLES",
    "EXECUTORS",
    "PURE_PYTHON_ENV",
    "BackendWorkerPool",
    "PoolOwner",
    "available_parallelism",
    "check_executor",
    "check_workers",
    "env_flag",
    "host_block",
    "resolve_workers",
]

R = TypeVar("R")

#: Supported executor kinds.
EXECUTORS = ("thread", "process")

#: When truthy, the replay's LRU caches and DRAM channels and the MTL
#: training epoch run their Python/NumPy specifications even where the
#: compiled library is cached (:mod:`repro.native`), and each MTL leaf is
#: fitted by its own ``np.polyfit`` instead of one stacked solve per
#: sample count.
PURE_PYTHON_ENV = "REPRO_PURE_PYTHON"

ENV_VARIABLES = (PURE_PYTHON_ENV,)


def env_flag(variable: str) -> bool:
    """Whether the on/off toggle *variable* is set truthy."""
    return os.environ.get(variable, "").strip().lower() in ("1", "true", "yes", "on")


def available_parallelism() -> int:
    """CPUs actually available to this process (affinity/cgroup aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------- #
# Validation and the hardware clamp
# --------------------------------------------------------------------- #


def check_executor(executor: str) -> str:
    """Return *executor* if it is a supported kind, else raise."""
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}")
    return executor


def check_workers(count: int, what: str = "workers", *, minimum: int = 1) -> int:
    """Return *count* as an ``int`` if it is an integer >= *minimum* (a
    positive worker count by default), else raise naming the knob
    (*what*).  Bools and non-integral numbers are refused, never
    truncated."""
    try:
        value = None if isinstance(count, bool) else operator.index(count)
    except TypeError:
        value = None
    if value is None or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {count!r}")
    return value


def resolve_workers(requested: int, *, bound: bool = False, what: str = "workers") -> int:
    """The worker count a piece of work actually runs with.

    Two policies, one rule each:

    * ``bound=False`` — **verbatim**: run exactly the split that was asked
      for (``ShardedQueryEngine``, ``replay_workers=`` — what the
      equivalence suites and forced benchmark rows rely on);
    * ``bound=True`` — **upper bound**: clamp to the CPUs available
      (``QueryEngine``), because splitting beyond the hardware buys no
      parallelism and still pays the split/merge overhead.
    """
    count = check_workers(requested, what)
    if bound and count > 1:
        count = min(count, available_parallelism())
    return count


def host_block() -> dict:
    """What a benchmark record says about the host that produced it.

    Spliced (``**host_block()``) into every ``BENCH_*.json`` writer, so
    the records agree on the key names: CPU counts (``available_cpus`` is
    affinity/cgroup-aware — the number the clamp uses) and every
    ``REPRO_*`` toggle that was set (blank counts as unset).  The record
    writer adds whether the compiled DRAM recurrence ran, which only
    ``repro.hw`` knows.
    """
    return {
        "host_cpus": os.cpu_count(),
        "available_cpus": available_parallelism(),
        "env": {
            name: os.environ[name]
            for name in ENV_VARIABLES
            if os.environ.get(name, "").strip()
        },
    }


# --------------------------------------------------------------------- #
# Persistent worker pool
# --------------------------------------------------------------------- #

#: The payload installed in a process-pool worker by the pool initializer.
#: Shipping it once per worker (instead of pickling it into every
#: submitted call) is what makes process workers affordable on
#: multi-100 kbp references.
_WORKER_PAYLOAD: object = None


def _init_worker(payload: object) -> None:
    """Process-pool initializer: install the shared payload once."""
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _call_worker(fn: Callable, args: tuple, item: object) -> object:
    """Run *fn* against the worker-resident payload (process executor)."""
    return fn(_WORKER_PAYLOAD, *args, item)


#: Failures that indict the *pool*, not the submitted work: a broken
#: executor (e.g. a process worker died mid-call) or a gather timeout (a
#: worker wedged past the caller's deadline).  Exceptions raised *by* the
#: submitted function are never in this set — they propagate to the
#: caller untouched, because retrying them on a fresh pool would just
#: re-raise.
_POOL_FAILURES = (BrokenExecutor, FuturesTimeoutError, TimeoutError)


class BackendWorkerPool:
    """A long-lived worker pool bound to one payload.

    The payload is whatever every work item needs — a search backend, an
    accelerator, a DSE workload.  Thread workers share it in-process;
    process workers receive it exactly once via the pool initializer and
    keep it (including any lazily built caches) for the pool's lifetime,
    so submitted calls carry only their item.  The executor is created
    lazily on the first call that crosses to it and reused afterwards; a
    pool of size 1 runs :meth:`map_shards` and :meth:`run_one` inline and
    never creates one.  Usable as a context manager; ``shutdown`` is
    idempotent and a fresh executor is created transparently if the
    instance is used again afterwards.

    Args:
        payload: the object every worker computes against (picklable for
            the process executor).
        executor: ``"thread"`` or ``"process"``.
        max_workers: pool size.
    """

    def __init__(self, payload: object, executor: str = "thread", max_workers: int = 1) -> None:
        self._payload = payload
        self._kind = check_executor(executor)
        self._max_workers = check_workers(max_workers, "max_workers")
        self._pool: Executor | None = None
        #: Serialises executor creation: concurrent first submits (the
        #: serving batcher threads) must not each build one.
        self._create_lock = threading.Lock()
        #: Degradation ladder state: one rebuild is allowed per pool
        #: lifetime; the second pool failure flips ``degraded`` and every
        #: later call runs inline (serial, in-process) with a warn-once.
        self._rebuilt = False
        self._degraded = False

    @property
    def payload(self) -> object:
        """The object the workers are bound to."""
        return self._payload

    @property
    def kind(self) -> str:
        """Executor kind (``"thread"`` or ``"process"``)."""
        return self._kind

    @property
    def max_workers(self) -> int:
        """Configured pool size."""
        return self._max_workers

    @property
    def active(self) -> bool:
        """Whether the underlying executor has been created (and not shut
        down)."""
        return self._pool is not None

    @property
    def rebuilt(self) -> bool:
        """Whether the pool has spent its one rebuild after a failure."""
        return self._rebuilt

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial in-process calls.

        Set after a *second* pool failure (broken executor or gather
        timeout): the pool was rebuilt once already, so further rebuilds
        are presumed futile and every subsequent :meth:`map_shards` /
        :meth:`run_one` runs inline.  Results are unchanged — serial and
        pooled execution are exact-equivalent by construction — only the
        parallelism is lost.
        """
        return self._degraded

    def _note_pool_failure(self, error: BaseException) -> None:
        """Advance the degradation ladder after a pool-level failure.

        First failure: tear the executor down and spend the one rebuild
        (the next submit lazily recreates it).  Second failure, ever:
        flip to degraded — all later calls run serial in-process — and
        warn exactly once per pool.
        """
        self.shutdown(wait=False)
        if not self._rebuilt:
            self._rebuilt = True
            return
        if not self._degraded:
            self._degraded = True
            warnings.warn(
                f"{self._kind} worker pool failed twice "
                f"({type(error).__name__}: {error}); falling back to serial "
                f"in-process execution for the rest of this pool's lifetime",
                RuntimeWarning,
                stacklevel=4,
            )

    def _ladder(self, pooled: Callable[[], R], inline: Callable[[], R]) -> R:
        """Run *pooled*, walking the ladder on pool-level failures:
        rebuild once and retry, then degrade to *inline* for good."""
        for _ in range(2):
            if self._degraded:
                break
            try:
                return pooled()
            except _POOL_FAILURES as error:
                self._note_pool_failure(error)
        return inline()

    def map_shards(
        self, fn: Callable, items: Iterable, *args, timeout: float | None = None
    ) -> list:
        """Apply ``fn(payload, *args, item)`` to every item, in order.

        *fn* must be a module-level function (picklable by reference).
        Thread workers call it with the shared payload; process workers
        look the payload up in the worker global installed by the pool
        initializer, so only ``(fn, args, item)`` crosses the pipe.  A
        pool of size 1 consumes *items* lazily, one at a time, inline; a
        single item also runs inline, skipping the pool.

        Pool-level failures (a broken executor, a worker exceeding
        *timeout*) walk the degradation ladder — rebuild once, then fall
        back to serial in-process execution with a warn-once — so a dead
        worker pool degrades throughput instead of the result.
        Exceptions raised by *fn* itself always propagate unchanged.
        """

        def inline() -> list:
            return [fn(self._payload, *args, item) for item in items]

        if self._max_workers == 1:
            return inline()
        items = list(items)
        if len(items) <= 1:
            return inline()

        def pooled() -> list:
            futures = [self.submit(fn, item, *args) for item in items]
            return [future.result(timeout) for future in futures]

        return self._ladder(pooled, inline)

    def run_one(self, fn: Callable, item, *args, timeout: float | None = None):
        """Run ``fn(payload, *args, item)`` on a pool worker and wait.

        Like ``submit(...).result()`` but with the same ladder as
        :meth:`map_shards` (and an optional gather *timeout*), so a
        broken pool costs the caller parallelism, never the result.
        Unlike :meth:`map_shards` a lone item still crosses to a worker
        — concurrent callers overlap in the pool, and process workers
        take the call off the submitting process's GIL — unless the pool
        has size 1, where it runs inline.
        """

        def inline():
            return fn(self._payload, *args, item)

        if self._max_workers == 1:
            return inline()
        return self._ladder(lambda: self.submit(fn, item, *args).result(timeout), inline)

    def submit(self, fn: Callable, item, *args) -> Future:
        """Schedule ``fn(payload, *args, item)`` on the executor (created
        on demand, at any pool size) and return the bare future — no
        ladder, no inline path."""
        with self._create_lock:
            pool = self._pool
            if pool is None and self._kind == "thread":
                pool = self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
            elif pool is None:
                pool = self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(self._payload,),
                )
        if self._kind == "thread":
            return pool.submit(fn, self._payload, *args, item)
        return pool.submit(_call_worker, fn, args, item)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the underlying executor down (no-op when never created)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "BackendWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.shutdown(wait=False)
        except Exception:
            pass


class PoolOwner:
    """Mixin: owns one lazily created persistent :class:`BackendWorkerPool`.

    The single implementation of the lifecycle every pool holder (the
    engines, the accelerator, the replay driver) follows: the pool is created on first use, reused across calls,
    swapped when the payload, executor kind or worker count it is asked
    for changes, and released by :meth:`close`, context-manager exit or
    garbage collection (the pool shuts itself down when dropped).
    """

    _pool: BackendWorkerPool | None = None

    @property
    def worker_pool(self) -> BackendWorkerPool | None:
        """The owned pool (``None`` until first use, or after
        :meth:`close`)."""
        return self._pool

    def _pool_for(self, payload: object, executor: str, max_workers: int) -> BackendWorkerPool:
        """The owned pool, replaced first if it does not match.  The
        payload check matters most for process workers, which hold
        whatever payload their pool initializer installed."""
        pool = self._pool
        if pool is not None and (
            pool.payload is not payload
            or pool.kind != executor
            or pool.max_workers != max_workers
        ):
            pool.shutdown(wait=False)
            pool = None
        if pool is None:
            pool = self._pool = BackendWorkerPool(payload, executor, max_workers)
        return pool

    def close(self) -> None:
        """Shut the owned pool down (idempotent).  The owner stays
        usable: the next pooled call creates a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
