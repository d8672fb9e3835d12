"""The unified batched query engine.

:class:`QueryEngine` is the one front door for exact-match search: it owns
a :class:`~repro.engine.backends.SearchBackend` and exposes the batch
lifecycle the rest of the repository builds on —

1. **submit** a batch of queries (:meth:`QueryEngine.search_batch`);
2. the backend advances every live query's ``(low, high)`` interval in
   lockstep, one multi-symbol step per iteration;
3. each step's ``(kmer, pos)`` Occ requests are **coalesced** across the
   batch, so duplicates are resolved once (the paper's DRAM-side merge);
4. the coalesced request stream and counters come back as
   :class:`~repro.engine.coalesce.BatchStats`, ready for the ``hw/``
   accelerator model to replay.

Single-query calls are thin wrappers over batches of one, so there is
exactly one search implementation per backend.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

from .. import runtime
from ..exma.search import OccRequest
from ..index.fmindex import Interval
from .backends import SearchBackend, create_backend
from .coalesce import BatchStats

__all__ = ["BatchResult", "QueryEngine"]


@dataclass(frozen=True)
class BatchResult:
    """Intervals plus counters for one submitted batch."""

    intervals: list[Interval]
    stats: BatchStats

    @property
    def counts(self) -> list[int]:
        """Occurrence count per query."""
        return [interval.count for interval in self.intervals]

    @property
    def matched(self) -> int:
        """Queries with at least one occurrence."""
        return sum(1 for interval in self.intervals if not interval.empty)


class QueryEngine(runtime.PoolOwner):
    """Batched exact-match search through a pluggable backend.

    Args:
        backend: a prebuilt backend, or ``None`` to build one by name.
        name: registry name used when *backend* is omitted.
        reference: reference string used when *backend* is omitted.
        shards: split batches into up to this many shards and search them
            in a persistent worker pool (see :mod:`repro.engine.sharded`);
            results are identical to the serial path.  The count is an
            *upper bound*: the engine clamps it to the CPUs actually
            available (``min(shards, CPUs)``), because oversubscribing a
            host buys no parallelism and still pays the split/merge
            overhead — use :class:`~repro.engine.sharded.ShardedQueryEngine`
            to force the full split.  Defaults to 1 (serial).
        executor: ``"thread"`` or ``"process"`` worker pool for the
            sharded path.
        **kwargs: forwarded to the backend factory.
    """

    #: Whether this engine clamps its shard count to the hardware; the
    #: explicit :class:`~repro.engine.sharded.ShardedQueryEngine` opts out.
    _adaptive = True

    def __init__(
        self,
        backend: SearchBackend | None = None,
        *,
        name: str | None = None,
        reference: str | None = None,
        shards: int = 1,
        executor: str = "thread",
        **kwargs,
    ) -> None:
        if backend is None:
            if name is None or reference is None:
                raise ValueError("provide a backend, or a registry name and reference")
            backend = create_backend(name, reference, **kwargs)
        self._backend = backend
        self._shards = runtime.check_workers(shards, "shards")
        self._effective_shards = runtime.resolve_workers(
            self._shards, bound=self._adaptive, what="shards"
        )
        self._executor = runtime.check_executor(executor)

    @classmethod
    def from_reference(cls, reference: str, name: str = "fmindex", **kwargs) -> "QueryEngine":
        """Build an engine over *reference* using a registered backend."""
        return cls(name=name, reference=reference, **kwargs)

    def clone(self) -> "QueryEngine":
        """A new engine of the same type over the same backend.

        Backends are read-only after construction (their lazy caches are
        idempotent), so clones can search concurrently from separate
        threads — which is how the serving layer gives every batcher
        worker its own engine (and persistent worker pool) without
        duplicating the index.  The clone inherits this engine's resolved
        ``shards``/``executor`` settings but never its pool.
        """
        twin = copy.copy(self)
        twin._pool = None
        return twin

    @property
    def backend(self) -> SearchBackend:
        """The backend answering this engine's batches."""
        return self._backend

    @property
    def shards(self) -> int:
        """Configured shard count (an upper bound for the adaptive
        engine)."""
        return self._shards

    @property
    def effective_shards(self) -> int:
        """The shard count batches actually run with, resolved once at
        construction (:func:`repro.runtime.resolve_workers`): the adaptive
        engine clamps to the available CPUs,
        :class:`~repro.engine.sharded.ShardedQueryEngine` never clamps an
        explicit count."""
        return self._effective_shards

    @property
    def executor(self) -> str:
        """Executor kind of the sharded path."""
        return self._executor

    # ------------------------------------------------------------------ #
    # Batch lifecycle
    # ------------------------------------------------------------------ #

    def search_batch(self, queries: Sequence[str], priced: bool = True) -> BatchResult:
        """Search a batch of queries in lockstep, with request coalescing.

        Dispatches to the sharded parallel path when the engine resolved
        more than one shard; intervals and stats are identical either
        way.  ``priced=False`` skips the per-request cost accounting of
        the lockstep steps (see :attr:`BatchStats.priced`) — for callers
        that only want the intervals and the request stream.
        """
        shards = self._effective_shards
        if shards > 1:
            from .sharded import run_sharded_batch

            return run_sharded_batch(
                self._backend,
                queries,
                shards,
                pool=self._pool_for(self._backend, self._executor, shards),
                priced=priced,
            )
        stats = BatchStats(priced=priced)
        intervals = self._backend.search_batch(list(queries), stats)
        return BatchResult(intervals=intervals, stats=stats)

    def find_batch(
        self, queries: Sequence[str], limit: int | None = None
    ) -> tuple[list[list[int]], BatchStats]:
        """Occurrence positions of every query plus the batch counters."""
        result = self.search_batch(queries)
        positions = [
            self._backend.locate(interval, limit=limit) for interval in result.intervals
        ]
        return positions, result.stats

    def count_batch(self, queries: Sequence[str]) -> list[int]:
        """Occurrence count of every query."""
        return self.search_batch(queries).counts

    def request_stream(
        self, queries: Sequence[str]
    ) -> tuple[list[OccRequest], BatchStats]:
        """The coalesced (k-mer, pos) request stream of a batch.

        Mirrors :meth:`repro.exma.search.ExmaSearch.request_stream` but
        post-coalescing: the stream the accelerator's scheduling queue
        receives after the DRAM-side merge.
        """
        result = self.search_batch(queries)
        return result.stats.requests, result.stats

    # ------------------------------------------------------------------ #
    # Single-query wrappers
    # ------------------------------------------------------------------ #

    def search(self, query: str) -> Interval:
        """Single-query search: a batch of one."""
        return self.search_batch([query]).intervals[0]

    def find(self, query: str, limit: int | None = None) -> list[int]:
        """All reference positions where *query* occurs (sorted)."""
        return self.find_batch([query], limit=limit)[0][0]

    def occurrence_count(self, query: str) -> int:
        """Number of occurrences of *query* in the reference."""
        return self.search(query).count
