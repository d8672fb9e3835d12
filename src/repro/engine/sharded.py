"""Sharded parallel execution of the batched query engine.

The lockstep core is embarrassingly parallel across *query* shards: a
query's ``(low, high)`` interval trajectory depends only on the query and
the index, never on which other queries share its batch.  This module
exploits that by splitting a batch into contiguous shards, running each
shard's lockstep search in a long-lived worker pool and merging the
per-shard results back into one :class:`~repro.engine.engine.BatchResult`
that is **byte-identical** to what the serial engine would have produced
— without ever re-running the search or its accounting:

* the ``lows`` / ``highs`` columns are trivially order-preserving
  (contiguous row split + ordered concatenation);
* the shard-decomposable counters (``queries``, ``iterations``,
  ``occ_requests_issued``) are plain sums;
* the coalescing-dependent state is rebuilt by **contribution dedupe**:
  while a shard runs, its :class:`~repro.engine.coalesce.BatchTrace`
  records each step's packed ``(kmer, pos)`` keys together with the
  per-unique-request accounting contributions (binary comparisons, LISA's
  predictions and errors) or, for a step priced on read, its Occ values —
  values that depend only on the request and the index, never on the
  batch.  Lockstep step *t* consumes the same symbol/chunk of every query
  in every shard, so one vectorized ``np.unique`` over the shards' packed
  keys at step *t* recovers exactly the serial batch's unique set — and
  selecting each surviving key's row once re-creates the serial
  accounting.  No ``replay_trace`` pass, no second trip through the
  index; shards price nothing, and the merged steps are priced on read
  with the parent's backend.

This module is the split and the merge only.  *Where* the shards run —
the persistent :class:`~repro.runtime.BackendWorkerPool` an engine owns
(the process pool ships the backend **once** per worker; submitted calls
carry only their shard's two query columns), how many workers it has and what
happens when it fails — is :mod:`repro.runtime`'s business.

The equivalence is locked down by the property-based suite in
``tests/test_sharded.py`` (all six backends, any shard count, both
executors), mirroring how the SPEChpc strong-scaling studies validate
parallel results against the serial baseline.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from .. import runtime
from ..genome.alphabet import QueryBatch
from .backends import SearchBackend
from .coalesce import (
    BatchStats,
    BatchTrace,
    StepContribution,
    StepTrace,
    TailContribution,
)
from .engine import BatchResult, QueryEngine

__all__ = [
    "ShardedQueryEngine",
    "merge_shard_stats",
    "merge_traces",
    "run_sharded_batch",
    "split_shards",
]

T = TypeVar("T")


def split_shards(items: Sequence[T], shards: int) -> list[Sequence[T]]:
    """Split *items* (a :class:`QueryBatch` or a list) into at most
    *shards* contiguous, balanced, non-empty row slices, preserving order.

    Contiguity matters beyond cache locality: it keeps the global
    first-seen order of partial-chunk tails reconstructible from the
    per-shard orders, which the exact stats merge relies on.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    count = min(shards, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    chunks: list[Sequence[T]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _search_shard(
    backend: SearchBackend, batch: QueryBatch
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """One shard's lockstep search, with contribution tracing enabled.

    Nothing is priced here: steps priced on read stay pending in the
    trace, and a process shard's stats pickle without their backend.
    """
    stats = BatchStats(trace=BatchTrace())
    lows, highs = backend.search_batch(batch, stats)
    return lows, highs, stats


def _priced_by(backend: SearchBackend, stats: BatchStats) -> BatchStats:
    """Give steps a shard left pending *backend*'s pricing (a process
    shard's stats arrive without a pricer)."""
    if stats.pending_steps:
        stats.price_with(backend._step_contribution)
    return stats


# --------------------------------------------------------------------- #
# Replay-free stats merge
# --------------------------------------------------------------------- #


def _merge_step(shard_steps: list[StepTrace]) -> StepTrace:
    """Union one lockstep step across shards, deduping its columns.

    One ``np.unique`` over the concatenated packed keys yields both the
    serial unique set (sorted, exactly the order the serial coalescer
    emits) and — through ``return_index`` — the first occurrence of every
    surviving key, which selects its contribution row and Occ value.
    Both depend only on the ``(kmer, pos)`` pair, so *which* shard's row
    survives is irrelevant.  A backend fills the same columns on every
    step of every shard, so a column is either present in all shards or
    in none.
    """
    if len(shard_steps) == 1:
        return shard_steps[0]
    keys = np.concatenate([step.keys for step in shard_steps])
    unique_keys, first = np.unique(keys, return_index=True)

    def union(columns: list[np.ndarray | None]) -> np.ndarray | None:
        return None if columns[0] is None else np.concatenate(columns)[first]

    contribution = None
    if shard_steps[0].contribution is not None:
        contribution = StepContribution(
            **{
                name: union([getattr(step.contribution, name) for step in shard_steps])
                for name in StepContribution._COLUMNS
            }
        )
    return StepTrace(
        keys=unique_keys,
        contribution=contribution,
        occ=union([step.occ for step in shard_steps]),
    )


def merge_traces(traces: Sequence[BatchTrace]) -> BatchTrace:
    """Union per-shard traces step by step into the serial batch's trace.

    Step *t* of every shard corresponds to the same lockstep iteration of
    the unsplit batch, so the serial unique set at *t* is the union of the
    shard sets at *t*.  The traces already carry each step's packed
    ``kmer * span + pos`` keys exactly as the coalescer produced them, so
    the union is one concatenate + ``np.unique`` per step — nothing is
    re-packed and no span is needed here — and the same pass dedupes the
    accounting contributions.  Tails merge by first-seen order across the
    contiguous shards, which is exactly the whole batch's first-seen
    order, each keeping its recorded costs.  Only the final consumer
    (:func:`merge_shard_stats`) unpacks keys, with the backend's span.
    """
    merged = BatchTrace()
    depth = max((len(trace.steps) for trace in traces), default=0)
    for index in range(depth):
        merged.steps.append(
            _merge_step([trace.steps[index] for trace in traces if index < len(trace.steps)])
        )
    seen: dict[str, TailContribution] = {}
    for trace in traces:
        for tail, contribution in zip(trace.tails, trace.tail_contributions):
            if tail not in seen:
                seen[tail] = contribution
    merged.tails = list(seen)
    merged.tail_contributions = list(seen.values())
    return merged


def merge_shard_stats(backend: SearchBackend, shard_stats: Sequence[BatchStats]) -> BatchStats:
    """Merge per-shard stats into counters identical to a serial run's.

    Plain ``BatchStats.merge`` would double-count every request duplicated
    across shards (understating nothing but overstating unique counts,
    base reads and prediction work — the same counter family as the fig18
    base-count bug fixed in PR 1).  Instead the per-query counters are
    summed and everything coalescing-dependent is rebuilt from the merged
    trace: the unique request stream comes straight from the unioned
    packed keys (appended columnarly, no per-request objects), base reads
    from the distinct k-mers per step plus the recorded tail costs, the
    eager counters from the deduped contributions, and the steps priced on
    read stay pending with their deduped Occ values.  **No search,
    replay or pricing runs here**: the backend supplies its position span
    and, for pending steps, the pricer the first read will call.
    """
    merged = BatchStats()
    for stats in shard_stats:
        merged.queries += stats.queries
        merged.iterations += stats.iterations
        merged.occ_requests_issued += stats.occ_requests_issued
    traces = [stats.trace for stats in shard_stats if stats.trace is not None]
    span = backend.reference_length + 1
    trace = merge_traces(traces)
    # Tails are accounted first: the serial pass resolves every distinct
    # tail before entering the lockstep loop, so prediction errors keep
    # the serial append order.
    for tail, contribution in zip(trace.tails, trace.tail_contributions):
        merged.record_tail(tail, contribution)
    for step in trace.steps:
        kmers = step.keys // span
        distinct = int(np.count_nonzero(np.diff(kmers))) + 1 if kmers.size else 0
        merged.record_unique(step.keys, span, distinct, step.contribution, step.occ)
    return _priced_by(backend, merged)


def run_sharded_batch(
    backend: SearchBackend,
    batch: QueryBatch,
    shards: int,
    executor: str = "thread",
    pool: runtime.BackendWorkerPool | None = None,
) -> BatchResult:
    """Search *batch* across shards; result identical to the serial path.

    With *pool* given (the engine-owned persistent pool) the call reuses
    it and leaves it running; otherwise a one-shot pool is created and
    shut down around the batch.
    """
    if shards <= 1 or len(batch) <= 1:
        stats = BatchStats()
        return BatchResult(*backend.search_batch(batch, stats), stats)
    shard_batches = split_shards(batch, shards)
    owned = pool is None
    if pool is None:
        pool = runtime.BackendWorkerPool(backend, executor, max_workers=len(shard_batches))
    try:
        outputs = pool.map_shards(_search_shard, shard_batches)
    finally:
        if owned:
            pool.shutdown()
    lows, highs, shard_stats = zip(*outputs)
    stats = merge_shard_stats(backend, shard_stats)
    return BatchResult(np.concatenate(lows), np.concatenate(highs), stats)


class ShardedQueryEngine(QueryEngine):
    """A :class:`QueryEngine` that always runs the sharded parallel path.

    Unlike the adaptive base class, this engine never clamps an explicit
    shard count to the hardware — it runs exactly the split it was
    configured with (the *verbatim* policy of
    :func:`repro.runtime.resolve_workers`), which is what the equivalence
    suite and the search layer of ``experiment scaling`` rely on.

    Construction is :class:`QueryEngine`'s (prebuilt backend, or registry
    name + reference, plus ``shards``/``executor``).  Every batch API
    (``search_batch``, ``find_batch``, ``count_batch``,
    ``request_stream`` and the single-query wrappers) returns exactly what
    the serial engine would.  The engine owns a persistent
    :class:`~repro.runtime.BackendWorkerPool` (created lazily on the first
    multi-shard batch, reused across calls); use the engine as a context
    manager or call :meth:`~repro.runtime.PoolOwner.close` to release it.
    The process executor requires a picklable backend — all registered
    backends are — and ships it to the workers once, at pool creation.
    """

    _adaptive = False

    def search_batch_per_shard(self, queries: Sequence[str]) -> list[BatchResult]:
        """The per-shard results before merging (introspection/debugging)."""
        pool = self._pool_for(self._backend, self.executor, self.shards)
        shards = split_shards(QueryBatch.from_strings(queries), self.shards)
        outputs = pool.map_shards(_search_shard, shards)
        return [
            BatchResult(lows, highs, _priced_by(self._backend, stats))
            for lows, highs, stats in outputs
        ]
