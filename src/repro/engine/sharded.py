"""Sharded parallel execution of the batched query engine.

The lockstep core is embarrassingly parallel across *query* shards: a
query's ``(low, high)`` interval trajectory depends only on the query and
the index, never on which other queries share its batch.  This module
exploits that by splitting a batch into contiguous shards, running each
shard's lockstep search in a long-lived worker pool and merging the
per-shard results back into one :class:`~repro.engine.engine.BatchResult`
that is **byte-identical** to what the serial engine would have produced
— without ever re-running the search or its accounting:

* intervals are trivially order-preserving (contiguous split + ordered
  gather);
* the shard-decomposable counters (``queries``, ``iterations``,
  ``occ_requests_issued``) are plain sums;
* the coalescing-dependent state is rebuilt by **contribution dedupe**:
  while a shard runs, its :class:`~repro.engine.coalesce.BatchTrace`
  records each step's packed ``(kmer, pos)`` keys together with the
  per-unique-request accounting contributions (increment entries,
  predictions and errors, binary comparisons — values that depend only on
  the request and the index, never on the batch).  Lockstep step *t*
  consumes the same symbol/chunk of every query in every shard, so one
  vectorized ``np.unique`` over the shards' packed keys at step *t*
  recovers exactly the serial batch's unique set — and selecting each
  surviving key's contribution once re-creates the serial accounting.
  No ``replay_trace`` pass, no second trip through the index.

This module is the split and the merge only.  *Where* the shards run —
the persistent :class:`~repro.runtime.BackendWorkerPool` an engine owns
(the process pool ships the backend **once** per worker; submitted calls
carry only their shard of queries), how many workers it has and what
happens when it fails — is :mod:`repro.runtime`'s business.

The equivalence is locked down by the property-based suite in
``tests/test_sharded.py`` (all six backends, any shard count, both
executors), mirroring how the SPEChpc strong-scaling studies validate
parallel results against the serial baseline.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from ..index.fmindex import Interval
from .. import runtime
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


def split_shards(items: Sequence[T], shards: int) -> list[list[T]]:
    """Split *items* into at most *shards* contiguous, balanced, non-empty
    chunks, preserving order.

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
    chunks: list[list[T]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def _search_shard(
    backend: SearchBackend, priced: bool, queries: list[str]
) -> tuple[list[Interval], BatchStats]:
    """One shard's lockstep search, with contribution tracing enabled."""
    stats = BatchStats(trace=BatchTrace(), priced=priced)
    intervals = backend.search_batch(queries, stats)
    return intervals, stats


# --------------------------------------------------------------------- #
# Replay-free stats merge
# --------------------------------------------------------------------- #


def _merge_step(shard_steps: list[StepTrace]) -> StepTrace:
    """Union one lockstep step across shards, deduping contributions.

    One ``np.unique`` over the concatenated packed keys yields both the
    serial unique set (sorted, exactly the order the serial coalescer
    emits) and — through ``return_index`` — the first occurrence of every
    surviving key, which selects its contribution row.  Contribution
    values depend only on the ``(kmer, pos)`` pair, so *which* shard's row
    survives is irrelevant.
    """
    if len(shard_steps) == 1:
        return shard_steps[0]
    keys = np.concatenate([step.keys for step in shard_steps])
    unique_keys, first = np.unique(keys, return_index=True)
    contributions = [step.contribution for step in shard_steps]
    if all(contribution is None for contribution in contributions):
        return StepTrace(keys=unique_keys)
    columns: dict[str, np.ndarray | None] = {}
    for name in StepContribution._COLUMNS:
        cols = [
            None if contribution is None else getattr(contribution, name)
            for contribution in contributions
        ]
        present = [col for col in cols if col is not None]
        if not present:
            columns[name] = None
            continue
        parts = [
            col if col is not None else np.zeros(step.keys.size, dtype=present[0].dtype)
            for col, step in zip(cols, shard_steps)
        ]
        columns[name] = np.concatenate(parts)[first]
    return StepTrace(keys=unique_keys, contribution=StepContribution(**columns))


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
    from the distinct k-mers per step plus the recorded tail costs, and
    the remaining counters from the deduped per-request contributions.
    The backend is only consulted for its position span — **no search or
    replay runs here**.
    """
    merged = BatchStats(priced=all(stats.priced for stats in shard_stats))
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
    for contribution in trace.tail_contributions:
        merged.base_reads += contribution.base_reads
        merged.binary_comparisons += contribution.comparisons
        merged.index_predictions += contribution.predictions
        merged.prediction_errors.extend(contribution.errors)
    for step in trace.steps:
        kmers = step.keys // span
        merged.lockstep_iterations += 1
        merged.occ_requests_unique += int(step.keys.size)
        if kmers.size:
            merged.base_reads += int(np.count_nonzero(np.diff(kmers))) + 1
        merged.requests.append_step(step.keys, span)
        if step.contribution is not None:
            merged.apply_contribution(step.contribution)
    return merged


def run_sharded_batch(
    backend: SearchBackend,
    queries: Sequence[str],
    shards: int,
    executor: str = "thread",
    pool: runtime.BackendWorkerPool | None = None,
    priced: bool = True,
) -> BatchResult:
    """Search *queries* across shards; result identical to the serial path.

    With *pool* given (the engine-owned persistent pool) the call reuses
    it and leaves it running; otherwise a one-shot pool is created and
    shut down around the batch.
    """
    queries = list(queries)
    if shards <= 1 or len(queries) <= 1:
        stats = BatchStats(priced=priced)
        return BatchResult(intervals=backend.search_batch(queries, stats), stats=stats)
    shard_lists = split_shards(queries, shards)
    owned = pool is None
    if pool is None:
        pool = runtime.BackendWorkerPool(backend, executor, max_workers=len(shard_lists))
    try:
        outputs = pool.map_shards(_search_shard, shard_lists, priced)
    finally:
        if owned:
            pool.shutdown()
    intervals = [interval for shard_intervals, _ in outputs for interval in shard_intervals]
    stats = merge_shard_stats(backend, [shard_stats for _, shard_stats in outputs])
    return BatchResult(intervals=intervals, stats=stats)


class ShardedQueryEngine(QueryEngine):
    """A :class:`QueryEngine` that always runs the sharded parallel path.

    Unlike the adaptive base class, this engine never clamps an explicit
    shard count to the hardware — it runs exactly the split it was
    configured with (the *verbatim* policy of
    :func:`repro.runtime.resolve_workers`), which is what the equivalence
    suite and the forced rows of the shard-scaling benchmark rely on.

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
        outputs = pool.map_shards(
            _search_shard, split_shards(list(queries), self.shards), True
        )
        return [
            BatchResult(intervals=intervals, stats=stats) for intervals, stats in outputs
        ]
