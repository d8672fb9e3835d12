"""Batched multi-backend query engine.

The architectural seam between query producers (applications, experiment
harnesses, the CLI) and the search structures (FM-Index, EXMA tables,
LISA): every exact-match search goes through
:class:`~repro.engine.engine.QueryEngine`, which batches queries, advances
them in lockstep through a registered backend, coalesces duplicate
``(k-mer, pos)`` Occ requests across the batch, and reports
:class:`~repro.engine.coalesce.BatchStats` that feed the hardware model.

Two layers scale it further: :class:`~repro.engine.sharded
.ShardedQueryEngine` splits batches across a thread/process pool (results
byte-identical to serial; the pool and the worker-count policy live in
:mod:`repro.runtime`), and :class:`~repro.engine.window
.CoalescingWindow` merges duplicate requests across *consecutive* batches
before the stream reaches the accelerator model.
"""

from .backends import (
    ExmaBackend,
    FMIndexBackend,
    LisaBackend,
    SearchBackend,
    available_backends,
    create_backend,
    register_backend,
)
from .coalesce import (
    BatchStats,
    BatchTrace,
    CoalescedStep,
    RequestStream,
    StepContribution,
    StepTrace,
    TailContribution,
    coalesce_requests,
    pack_requests,
)
from .engine import BatchResult, QueryEngine
from .sharded import (
    ShardedQueryEngine,
    merge_shard_stats,
    merge_traces,
    run_sharded_batch,
    split_shards,
)
from .window import CoalescingWindow, WindowedBatch, windowed_request_stream

__all__ = [
    "BatchResult",
    "BatchStats",
    "BatchTrace",
    "CoalescedStep",
    "CoalescingWindow",
    "ExmaBackend",
    "FMIndexBackend",
    "LisaBackend",
    "QueryEngine",
    "RequestStream",
    "SearchBackend",
    "ShardedQueryEngine",
    "StepContribution",
    "StepTrace",
    "TailContribution",
    "WindowedBatch",
    "available_backends",
    "coalesce_requests",
    "pack_requests",
    "create_backend",
    "merge_shard_stats",
    "merge_traces",
    "register_backend",
    "run_sharded_batch",
    "split_shards",
    "windowed_request_stream",
]
