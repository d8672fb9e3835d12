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

from .backends import available_backends
from .engine import QueryEngine

__all__ = ["QueryEngine", "available_backends"]
