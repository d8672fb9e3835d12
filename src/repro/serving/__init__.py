"""Always-on serving layer over the engine/accelerator stack.

:class:`~repro.serving.service.QueryService` wraps a
:class:`~repro.engine.engine.QueryEngine` (and optionally an
:class:`~repro.accel.exma_accelerator.ExmaAccelerator`) behind a
continuous ingestion loop: bounded multi-tenant admission with explicit
backpressure, deadline-aware dynamic batching, cross-batch coalescing and
per-flush accelerator replay — turning the batch-harness reproduction
into a traffic-serving system.  :mod:`repro.serving.loadgen` provides the
open-loop Poisson/bursty/Zipfian load generation the serving benchmark
(:mod:`repro.experiments.serving`) is measured under.
"""

from .loadgen import (
    bursty_schedule,
    make_schedule,
    poisson_schedule,
    rate_ladder,
    run_open_loop,
    sample_query_pool,
)
from .service import AdmissionRejected, QueryService, ServingConfig, percentile

__all__ = [
    "AdmissionRejected",
    "QueryService",
    "ServingConfig",
    "bursty_schedule",
    "make_schedule",
    "percentile",
    "poisson_schedule",
    "rate_ladder",
    "run_open_loop",
    "sample_query_pool",
]
