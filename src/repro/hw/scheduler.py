"""Request schedulers: FR-FCFS baseline and EXMA's 2-stage scheduling.

Prior FM-Index accelerators schedule requests First-Ready First-Come-
First-Serve, which ignores the data the requests carry.  EXMA's 2-stage
scheduler (Section IV-C2) instead reorders the requests resident in its
CAM:

* stage 1 sorts by k-mer, so consecutively issued requests touch adjacent
  base-array entries and the *base cache* hit rate rises;
* stage 2 sorts by ``pos``, so consecutive MTL-index inferences reuse the
  same index nodes and the *index cache* hit rate rises.

Both schedulers operate on batches bounded by the CAM capacity: requests
that do not fit are scheduled in a later batch, which is what limits the
256-entry CAM configuration in Fig. 22.

The object classes replay the CAM one :class:`~repro.exma.search
.OccRequest` at a time and remain the oracle reference; the columnar
replay uses :func:`scheduled_orders` / :func:`keep_open_flags`, which
compute the identical stage-1/stage-2 orders and page-policy hints for a
whole packed request stream with one packed-key stable argsort per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from ..engine.window import CoalescingWindow
from ..exma.search import OccRequest
from .cam import CamConfig, SchedulingQueue


@dataclass(frozen=True)
class ScheduledBatch:
    """One batch of requests in the order the accelerator will issue them.

    ``stage1`` is the order used for base-cache accesses (after the k-mer
    sort for the 2-stage scheduler); ``stage2`` is the order used for
    index-cache accesses and inference (after the pos sort).  FR-FCFS uses
    the arrival order for both.
    """

    stage1: tuple[OccRequest, ...]
    stage2: tuple[OccRequest, ...]

    def __len__(self) -> int:
        return len(self.stage1)


class FrFcfsScheduler:
    """First-come-first-serve batching (the baseline policy)."""

    def __init__(self, cam_config: CamConfig | None = None) -> None:
        self._cam_config = cam_config or CamConfig()

    @property
    def batch_size(self) -> int:
        """Requests per batch (bounded by the CAM capacity)."""
        return self._cam_config.entries

    def schedule(self, requests: Iterable[OccRequest]) -> Iterator[ScheduledBatch]:
        """Yield batches in arrival order."""
        batch: list[OccRequest] = []
        for request in requests:
            batch.append(request)
            if len(batch) >= self.batch_size:
                ordered = tuple(batch)
                yield ScheduledBatch(stage1=ordered, stage2=ordered)
                batch = []
        if batch:
            ordered = tuple(batch)
            yield ScheduledBatch(stage1=ordered, stage2=ordered)


class TwoStageScheduler:
    """EXMA's 2-stage scheduler backed by the sorting CAM."""

    def __init__(self, cam_config: CamConfig | None = None) -> None:
        self._cam_config = cam_config or CamConfig()

    @property
    def batch_size(self) -> int:
        """Requests per batch (bounded by the CAM capacity)."""
        return self._cam_config.entries

    def schedule(self, requests: Iterable[OccRequest]) -> Iterator[ScheduledBatch]:
        """Yield batches with stage-1 (k-mer) and stage-2 (pos) orderings."""
        queue = SchedulingQueue(self._cam_config)
        pending = list(requests)
        index = 0
        while index < len(pending) or len(queue) > 0:
            while not queue.full and index < len(pending):
                queue.push(pending[index])
                index += 1
            queue.sort_by_kmer()
            stage1 = tuple(queue.peek())
            queue.sort_by_pos()
            stage2 = tuple(queue.drain())
            yield ScheduledBatch(stage1=stage1, stage2=stage2)


class RequestScheduler(Protocol):
    """What both schedulers expose (for windowed scheduling helpers)."""

    def schedule(self, requests: Iterable[OccRequest]) -> Iterator[ScheduledBatch]:
        ...


def schedule_windowed(
    scheduler: RequestScheduler,
    batch_streams: Iterable[Sequence[OccRequest]],
    window: int | CoalescingWindow = 1,
) -> Iterator[ScheduledBatch]:
    """Schedule consecutive batch streams through a coalescing window.

    The object-path twin of the windowed replay, kept for the test suite
    and exploratory use: the window merges the streams array-side, and
    request objects materialise here, at the CAM boundary, as the
    schedulers iterate each flush's lazy ``requests`` view.  Each unique
    ``(k-mer, pos)`` pair of a window is scheduled exactly once (the
    Fig. 15 sweep knob).  *window* may be a capacity or a prebuilt window
    instance.  The production pipeline never takes this path — the
    accelerator's columnar replay orders each flush's packed arrays with
    :func:`scheduled_orders`; for the full pipeline with per-flush
    cycle/energy accounting, see :meth:`repro.accel.exma_accelerator
    .ExmaAccelerator.run_stream`.
    """
    if isinstance(window, int):
        window = CoalescingWindow(window)

    def merged() -> Iterator[OccRequest]:
        for flushed in window.stream(batch_streams):
            yield from flushed.requests

    yield from scheduler.schedule(merged())


def _batch_major(batch_of: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``batch * span + value``: one sort key whose stable argsort is the
    per-batch stable sort by *value* (batches stay in order)."""
    span = int(values.max()) + 1
    if int(batch_of[-1] + 1) * span >= 2**63:
        raise ValueError("request keys are too wide to pack per CAM batch")
    return batch_of * span + values


def scheduled_orders(
    kmers: np.ndarray,
    positions: np.ndarray,
    cam_entries: int,
    two_stage: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1/stage-2 issue orders of a whole packed request stream.

    The columnar equivalent of running :class:`FrFcfsScheduler` /
    :class:`TwoStageScheduler` over the stream and concatenating every
    batch's ``stage1``/``stage2`` tuples: returns two index arrays into
    *kmers*/*positions* whose consecutive ``cam_entries``-sized slices are
    the CAM batches in issue order.  The 2-stage orders reproduce the
    sorting CAM exactly — stage 1 is the stable per-batch k-mer sort of
    the arrival order, stage 2 the stable per-batch pos sort of the
    stage-1 order — because :meth:`~repro.hw.cam.SchedulingQueue
    .sort_by_pos` reorders the already k-mer-sorted residents.  Each
    stage is one stable argsort of a packed ``batch * span + key`` column
    (a flushed window arrives k-mer-sorted, which the stable sort takes
    in linear time).
    """
    if cam_entries <= 0:
        raise ValueError("cam_entries must be positive")
    kmers = np.asarray(kmers, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    arrival = np.arange(kmers.size, dtype=np.int64)
    if not two_stage or kmers.size == 0:
        return arrival, arrival
    # Both stages keep every batch in its slice, so slot i of either
    # order belongs to batch i // cam_entries.
    batch_of = arrival // cam_entries
    stage1 = np.argsort(_batch_major(batch_of, kmers), kind="stable")
    stage2 = stage1[
        np.argsort(_batch_major(batch_of, positions[stage1]), kind="stable")
    ]
    return stage1, stage2


def keep_open_flags(
    kmers: np.ndarray, grouped: np.ndarray, stage2: np.ndarray, cam_entries: int
) -> np.ndarray:
    """Keep-row-open hints of a stream, aligned with its stage-2 order.

    The columnar equivalent of :func:`pair_requests_by_kmer` applied to
    every CAM batch: stage-2 slot *i*'s hint is True when a later slot of
    the same batch targets the same k-mer — every request except the one
    its ``(batch, k-mer)`` group issues last.  *grouped* is an order that
    keeps batches in their slices and each batch's equal k-mers adjacent,
    which is what stage 1 of the 2-stage scheduler produces, so the hints
    are read off its runs (the largest stage-2 slot of each run) without
    sorting again.
    """
    if cam_entries <= 0:
        raise ValueError("cam_entries must be positive")
    kmers = np.asarray(kmers)
    count = int(kmers.size)
    keep = np.ones(count, dtype=bool)
    if count == 0:
        return keep
    stage2_slot = np.empty(count, dtype=np.int64)
    stage2_slot[stage2] = np.arange(count, dtype=np.int64)
    grouped_kmers = kmers[grouped]
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    np.not_equal(grouped_kmers[1:], grouped_kmers[:-1], out=run_start[1:])
    run_start[::cam_entries] = True
    keep[np.maximum.reduceat(stage2_slot[grouped], np.flatnonzero(run_start))] = False
    return keep


def pair_requests_by_kmer(batch: tuple[OccRequest, ...]) -> list[tuple[OccRequest, bool]]:
    """Annotate each request with a keep-row-open hint (dynamic page policy).

    The EXMA controller keeps a DRAM row open after a request when another
    pending request in the scheduling queue targets the same k-mer (the
    low/high pair of one search iteration).  The hint is True when the
    *next* request with the same k-mer is still pending in the batch.
    """
    remaining: dict[int, int] = {}
    for request in batch:
        remaining[request.packed_kmer] = remaining.get(request.packed_kmer, 0) + 1
    annotated = []
    for request in batch:
        remaining[request.packed_kmer] -= 1
        annotated.append((request, remaining[request.packed_kmer] > 0))
    return annotated
