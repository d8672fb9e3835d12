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
replay uses :func:`scheduled_orders`, which computes the identical
stage-1/stage-2 orders and page-policy hints for a whole packed request
stream: compiled around one sort of the stage-2 keys, or in NumPy
(:func:`kmer_grouping`, one packed-key sort per stage, and
:func:`keep_open_flags`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .. import native
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


def _batch_of(count: int, cam_entries: int) -> np.ndarray:
    """The CAM batch of each of *count* arrival slots, ``slot // cam_entries``
    (one ``repeat``, several times cheaper than an int64 floor division)."""
    batches = np.arange(-(-count // cam_entries), dtype=np.int64)
    return np.repeat(batches, cam_entries)[:count]


def _batch_major(batch_of: np.ndarray, values: np.ndarray, scale: int = 1) -> np.ndarray:
    """``(batch * span + value) * scale``: a sort key whose stable argsort
    is the per-batch stable sort by *value* (batches stay in order)."""
    span = int(values.max()) + 1
    if int(batch_of[-1] + 1) * span * scale >= 2**63:
        raise ValueError("request keys are too wide to pack per CAM batch")
    return (batch_of * span + values) * scale


def kmer_grouping(kmers: np.ndarray, cam_entries: int) -> np.ndarray:
    """Stage 1 of the 2-stage scheduler over a whole packed request stream.

    The stable per-batch k-mer sort of the arrival order, as one stable
    argsort of a packed ``batch * span + kmer`` column (a flushed window
    arrives k-mer-sorted, which it takes in linear time): an index array
    whose consecutive ``cam_entries``-sized slices are the CAM batches,
    each with its equal k-mers adjacent.
    """
    if cam_entries <= 0:
        raise ValueError("cam_entries must be positive")
    kmers = np.asarray(kmers, dtype=np.int64)
    if kmers.size == 0:
        return np.arange(0, dtype=np.int64)
    return np.argsort(_batch_major(_batch_of(kmers.size, cam_entries), kmers), kind="stable")


def scheduled_orders(
    kmers: np.ndarray,
    positions: np.ndarray,
    cam_entries: int,
    two_stage: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-1/stage-2 issue orders and keep-open hints of a whole packed
    request stream.

    The columnar equivalent of running :class:`FrFcfsScheduler` /
    :class:`TwoStageScheduler` over the stream, concatenating every
    batch's ``stage1``/``stage2`` tuples and annotating each ``stage2``
    with :func:`pair_requests_by_kmer`: returns two index arrays into
    *kmers*/*positions* whose consecutive ``cam_entries``-sized slices are
    the CAM batches in issue order, and the hints aligned with stage 2.
    Compiled (:func:`repro.native.cam_schedule`) where it can be, else
    :func:`_schedule_spec`; both raise ``ValueError`` on keys too wide to
    pack.
    """
    if cam_entries <= 0:
        raise ValueError("cam_entries must be positive")
    scheduled = native.cam_schedule(kmers, positions, cam_entries, two_stage, kmer_grouping)
    if scheduled is None:
        scheduled = _schedule_spec(
            np.asarray(kmers, dtype=np.int64), np.asarray(positions, dtype=np.int64), cam_entries,
            two_stage,
        )
    return scheduled


def _schedule_spec(
    kmers: np.ndarray, positions: np.ndarray, cam_entries: int, two_stage: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`scheduled_orders` in NumPy: the specification of
    :func:`repro.native.cam_schedule`, and its fallback.

    The 2-stage orders reproduce the sorting CAM exactly — stage 1 is the
    stable per-batch k-mer sort of the arrival order, stage 2 the stable
    per-batch pos sort of the stage-1 order — because
    :meth:`~repro.hw.cam.SchedulingQueue.sort_by_pos` reorders the already
    k-mer-sorted residents.  Stage 1 is :func:`kmer_grouping`; stage 2 one
    plain sort of the unique ``(batch * span + pos) << b | slot``, each
    request's stage-1 slot in its batch in the low ``b`` bits.  FR-FCFS
    issues both stages in arrival order.  The hints are
    :func:`keep_open_flags` over the k-mer grouping, whichever scheduler
    issues the requests.
    """
    arrival = np.arange(kmers.size, dtype=np.int64)
    grouped = kmer_grouping(kmers, cam_entries)
    if not two_stage or kmers.size == 0:
        return arrival, arrival, keep_open_flags(kmers, grouped, arrival, cam_entries)
    # Both stages keep every batch in its slice, so slot i of either
    # order belongs to batch i // cam_entries.
    batch_of = _batch_of(kmers.size, cam_entries)
    slot_mask = (1 << (cam_entries - 1).bit_length()) - 1
    batch_start = batch_of * cam_entries
    keys = _batch_major(batch_of, positions[grouped], slot_mask + 1)
    keys |= arrival - batch_start
    keys.sort()
    keys &= slot_mask
    keys += batch_start
    stage2 = grouped[keys]
    return grouped, stage2, keep_open_flags(kmers, grouped, stage2, cam_entries)


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
