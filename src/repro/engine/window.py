"""Cross-batch request coalescing: the scheduling-window model.

The engine's per-batch coalescing merges duplicate ``(k-mer, pos)``
requests *within* one batch; the paper's Fig. 15 sweep shows the
accelerator gains more when the DRAM-side merge may look across a
*scheduling window* of consecutive batches — the longer the replayed
stream, the more duplicates fall inside one window.  A
:class:`CoalescingWindow` models that stage in software: it buffers up to
``capacity`` (W) consecutive batch request streams and flushes each
window as one merged stream in which every unique ``(k-mer, pos)`` pair
appears exactly once, in the ``(k-mer, pos)``-sorted order the stage-1
scheduler wants.

The window is **columnar end-to-end**: buffered batches are kept as the
packed ``kmer * span + pos`` int64 key arrays the engine's
:class:`~repro.engine.coalesce.RequestStream` already carries, the flush
dedupe is one sort of those keys plus a neighbour mask, and the flushed
:class:`WindowedBatch` holds the merged key array itself — which the
accelerator's columnar replay consumes as-is, through to the cycle
counts.  No :class:`~repro.exma.search.OccRequest` objects are
materialised anywhere on that path — the batch only builds them lazily
when a legacy consumer (the object-path reference replay,
``to_search_stats``, tests) iterates its ``requests`` view.

Two oracle properties pin the semantics down (``tests/test_window.py``):

* **W = 1** is per-batch coalescing exactly — each flush equals
  :func:`repro.engine.coalesce.coalesce_requests` applied to that batch's
  stream alone;
* **W > 1** never emits more post-merge requests than the sum of the
  per-batch post-merge counts, and for window capacities that divide each
  other (1, 2, 4, 8, ...) the total post-merge count is monotone
  non-increasing in W, since every 2W-window is the union of two aligned
  W-windows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exma.search import OccRequest
from .coalesce import RequestStream, pack_requests

__all__ = ["CoalescingWindow", "WindowedBatch", "windowed_request_stream"]


class WindowedBatch(Sequence):
    """One flushed window: the merged unique requests of up to W batches.

    The merged stream is stored columnar — ``keys`` holds each unique
    ``(k-mer, pos)`` pair once as a packed ``kmer * span + pos`` int64,
    sorted ascending, which equals the lexicographic ``(k-mer, pos)``
    order the stage-1 scheduler wants.  ``kmers``/``positions`` decompose
    the keys on demand; the ``requests`` view materialises
    :class:`~repro.exma.search.OccRequest` objects lazily (cached), so
    only legacy consumers pay for objects.
    """

    __slots__ = ("keys", "span", "batches", "issued", "_columns", "_view")

    def __init__(self, keys: np.ndarray, span: int, batches: int, issued: int) -> None:
        #: Unique packed ``kmer * span + pos`` keys, sorted ascending.
        self.keys = keys
        #: Exclusive upper bound on positions used to pack ``keys``.
        self.span = int(span)
        #: Number of batches merged into this window.
        self.batches = batches
        #: Requests entering the window (after per-batch, pre-window merging).
        self.issued = issued
        self._columns: tuple[np.ndarray, np.ndarray] | None = None
        self._view: tuple[OccRequest, ...] | None = None

    @classmethod
    def from_requests(
        cls, requests: Sequence[OccRequest], batches: int = 1, issued: int | None = None
    ) -> "WindowedBatch":
        """Build a window from already-unique, ``(k-mer, pos)``-sorted requests."""
        keys, span = pack_requests(requests)
        return cls(
            keys=keys,
            span=span,
            batches=batches,
            issued=len(requests) if issued is None else issued,
        )

    @property
    def unique(self) -> int:
        """Requests surviving the window merge."""
        return int(self.keys.size)

    @property
    def merged(self) -> int:
        """Requests eliminated by the cross-batch merge."""
        return self.issued - self.unique

    def _decomposed(self) -> tuple[np.ndarray, np.ndarray]:
        if self._columns is None:
            self._columns = (self.keys // self.span, self.keys % self.span)
        return self._columns

    @property
    def kmers(self) -> np.ndarray:
        """Unique k-mer codes, in merged (k-mer-major) order."""
        return self._decomposed()[0]

    @property
    def positions(self) -> np.ndarray:
        """Unique Occ positions, aligned with :attr:`kmers`."""
        return self._decomposed()[1]

    @property
    def requests(self) -> tuple[OccRequest, ...]:
        """Lazy object view of the merged stream (cached)."""
        if self._view is None:
            kmers, positions = self._decomposed()
            self._view = tuple(
                OccRequest(packed_kmer=kmer, pos=pos)
                for kmer, pos in zip(kmers.tolist(), positions.tolist())
            )
        return self._view

    @property
    def materialised(self) -> bool:
        """Whether the object view has been built (observability for tests)."""
        return self._view is not None

    def __len__(self) -> int:
        return int(self.keys.size)

    def __iter__(self) -> Iterator[OccRequest]:
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedBatch({self.unique} unique of {self.issued} issued, "
            f"{self.batches} batches)"
        )


class CoalescingWindow:
    """Buffers up to *capacity* consecutive batches and merges duplicates.

    ``push`` buffers one batch's request stream and returns the flushed
    :class:`WindowedBatch` once the window fills (``None`` while it is
    still filling); ``flush`` force-emits a partial window (end of
    stream).  ``stream`` wraps both for an iterable of batches.

    Args:
        capacity: the scheduling window W — how many consecutive batches
            may share one merge.  ``capacity=1`` reproduces per-batch
            coalescing exactly.
    """

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self._capacity = capacity
        self._buffered: list[list[tuple[np.ndarray, int]]] = []

    @property
    def capacity(self) -> int:
        """The window size W."""
        return self._capacity

    @property
    def pending(self) -> int:
        """Batches currently buffered, awaiting a flush."""
        return len(self._buffered)

    @staticmethod
    def _chunks(requests: Sequence[OccRequest]) -> list[tuple[np.ndarray, int]]:
        """One batch's stream as packed ``(keys, span)`` column chunks.

        The engine's columnar :class:`~repro.engine.coalesce.RequestStream`
        and a prior :class:`WindowedBatch` hand their key arrays over by
        reference (the producers never mutate them in place, so this is
        also the snapshot that decouples the buffer from a stats object
        growing afterwards); any other request sequence is packed once.
        """
        if isinstance(requests, RequestStream):
            return requests.chunks()
        if isinstance(requests, WindowedBatch):
            return [(requests.keys, requests.span)] if requests.keys.size else []
        requests = list(requests)
        if not requests:
            return []
        return [pack_requests(requests)]

    def push(self, requests: Sequence[OccRequest]) -> WindowedBatch | None:
        """Buffer one batch; return the merged window once W are buffered."""
        self._buffered.append(self._chunks(requests))
        if len(self._buffered) >= self._capacity:
            return self.flush()
        return None

    def flush(self) -> WindowedBatch | None:
        """Merge and emit whatever is buffered (``None`` when empty).

        The cross-batch dedupe is one ``np.sort`` over the buffered packed
        ``kmer * span + pos`` keys plus a neighbour mask that keeps the
        first of every run of equal keys; ascending key order equals the
        lexicographic ``(kmer, pos)`` order the stage-1 scheduler wants.
        Chunks packed under different spans (streams from different
        references) are re-based onto the widest span before the union;
        the common case — one engine, one span — is a plain concatenate
        of the arrays the coalescer already produced.
        """
        if not self._buffered:
            return None
        chunks = [chunk for batch in self._buffered for chunk in batch]
        batches = len(self._buffered)
        issued = sum(int(keys.size) for keys, _ in chunks)
        self._buffered = []
        if issued == 0:
            return WindowedBatch(
                keys=np.empty(0, dtype=np.int64), span=1, batches=batches, issued=0
            )
        spans = {span for _, span in chunks}
        if len(spans) == 1:
            span = spans.pop()
            packed = [keys for keys, _ in chunks]
        else:
            span = max(spans)
            packed = [
                keys if chunk_span == span else (keys // chunk_span) * span + keys % chunk_span
                for keys, chunk_span in chunks
            ]
        keys = np.sort(np.concatenate(packed))
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return WindowedBatch(keys=keys[first], span=span, batches=batches, issued=issued)

    def stream(
        self, batch_streams: Iterable[Sequence[OccRequest]]
    ) -> Iterator[WindowedBatch]:
        """Windowed merge of an iterable of batch streams, trailing partial
        window included."""
        for batch in batch_streams:
            flushed = self.push(batch)
            if flushed is not None:
                yield flushed
        final = self.flush()
        if final is not None:
            yield final


def windowed_request_stream(
    batch_streams: Iterable[Sequence[OccRequest]], capacity: int
) -> tuple[list[OccRequest], list[WindowedBatch]]:
    """The full post-merge stream of *batch_streams* under window *capacity*,
    plus the per-window flushes (for counting and sweeps)."""
    window = CoalescingWindow(capacity)
    flushes = list(window.stream(batch_streams))
    requests = [request for flushed in flushes for request in flushed.requests]
    return requests, flushes
