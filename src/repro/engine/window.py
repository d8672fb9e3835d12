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
counts.  The Occ values an EXMA search ranked travel with the keys: the
flush lines them up with its unique keys by one more sort
(:meth:`CoalescingWindow.flush`), so the replay ranks nothing again.
No :class:`~repro.exma.search.OccRequest` objects are materialised
anywhere on that path — the batch only builds them lazily when a legacy
consumer (the object-path reference replay, tests) iterates its
``requests`` view.

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
from ..runtime import check_workers
from .coalesce import RequestStream, pack_requests

__all__ = ["CoalescingWindow", "WindowedBatch"]


class WindowedBatch(Sequence):
    """One flushed window: the merged unique requests of up to W batches.

    The merged stream is stored columnar — ``keys`` holds each unique
    ``(k-mer, pos)`` pair once as a packed ``kmer * span + pos`` int64,
    sorted ascending, which equals the lexicographic ``(k-mer, pos)``
    order the stage-1 scheduler wants.  ``occ``, when present, is each
    key's Occ value, aligned with ``keys`` (see
    :meth:`CoalescingWindow.flush`).  ``kmers``/``positions`` decompose
    the keys on demand; the ``requests`` view materialises
    :class:`~repro.exma.search.OccRequest` objects lazily (cached), so
    only legacy consumers pay for objects.
    """

    __slots__ = ("keys", "span", "batches", "issued", "occ", "_columns", "_view")

    def __init__(
        self,
        keys: np.ndarray,
        span: int,
        batches: int,
        issued: int,
        occ: np.ndarray | None = None,
    ) -> None:
        #: Unique packed ``kmer * span + pos`` keys, sorted ascending.
        self.keys = keys
        #: Exclusive upper bound on positions used to pack ``keys``.
        self.span = int(span)
        #: Number of batches merged into this window.
        self.batches = batches
        #: Requests entering the window (after per-batch, pre-window merging).
        self.issued = issued
        #: Occ value per key, or ``None`` when a buffered chunk had none.
        self.occ = occ
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

    def _decomposed(self) -> tuple[np.ndarray, np.ndarray]:
        if self._columns is None:
            kmers = self.keys // self.span
            self._columns = (kmers, self.keys - kmers * self.span)
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
        self._capacity = check_workers(capacity, "window capacity")
        self._buffered: list[list[tuple[np.ndarray, int, np.ndarray | None]]] = []

    @property
    def capacity(self) -> int:
        """The window size W."""
        return self._capacity

    @property
    def pending(self) -> int:
        """Batches currently buffered, awaiting a flush."""
        return len(self._buffered)

    @staticmethod
    def _chunks(
        requests: Sequence[OccRequest],
    ) -> list[tuple[np.ndarray, int, np.ndarray | None]]:
        """One batch's stream as packed ``(keys, span, Occ or None)`` chunks.

        The engine's columnar :class:`~repro.engine.coalesce.RequestStream`
        and a prior :class:`WindowedBatch` hand their arrays over by
        reference (the producers never mutate them in place, so this is
        also the snapshot that decouples the buffer from a stats object
        growing afterwards); any other request sequence is packed once,
        without Occ values.
        """
        if isinstance(requests, RequestStream):
            return requests.chunks()
        if isinstance(requests, WindowedBatch):
            return [(requests.keys, requests.span, requests.occ)] if requests.keys.size else []
        requests = list(requests)
        if not requests:
            return []
        return [(*pack_requests(requests), None)]

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

        When every chunk carries its Occ values (an EXMA search's steps),
        the flush carries them on as ``occ``, aligned with the unique keys,
        without an argsort.  Over one table ``kmer * span + Occ(kmer, pos)``
        never decreases as the key ``kmer * span + pos`` grows, since
        ``Occ <= pos < span`` and Occ never decreases in ``pos`` (re-based
        keys included: the span only widens).  So the sorted values of
        that column sit in key order; the ``first`` mask keeps one per
        unique key, and subtracting ``kmer * span`` takes the Occ back
        out.  A chunk without Occ values (packed from objects) leaves
        ``occ`` ``None``, and :meth:`repro.accel.exma_accelerator
        .ExmaAccelerator.run` ranks such a flush itself.
        """
        if not self._buffered:
            return None
        chunks = [chunk for batch in self._buffered for chunk in batch]
        batches = len(self._buffered)
        issued = sum(int(keys.size) for keys, _, _ in chunks)
        self._buffered = []
        if issued == 0:
            empty = np.empty(0, dtype=np.int64)
            return WindowedBatch(keys=empty, span=1, batches=batches, issued=0, occ=empty)
        spans = {span for _, span, _ in chunks}
        if len(spans) == 1:
            span = spans.pop()
            packed = [keys for keys, _, _ in chunks]
        else:
            span = max(spans)
            # Re-based: (keys // chunk_span) * span + keys % chunk_span,
            # with the remainder (several times slower in NumPy than the
            # floor division) folded away.
            packed = [
                keys if chunk_span == span else keys + keys // chunk_span * (span - chunk_span)
                for keys, chunk_span, _ in chunks
            ]
        keys = np.concatenate(packed)
        ranked = None
        if all(occ is not None for _, _, occ in chunks):
            ranked = keys // span
            ranked *= span
            ranked += np.concatenate([occ for _, _, occ in chunks])
            ranked.sort()
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        occ = None
        if ranked is not None:
            occ = ranked[first]
            occ -= keys // span * span
        return WindowedBatch(keys=keys, span=span, batches=batches, issued=issued, occ=occ)

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
