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
dedupe is one sort of those keys plus a neighbour mask, and the flush is
itself a :class:`~repro.engine.coalesce.RequestStream` whose one chunk is
the merged key array — which the accelerator's columnar replay consumes
as-is, through to the cycle counts.  The Occ values an EXMA search ranked
travel with the keys, packed into the same sort
(:meth:`CoalescingWindow.flush`), so the replay ranks nothing again.
No :class:`~repro.exma.search.OccRequest` objects are materialised
anywhere on that path — the stream only builds them lazily when a legacy
consumer (the object-path reference replay, tests) calls its
``materialize``.

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
from .coalesce import RequestStream

__all__ = ["CoalescingWindow"]


def _first_mask(values: np.ndarray) -> np.ndarray:
    """Over sorted *values*: True at the first of every run of equal ones."""
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


class CoalescingWindow:
    """Buffers up to *capacity* consecutive batches and merges duplicates.

    ``push`` buffers one batch's request stream and returns the flushed
    :class:`~repro.engine.coalesce.RequestStream` once the window fills
    (``None`` while it is still filling); ``flush`` force-emits a partial
    window (end of stream).  ``stream`` wraps both for an iterable of batches.

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

    def push(self, requests: Sequence[OccRequest]) -> RequestStream | None:
        """Buffer one batch; return the merged window once W are buffered.

        The batch's chunks are held by reference (the producers never
        mutate them in place, so this is also the snapshot that decouples
        the buffer from a stats object growing afterwards); a plain request
        sequence is packed once, without Occ values.
        """
        self._buffered.append(RequestStream.of(requests).chunks())
        if len(self._buffered) >= self._capacity:
            return self.flush()
        return None

    def flush(self) -> RequestStream | None:
        """Merge and emit whatever is buffered (``None`` when empty).

        The cross-batch dedupe is one ``np.sort`` over the buffered packed
        ``kmer * span + pos`` keys plus a neighbour mask that keeps the
        first of every run of equal keys; ascending key order equals the
        lexicographic ``(kmer, pos)`` order the stage-1 scheduler wants.
        Chunks packed under different spans (streams from different
        references) are re-based onto the widest span before the union;
        the common case — one engine, one span — is a plain concatenate
        of the arrays the coalescer already produced.
        The flush is a one-chunk stream of the unique keys that counts the
        ``batches`` it merged and the requests ``issued`` into it.

        When every chunk carries its Occ values (an EXMA search's steps),
        the flush carries them on as ``occ``, aligned with the unique keys,
        without an argsort.  Where ``(max key + 1) * span < 2**63`` one
        sort does both: ``key * span + Occ`` orders as the key does (``Occ
        <= pos < span``), and over one table equal keys carry equal Occ,
        so its distinct values are the unique keys' and a floor division
        splits each back into key and Occ.  Wider keys take two sorts:
        over one table ``kmer * span + Occ(kmer, pos)`` never decreases as
        the key ``kmer * span + pos`` grows, since Occ never decreases in
        ``pos`` (re-based keys included: the span only widens), so the
        sorted values of that column sit in key order; the ``first`` mask
        keeps one per unique key, and subtracting ``kmer * span`` takes
        the Occ back out.  A chunk without Occ values (packed from
        objects) leaves ``occ`` ``None``, and
        :meth:`repro.accel.exma_accelerator.ExmaAccelerator.run` ranks
        such a flush itself.
        """
        if not self._buffered:
            return None
        chunks = [chunk for batch in self._buffered for chunk in batch]
        batches = len(self._buffered)
        issued = sum(int(keys.size) for keys, _, _ in chunks)
        self._buffered = []
        if issued == 0:
            return _flushed(batches, issued)
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
        occ = None
        if all(chunk_occ is not None for _, _, chunk_occ in chunks):
            occ = np.concatenate([chunk_occ for _, _, chunk_occ in chunks])
            if (int(keys.max()) + 1) * span < 2**63:
                keys *= span
                keys += occ
                keys.sort()
                ranked = keys[_first_mask(keys)]
                keys = ranked // span
                ranked -= keys * span
                return _flushed(batches, issued, keys, span, ranked)
            ranked = keys // span
            ranked *= span
            ranked += occ
            ranked.sort()
        keys.sort()
        first = _first_mask(keys)
        keys = keys[first]
        if occ is not None:
            occ = ranked[first]
            occ -= keys // span * span
        return _flushed(batches, issued, keys, span, occ)

    def stream(
        self, batch_streams: Iterable[Sequence[OccRequest]]
    ) -> Iterator[RequestStream]:
        """Windowed merge of an iterable of batch streams, trailing partial
        window included."""
        for batch in batch_streams:
            flushed = self.push(batch)
            if flushed is not None:
                yield flushed
        final = self.flush()
        if final is not None:
            yield final


def _flushed(batches: int, issued: int, *chunk) -> RequestStream:
    """One flush: the merged ``(keys, span, Occ)`` *chunk* (none when
    nothing was issued) as a stream carrying its window's counts."""
    stream = RequestStream()
    if chunk:
        stream.append_step(*chunk)
    stream.batches = batches
    stream.issued = issued
    return stream
