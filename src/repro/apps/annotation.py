"""Genome annotation by exact word matching.

The paper's annotation workload is ExactWordMatch (Healy et al., reference
[25]): annotate a genome by finding, for every word of a query set (e.g.
known gene/motif words), all of its exact occurrences in the reference.
The work is FM-Index searches almost exclusively, which is why annotation
shows the largest FM-Index time fraction in Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.backends import FMIndexBackend
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow, WindowedBatch
from ..index.fmindex import FMIndex


@dataclass(frozen=True)
class WordAnnotation:
    """All occurrences of one annotation word in the reference."""

    word: str
    positions: tuple[int, ...]

    @property
    def count(self) -> int:
        """Number of occurrences."""
        return len(self.positions)


@dataclass
class AnnotationCounters:
    """Work counters for one annotation run."""

    words: int = 0
    bases_searched: int = 0
    occurrences: int = 0


class ExactWordAnnotator:
    """Annotates a reference with exact occurrences of query words.

    Word batches route through the batched query engine: one lockstep
    search over the whole word set with Occ-request coalescing, then a
    locate per word.  Results are identical to per-word search.  Pass a
    sharded ``engine`` (e.g. :class:`~repro.engine.sharded
    .ShardedQueryEngine`) to search word sets in parallel; results stay
    identical to serial.

    Passing ``window`` records each annotate call's coalesced Occ request
    stream into a :class:`~repro.engine.window.CoalescingWindow` of W
    consecutive word batches; the flushed
    :class:`~repro.engine.window.WindowedBatch` stream
    (``windowed_flushes`` / ``flush_window``) is what the windowed
    accelerator pipeline replays.  Annotations are unaffected.
    """

    def __init__(
        self,
        fm_index: FMIndex,
        max_positions_per_word: int = 1000,
        engine: QueryEngine | None = None,
        window: int | None = None,
    ) -> None:
        if max_positions_per_word <= 0:
            raise ValueError("max_positions_per_word must be positive")
        self._fm = fm_index
        self._engine = engine or QueryEngine(FMIndexBackend(fm_index=fm_index))
        self._max_positions = max_positions_per_word
        self._window = CoalescingWindow(window) if window is not None else None
        self._window_flushes: list[WindowedBatch] = []

    @property
    def fm_index(self) -> FMIndex:
        """The index searched by this annotator."""
        return self._fm

    @property
    def engine(self) -> QueryEngine:
        """The batched query engine answering word searches."""
        return self._engine

    @property
    def window_capacity(self) -> int | None:
        """The configured scheduling-window W, or ``None``."""
        return self._window.capacity if self._window is not None else None

    @property
    def windowed_flushes(self) -> tuple[WindowedBatch, ...]:
        """Windows flushed so far (cross-batch merged Occ request streams)."""
        return tuple(self._window_flushes)

    def flush_window(self) -> WindowedBatch | None:
        """Force-flush the partial window (end of the word stream)."""
        if self._window is None:
            return None
        flushed = self._window.flush()
        if flushed is not None:
            self._window_flushes.append(flushed)
        return flushed

    def annotate_word(self, word: str, counters: AnnotationCounters | None = None) -> WordAnnotation:
        """Find every exact occurrence of *word* (a batch of one)."""
        return self.annotate([word], counters)[0]

    def annotate(
        self, words: list[str], counters: AnnotationCounters | None = None
    ) -> list[WordAnnotation]:
        """Annotate a batch of words in one lockstep engine pass."""
        positions_per_word, stats = self._engine.find_batch(words, limit=self._max_positions)
        if self._window is not None:
            flushed = self._window.push(stats.requests)
            if flushed is not None:
                self._window_flushes.append(flushed)
        annotations = []
        for word, positions in zip(words, positions_per_word):
            annotation = WordAnnotation(word=word, positions=tuple(positions))
            if counters is not None:
                counters.words += 1
                counters.bases_searched += len(word)
                counters.occurrences += annotation.count
            annotations.append(annotation)
        return annotations


def words_from_reference(reference: str, word_length: int = 24, stride: int = 512) -> list[str]:
    """Sample annotation words directly from a reference.

    Real annotation pipelines match curated word sets; at reproduction
    scale we sample words from the reference itself (so most words have at
    least one hit) with a fixed stride.
    """
    if word_length <= 0 or stride <= 0:
        raise ValueError("word_length and stride must be positive")
    words = []
    for start in range(0, max(0, len(reference) - word_length), stride):
        words.append(reference[start : start + word_length])
    return words
