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
    """

    def __init__(
        self,
        fm_index: FMIndex,
        max_positions_per_word: int = 1000,
        engine: QueryEngine | None = None,
    ) -> None:
        if max_positions_per_word <= 0:
            raise ValueError("max_positions_per_word must be positive")
        self._fm = fm_index
        self._engine = engine or QueryEngine(FMIndexBackend(fm_index=fm_index))
        self._max_positions = max_positions_per_word

    def annotate(
        self, words: list[str], counters: AnnotationCounters | None = None
    ) -> list[WordAnnotation]:
        """Annotate a batch of words in one lockstep engine pass."""
        positions_per_word, _ = self._engine.find_batch(words, limit=self._max_positions)
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
