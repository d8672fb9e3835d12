"""Seed-and-extend read alignment (BWA-MEM / MA style).

The aligner seeds each read with maximal exact matches found through an
FM-Index-compatible search structure (the 1-step FM-Index, LISA or an EXMA
table — anything exposing ``maximal_exact_matches`` or a backward search),
then extends the best seeds with banded Smith-Waterman around their
reference positions.  Besides producing alignments, it keeps the counters
(bases searched, DP cells computed) that feed the Fig. 1 execution-time
breakdown and the Fig. 19 application-speedup model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.backends import FMIndexBackend
from ..genome.alphabet import reverse_complement
from ..genome.reads import SimulatedRead
from ..index.fmindex import FMIndex, Seed
from .smith_waterman import ScoringScheme, banded_smith_waterman


@dataclass(frozen=True)
class AlignmentResult:
    """Best alignment found for one read."""

    read_name: str
    position: int
    reverse: bool
    score: int
    seed_count: int
    aligned: bool

    @property
    def mapped(self) -> bool:
        """Whether the read produced any alignment."""
        return self.aligned


@dataclass
class AlignerCounters:
    """Work counters accumulated while aligning a batch of reads."""

    reads: int = 0
    seeds: int = 0
    seeding_bases_searched: int = 0
    extension_cells: int = 0
    unmapped: int = 0
    fm_index_iterations: int = 0


class ReadAligner:
    """Aligns reads against a reference using FM-Index seeding.

    Args:
        reference: the reference string over ``ACGT``.
        fm_index: a prebuilt :class:`FMIndex`; built from *reference* when
            omitted.
        min_seed_length: shortest exact match accepted as a seed.
        extension_band: Smith-Waterman band width.
        max_seed_hits: reference positions considered per seed (seeds with
            more hits are repetitive and skipped, as BWA-MEM does).
    """

    def __init__(
        self,
        reference: str,
        fm_index: FMIndex | None = None,
        min_seed_length: int = 15,
        extension_band: int = 16,
        max_seed_hits: int = 8,
        scoring: ScoringScheme | None = None,
    ) -> None:
        if min_seed_length <= 0:
            raise ValueError("min_seed_length must be positive")
        if max_seed_hits <= 0:
            raise ValueError("max_seed_hits must be positive")
        self._reference = reference
        self._fm = fm_index or FMIndex(reference)
        self._backend = FMIndexBackend(fm_index=self._fm)
        self._min_seed = min_seed_length
        self._band = extension_band
        self._max_hits = max_seed_hits
        self._scoring = scoring or ScoringScheme()

    def align_read(
        self, read: str, name: str = "read", counters: AlignerCounters | None = None
    ) -> AlignmentResult:
        """Align one read (both strands) and return the best alignment.

        Thin wrapper over the batched path: seeds come from a lockstep
        batch of the two orientations.
        """
        if not read:
            raise ValueError("read must be non-empty")
        oriented = (read, reverse_complement(read))
        seeds = self._backend.maximal_exact_matches_batch(
            list(oriented), min_length=self._min_seed
        )
        return self._align_from_seeds(name, oriented, seeds, counters)

    def _align_from_seeds(
        self,
        name: str,
        oriented: tuple[str, str],
        oriented_seeds: list[list[Seed]],
        counters: AlignerCounters | None,
    ) -> AlignmentResult:
        """Pick the best extension across both precomputed seed sets."""
        best: tuple[int, int, bool, int] | None = None  # score, pos, reverse, seeds
        for reverse in (False, True):
            read, seeds = oriented[reverse], oriented_seeds[reverse]
            if counters is not None:
                counters.seeds += len(seeds)
                counters.seeding_bases_searched += len(read)
                counters.fm_index_iterations += len(read)
            candidate = self._extend_best(read, seeds, counters)
            if candidate is not None:
                score, position = candidate
                if best is None or score > best[0]:
                    best = (score, position, reverse, len(seeds))
        if counters is not None:
            counters.reads += 1
            if best is None:
                counters.unmapped += 1
        if best is None:
            return AlignmentResult(
                read_name=name, position=-1, reverse=False, score=0, seed_count=0, aligned=False
            )
        score, position, reverse, seed_count = best
        return AlignmentResult(
            read_name=name,
            position=position,
            reverse=reverse,
            score=score,
            seed_count=seed_count,
            aligned=True,
        )

    def _extend_best(
        self, read: str, seeds: list[Seed], counters: AlignerCounters | None
    ) -> tuple[int, int] | None:
        """Extend each usable seed and return the best (score, position)."""
        best: tuple[int, int] | None = None
        for seed in seeds:
            if seed.interval.count > self._max_hits:
                continue
            for ref_pos in self._fm.locate(seed.interval, limit=self._max_hits):
                window_start = max(0, ref_pos - seed.read_start - self._band)
                window_end = min(
                    len(self._reference),
                    ref_pos + (len(read) - seed.read_start) + self._band,
                )
                window = self._reference[window_start:window_end]
                if not window:
                    continue
                alignment = banded_smith_waterman(
                    read, window, band=self._band, scoring=self._scoring
                )
                if counters is not None:
                    counters.extension_cells += alignment.cells_computed
                position = window_start + alignment.target_start
                if best is None or alignment.score > best[0]:
                    best = (alignment.score, position)
        return best

    def align_batch(
        self, reads: list[SimulatedRead]
    ) -> tuple[list[AlignmentResult], AlignerCounters]:
        """Align a batch of simulated reads, returning per-read results.

        Seeding for the whole batch — every read, both orientations — runs
        as one lockstep pass through the batched engine, so the Occ
        request streams of all reads coalesce, as on the accelerator.
        Extension then proceeds per read over the precomputed seeds;
        results are identical to per-read :meth:`align_read`.
        """
        counters = AlignerCounters()
        oriented_all: list[str] = []
        for read in reads:
            if not read.sequence:
                raise ValueError("read must be non-empty")
            oriented_all.append(read.sequence)
            oriented_all.append(reverse_complement(read.sequence))
        seeds_all = self._backend.maximal_exact_matches_batch(
            oriented_all, min_length=self._min_seed
        )
        results = []
        for i, read in enumerate(reads):
            oriented = (oriented_all[2 * i], oriented_all[2 * i + 1])
            seeds = [seeds_all[2 * i], seeds_all[2 * i + 1]]
            results.append(
                self._align_from_seeds(read.name, oriented, seeds, counters)
            )
        return results, counters


def alignment_accuracy(
    results: list[AlignmentResult], reads: list[SimulatedRead], tolerance: int = 20
) -> float:
    """Fraction of mapped reads placed within *tolerance* of their origin."""
    if len(results) != len(reads):
        raise ValueError("results and reads must align one-to-one")
    if not results:
        return 0.0
    correct = 0
    for result, read in zip(results, reads):
        if result.mapped and abs(result.position - read.true_position) <= tolerance:
            correct += 1
    return correct / len(results)
