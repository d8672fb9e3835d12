"""The EXMA table: per-k-mer increment lists plus base pointers.

The EXMA table (Section IV-A of the paper) is a row-buffer-friendly
reformulation of the k-step Occ table.  In each Occ-table row exactly one
k-mer's count increases; the EXMA table stores, for every k-mer, the sorted
list of row numbers at which its count increments, terminated by a ``MAX``
sentinel equal to ``|G| + 1``.  All increment lists are concatenated in
k-mer order so consecutive increments of one k-mer sit in the same DRAM
rows, and a *base* array of ``4^k`` entries points each k-mer at its first
increment (``MAX`` when it never occurs).

``Occ(kmer, pos)`` is then "count the increments of *kmer* smaller than
*pos*", which is a single sorted-array rank query — the operation the MTL
index learns to predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..genome.alphabet import SENTINEL, encode, pack_kmer, unpack_kmer
from ..index.suffix_array import suffix_array


@dataclass(frozen=True)
class ExmaSizeBreakdown:
    """Analytic size of the EXMA data structures at paper scale (bytes)."""

    increments: int
    bases: int
    index: int
    suffix_array: int

    @property
    def total(self) -> int:
        """Total bytes across all four components."""
        return self.increments + self.bases + self.index + self.suffix_array


def exma_size_breakdown(genome_length: int, k: int, index_bytes_per_entry: float = 0.4) -> ExmaSizeBreakdown:
    """Analytic EXMA size model used for Fig. 10(a).

    * increments: ``|G|`` entries of ``ceil(log2 |G|)`` bits — O(|G| log |G|).
    * bases: ``4^k`` entries of ``ceil(log2 |G|)`` bits — O(4^k log |G|).
    * index: the MTL-based index, proportional to the increment count.
    * suffix array: one ``ceil(log2 |G|)``-bit entry per position.
    """
    if genome_length <= 0:
        raise ValueError("genome_length must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    entry_bytes = math.ceil(math.log2(genome_length + 1)) / 8
    increments = int(genome_length * entry_bytes)
    bases = int((4**k) * entry_bytes)
    index = int(genome_length * index_bytes_per_entry)
    sa = int(genome_length * entry_bytes)
    return ExmaSizeBreakdown(increments=increments, bases=bases, index=index, suffix_array=sa)


class ExmaTable:
    """The EXMA table of a reference for a given step number k.

    Args:
        reference: DNA reference string (sentinel appended internally).
        k: the step number — DNA symbols consumed per search iteration.

    The table is exact on the simulated reference; paper-scale sizes come
    from :func:`exma_size_breakdown`.
    """

    def __init__(self, reference: str, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if not reference:
            raise ValueError("reference must be non-empty")
        text = reference if reference.endswith(SENTINEL) else reference + SENTINEL
        self._text = text
        self._k = k
        self._n = len(text)
        self._max = self._n + 1

        self._sa = suffix_array(text)

        (
            self._increments,
            self._bases,
            self._counts,
            self._kmer_rank_base,
        ) = self._build()
        self._count_cache: dict[int, int] = {}
        self._count_table: np.ndarray | None = None
        self._augmented_increments: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Build increments, bases, per-k-mer counts and Count(kmer) table.

        Only k-mers over ACGT get a slot in the 4^k base array; rows whose
        preceding k symbols include the sentinel (the first k rotations of
        the text) are excluded from the table, exactly as a k-step FM-Index
        excludes the sentinel-containing symbols from its enlarged
        alphabet.  Searches never look those up because queries are pure
        DNA.
        """
        k = self._k
        n = self._n
        n_kmers = 4**k

        # Rolling 2-bit pack of the k symbols starting at every (cyclic)
        # text position, k vector passes instead of one slice per row.
        codes = encode(self._text).astype(np.int64)
        packed_at = np.zeros(n, dtype=np.int64)
        sentinel_at = np.zeros(n, dtype=bool)
        for offset in range(k):
            symbols = np.roll(codes, -offset)
            packed_at = (packed_at << 2) | (symbols - 1)
            sentinel_at |= symbols == 0

        # Row r's k-mer is the one preceding suffix SA[r]; a k-mer's
        # increments are its rows in ascending order, i.e. one stable
        # sort of the rows by packed code.
        preceding = (self._sa - k) % n
        rows = np.flatnonzero(~sentinel_at[preceding])
        packed_per_row = packed_at[preceding[rows]]
        counts = np.bincount(packed_per_row, minlength=n_kmers)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        bases = np.where(counts > 0, offsets, self._max)
        increments = rows[
            np.argsort(
                packed_per_row.astype(np.min_scalar_type(n_kmers - 1)), kind="stable"
            )
        ]

        # Count(kmer): number of BW-matrix rows whose suffix starts with a
        # lexicographically smaller prefix.  Rows whose k-prefix is a pure
        # DNA k-mer are counted with an exclusive cumulative sum of the
        # per-k-mer occurrence counts; the handful of rows whose prefix
        # runs into the sentinel are kept as strings and compared per
        # query (there are at most k of them).
        kmer_rank_base = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._sentinel_prefixes = self._collect_sentinel_prefixes()
        return increments, bases.astype(np.int64), counts, kmer_rank_base

    def _collect_sentinel_prefixes(self) -> list[str]:
        """Prefixes (length k, sentinel-padded) of the rows that reach ``$``."""
        k = self._k
        padded = self._text + SENTINEL * k
        prefixes = []
        for pos in range(max(0, self._n - k), self._n):
            prefixes.append(padded[pos : pos + k])
        return prefixes

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def k(self) -> int:
        """Step number (symbols per search iteration)."""
        return self._k

    @property
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""
        return self._n

    @property
    def max_sentinel(self) -> int:
        """The MAX value marking absent k-mers / list ends (``|G| + 1``)."""
        return self._max

    @property
    def kmer_count(self) -> int:
        """Number of k-mer slots in the base array (``4^k``)."""
        return int(self._bases.size)

    @property
    def increments(self) -> np.ndarray:
        """The concatenated increment array (read-only view)."""
        return self._increments

    @property
    def bases(self) -> np.ndarray:
        """Per-k-mer base pointers into the increment array."""
        return self._bases

    @property
    def suffix_array_(self) -> np.ndarray:
        """The underlying suffix array (for locate)."""
        return self._sa

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def frequency(self, kmer: str | int) -> int:
        """Number of increments (occurrences) of *kmer* in the table."""
        packed = self._packed(kmer)
        return int(self._counts[packed])

    def base(self, kmer: str | int) -> int:
        """Base pointer of *kmer* (``MAX`` when it has no increments)."""
        packed = self._packed(kmer)
        return int(self._bases[packed])

    def frequency_batch(self, kmers: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`frequency` over an array of packed codes."""
        return self._counts[np.asarray(kmers, dtype=np.int64)]

    def increments_of(self, kmer: str | int) -> np.ndarray:
        """The sorted increment list of *kmer* (possibly empty)."""
        packed = self._packed(kmer)
        count = int(self._counts[packed])
        if count == 0:
            return np.empty(0, dtype=np.int64)
        base = int(self._bases[packed])
        return self._increments[base : base + count]

    def occ(self, kmer: str | int, pos: int) -> int:
        """Occ(kmer, pos): increments of *kmer* strictly below *pos*."""
        if pos < 0 or pos > self._n:
            raise ValueError(f"pos {pos} out of range [0, {self._n}]")
        increments = self.increments_of(kmer)
        return int(np.searchsorted(increments, pos, side="left"))

    def occ_batch(self, kmers: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`occ` over aligned k-mer/position arrays.

        One global ``np.searchsorted`` resolves every request at once: the
        concatenated increment array is augmented (lazily, cached) with
        ``kmer * (|G| + 2)`` per entry, which makes it globally ascending
        — increments are already sorted within each k-mer's segment and
        segments are concatenated in packed order — so the rank of
        ``kmer * (|G| + 2) + pos`` minus the k-mer's segment offset is
        exactly ``Occ(kmer, pos)``.  Agrees exactly with per-request
        :meth:`occ` (pure integer rank queries on the same data).
        """
        kmers = np.asarray(kmers, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if kmers.shape != positions.shape:
            raise ValueError("kmers and positions must have identical shapes")
        if kmers.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(positions.min()) < 0 or int(positions.max()) > self._n:
            raise ValueError(f"positions out of range [0, {self._n}]")
        if int(kmers.min()) < 0 or int(kmers.max()) >= self._bases.size:
            raise ValueError("packed k-mer out of range")
        if self._augmented_increments is None:
            stride = self._n + 2
            owners = np.repeat(np.arange(self._counts.size, dtype=np.int64), self._counts)
            self._augmented_increments = self._increments + owners * stride
        stride = self._n + 2
        ranks = np.searchsorted(
            self._augmented_increments, kmers * stride + positions, side="left"
        )
        return ranks - self._kmer_rank_base[kmers]

    def count(self, kmer: str | int) -> int:
        """Count(kmer): rows whose suffix starts with a smaller prefix.

        Memoized per packed k-mer: the sentinel-prefix comparison is a
        Python string scan, and searches (sequential and batched alike)
        ask for the same few k-mers over and over.
        """
        packed = self._packed(kmer)
        cached = self._count_cache.get(packed)
        if cached is not None:
            return cached
        kmer_string = kmer if isinstance(kmer, str) else self.kmer_string(packed)
        sentinel_below = sum(1 for prefix in self._sentinel_prefixes if prefix < kmer_string)
        result = int(self._kmer_rank_base[packed]) + sentinel_below
        self._count_cache[packed] = result
        return result

    def occ_linear(self, kmer: str | int, pos: int, start: int = 0) -> tuple[int, int]:
        """Occ via linear scan from *start*, returning (occ, entries_read).

        Models the hardware's verify-and-linear-search fallback: the
        returned ``entries_read`` is the number of increment entries that
        had to be fetched.
        """
        increments = self.increments_of(kmer)
        start = max(0, min(start, len(increments)))
        # Scan backwards if we started past the answer, forwards otherwise.
        reads = 0
        idx = start
        if idx < len(increments) and increments[idx] < pos:
            while idx < len(increments) and increments[idx] < pos:
                idx += 1
                reads += 1
        else:
            while idx > 0 and increments[idx - 1] >= pos:
                idx -= 1
                reads += 1
        return idx, max(reads, 1)

    def prefix_interval(self, partial: str) -> tuple[int, int]:
        """BW-matrix interval of rows whose suffix starts with *partial*.

        Used for the trailing query chunk that is shorter than k: the
        interval bounds are derived from the per-k-mer occurrence counts
        (every DNA k-mer starting with *partial* lies in one contiguous
        packed range) plus the handful of sentinel-containing prefixes.
        """
        if not 0 < len(partial) <= self._k:
            raise ValueError("partial length must be in (0, k]")
        pad = self._k - len(partial)
        low_packed = pack_kmer(partial + "A" * pad)
        high_packed = pack_kmer(partial + "T" * pad)
        dna_below = int(self._kmer_rank_base[low_packed])
        dna_inside = int(
            self._counts[low_packed : high_packed + 1].sum()
        )
        sentinel_below = sum(
            1 for prefix in self._sentinel_prefixes if prefix[: len(partial)] < partial
        )
        sentinel_inside = sum(
            1 for prefix in self._sentinel_prefixes if prefix[: len(partial)] == partial
        )
        low = dna_below + sentinel_below
        high = low + dna_inside + sentinel_inside
        return low, high

    def count_table(self) -> np.ndarray:
        """Count(kmer) for every packed k-mer, vectorized (cached).

        Equivalent to calling :meth:`count` on each of the ``4^k`` codes:
        each sentinel-containing row prefix ``p`` (with its first ``$`` at
        offset ``j``) sorts below exactly the DNA k-mers whose packed code
        is at least ``pack(p[:j] + 'A' * (k - j))`` — the smallest k-mer
        sharing its DNA prefix — so each contributes one thresholded +1
        over the packed code range.
        """
        if self._count_table is None:
            counts = self._kmer_rank_base.copy()
            codes = np.arange(self._bases.size)
            for prefix in self._sentinel_prefixes:
                j = prefix.index(SENTINEL)
                threshold = pack_kmer(prefix[:j] + "A" * (self._k - j))
                counts += codes >= threshold
            self._count_table = counts
        return self._count_table

    def frequencies(self) -> np.ndarray:
        """Increment counts of all 4^k k-mers (the ``f_i`` of Fig. 8)."""
        return self._counts.copy()

    def frequencies_view(self) -> np.ndarray:
        """The per-k-mer increment counts without the defensive copy.

        For hot gather paths (:meth:`repro.exma.mtl_index.MTLIndex
        .predict_many`, the columnar replay); callers must not mutate it.
        """
        return self._counts

    def present_kmers(self) -> list[int]:
        """Packed codes of k-mers that occur at least once."""
        return [int(p) for p in np.flatnonzero(self._counts > 0)]

    def locate(self, low: int, high: int) -> list[int]:
        """Reference positions for BW-matrix rows in ``[low, high)``."""
        if low >= high:
            return []
        return sorted(int(self._sa[row]) for row in range(low, high))

    def _packed(self, kmer: str | int) -> int:
        if isinstance(kmer, str):
            if len(kmer) != self._k:
                raise ValueError(f"expected a {self._k}-mer, got {kmer!r}")
            packed = pack_kmer(kmer)
        else:
            packed = int(kmer)
        if packed < 0 or packed >= self._bases.size:
            raise ValueError(f"packed k-mer {packed} out of range")
        return packed

    def kmer_string(self, packed: int) -> str:
        """Unpack a packed k-mer code back to its string form."""
        return unpack_kmer(packed, self._k)

    def storage_bytes(self) -> int:
        """Bytes of the simulated table (8-byte entries, no compression)."""
        return int(self._increments.size * 8 + self._bases.size * 8 + self._counts.size * 8)
