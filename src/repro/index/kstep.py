"""k-step FM-Index: search k DNA symbols per iteration.

The k-step FM-Index (Chacon et al., reference [36] of the paper) enlarges
the alphabet from :math:`\\Sigma` to :math:`\\Sigma^k` so each backward
search iteration consumes a k-mer instead of a single symbol, cutting the
number of memory accesses per query from ``2|Q|`` to ``2|Q|/k``.  The cost
is an exponentially growing Occ table — Eq. 2 of the paper, reproduced by
:func:`kstep_size_bytes` and used directly for Fig. 6(b).

The functional implementation here builds the enlarged-alphabet Occ/Count
structures on top of the plain suffix array: the rank of a k-mer-prefixed
suffix interval is computed exactly as in the 1-step case but with k-mer
comparisons.  Queries whose length is not a multiple of k fall back to
single-symbol steps for the leftover prefix, matching the reference
implementation's behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..genome.alphabet import SENTINEL
from .fmindex import Interval
from .suffix_array import inverse_suffix_array, suffix_array

#: Alphabet size used by the paper's size formula (A, C, G, T).
SIGMA = 4


def kstep_size_bytes(
    genome_length: int, k: int, bucket_width: int = 64
) -> int:
    """Eq. 2 of the paper: k-step FM-Index size in bytes.

    ``F = ceil(log2 |G|) * |G| * |Sigma|^k / (8 d) + |G| * ceil(log2(|Sigma|^k + 1)) / 8``
    """
    if genome_length <= 0:
        raise ValueError("genome_length must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    log_g = math.ceil(math.log2(genome_length))
    markers = log_g * genome_length * (SIGMA**k) / (8 * bucket_width)
    bwt = genome_length * math.ceil(math.log2(SIGMA**k + 1)) / 8
    return int(markers + bwt)


@dataclass
class KStepStats:
    """Counters for one k-step backward search."""

    iterations: int = 0
    occ_lookups: int = 0


class KStepFMIndex:
    """k-step FM-Index over a DNA reference.

    The implementation keeps the sorted suffix array and answers
    ``Occ(kmer, i)`` queries by counting, within the first ``i`` rows of
    the BW-matrix, how many rows are preceded by ``kmer`` — which is the
    enlarged-alphabet generalisation of the 1-step Occ table.  For the
    simulated genome sizes used in experiments this is exact and fast
    enough; the paper-scale storage cost is modelled analytically by
    :func:`kstep_size_bytes`.
    """

    def __init__(self, reference: str, k: int, bucket_width: int = 64) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if not reference:
            raise ValueError("reference must be non-empty")
        self._k = k
        self._bucket_width = bucket_width
        text = reference if reference.endswith(SENTINEL) else reference + SENTINEL
        self._text = text
        self._n = len(text)
        self._sa = suffix_array(text)
        # Sorted array of the k symbols preceding each suffix (circularly),
        # i.e. the k-step generalisation of the BWT column, stored per row.
        self._preceding = self._build_preceding_kmers()
        # Per-k-mer sorted row lists, so Occ(kmer, i) is a binary search.
        self._rows_by_kmer: dict[str, np.ndarray] = {}
        for row, kmer in enumerate(self._preceding):
            self._rows_by_kmer.setdefault(kmer, []).append(row)  # type: ignore[arg-type]
        self._rows_by_kmer = {
            kmer: np.array(rows, dtype=np.int64) for kmer, rows in self._rows_by_kmer.items()
        }

    def _build_preceding_kmers(self) -> list[str]:
        """For each BW-matrix row, the k symbols circularly preceding it."""
        text = self._text
        n = self._n
        k = self._k
        doubled = text + text
        preceding = []
        for pos in self._sa:
            start = (int(pos) - k) % n
            preceding.append(doubled[start : start + k])
        return preceding

    @property
    def k(self) -> int:
        """Number of DNA symbols consumed per search iteration."""
        return self._k

    @property
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""
        return self._n

    def full_interval(self) -> Interval:
        """The interval covering every BW-matrix row."""
        return Interval(0, self._n)

    def _count_kmer(self, kmer: str) -> int:
        """Count(kmer): rows of the BW-matrix starting with a smaller k-mer."""
        # Rows are sorted by suffix, so rows whose suffix starts with a
        # k-mer lexicographically smaller than *kmer* form a prefix of the
        # matrix.  Binary search over suffix prefixes.
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._suffix_prefix(mid) < kmer:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _suffix_prefix(self, row: int) -> str:
        """First k symbols of the suffix at *row* (sentinel-padded)."""
        pos = int(self._sa[row])
        prefix = self._text[pos : pos + self._k]
        if len(prefix) < self._k:
            prefix = prefix + SENTINEL * (self._k - len(prefix))
        return prefix

    def _occ_kmer(self, kmer: str, position: int, stats: KStepStats | None) -> int:
        """Occ(kmer, i): rows < i whose preceding k symbols equal *kmer*."""
        if stats is not None:
            stats.occ_lookups += 1
        rows = self._rows_by_kmer.get(kmer)
        if rows is None:
            return 0
        return int(np.searchsorted(rows, position, side="left"))

    def extend_backward(
        self, interval: Interval, kmer: str, stats: KStepStats | None = None
    ) -> Interval:
        """One k-step backward-search step consuming *kmer*."""
        if len(kmer) != self._k:
            raise ValueError(f"expected a {self._k}-mer, got {kmer!r}")
        count = self._count_kmer(kmer)
        low = count + self._occ_kmer(kmer, interval.low, stats)
        high = count + self._occ_kmer(kmer, interval.high, stats)
        return Interval(low, high)

    def backward_search(self, query: str, stats: KStepStats | None = None) -> Interval:
        """Backward search consuming k symbols per iteration.

        A leftover prefix shorter than k is handled with a direct binary
        search over suffixes prefixed by the partial query, matching how
        reference k-step implementations finish odd-length queries.
        """
        if not query:
            raise ValueError("query must be non-empty")
        interval = self.full_interval()
        pos = len(query)
        while pos >= self._k:
            kmer = query[pos - self._k : pos]
            interval = self.extend_backward(interval, kmer, stats)
            if stats is not None:
                stats.iterations += 1
            pos -= self._k
            if interval.empty:
                return interval
        if pos > 0:
            interval = self._refine_with_prefix(query[:pos], interval, stats)
        return interval

    def _refine_with_prefix(
        self, prefix: str, interval: Interval, stats: KStepStats | None
    ) -> Interval:
        """Narrow *interval* to rows whose suffix starts with prefix+current."""
        # The current interval covers rows whose suffixes start with the
        # already-matched portion of the query.  Prepending a partial
        # prefix p (|p| < k) keeps rows r such that the suffix starting at
        # SA[r] - |p| begins with p followed by the matched portion; count
        # them via the preceding-k-mer column.
        if stats is not None:
            stats.iterations += 1
            stats.occ_lookups += 2
        plen = len(prefix)
        matched_rows = []
        for row in range(interval.low, interval.high):
            preceding = self._preceding[row]
            if preceding[self._k - plen :] == prefix:
                matched_rows.append(row)
        if not matched_rows:
            return Interval(interval.low, interval.low)
        # Map each surviving row to the row of the extended match.
        extended_rows = []
        for row in matched_rows:
            pos = (int(self._sa[row]) - plen) % self._n
            extended_rows.append(self._row_of_position(pos))
        extended_rows.sort()
        return Interval(extended_rows[0], extended_rows[-1] + 1)

    def _row_of_position(self, position: int) -> int:
        """BW-matrix row whose suffix starts at *position*."""
        if not hasattr(self, "_isa"):
            self._isa = inverse_suffix_array(self._sa)
        return int(self._isa[position])

    def occurrence_count(self, query: str) -> int:
        """Number of occurrences of *query* in the reference."""
        return self.backward_search(query).count

    def locate(self, interval: Interval) -> list[int]:
        """Reference positions for a BW-matrix interval."""
        if interval.empty:
            return []
        return sorted(int(self._sa[row]) for row in range(interval.low, interval.high))

    def find(self, query: str) -> list[int]:
        """All reference positions where *query* occurs (sorted)."""
        return self.locate(self.backward_search(query))

    def iterations_for_query(self, query_length: int) -> int:
        """Number of backward-search iterations a query of this length needs."""
        full, leftover = divmod(query_length, self._k)
        return full + (1 if leftover else 0)
