"""1-step FM-Index: Occ/Count tables, bucket storage, backward search.

This is the conventional FM-Index the paper uses as its CPU/accelerator
baseline algorithm (``FM-1``): the BWT of the sentinel-terminated
reference, a ``Count`` table, an ``Occ`` table sampled into buckets of
width ``d`` (markers interleaved with BWT buckets, Fig. 3(f)), and the
backward-search loop of Fig. 3(d) that processes one DNA symbol per
iteration with two ``Occ`` lookups (``low`` and ``high``).

Searches can record a :class:`SearchTrace` of every Occ-bucket access,
which the hardware layer turns into DRAM row activations — this is what
produces the "197 distinct rows out of 200 iterations" behaviour of
Fig. 6(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genome.alphabet import FULL_ALPHABET, SENTINEL, encode
from .suffix_array import suffix_array
from .bwt import bwt_from_suffix_array

#: Default Occ sampling bucket width (markers every d BWT positions).
DEFAULT_BUCKET_WIDTH = 64


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open BW-matrix interval ``[low, high)``.

    Empty intervals (``low >= high``) mean the query does not occur.
    """

    low: int
    high: int

    @property
    def empty(self) -> bool:
        """True when the interval matches nothing."""
        return self.low >= self.high

    @property
    def count(self) -> int:
        """Number of occurrences represented by the interval."""
        return max(0, self.high - self.low)


@dataclass
class SearchTrace:
    """Memory accesses recorded during one backward search.

    ``bucket_accesses`` holds the Occ-bucket index touched by each Occ
    lookup, in issue order.  ``iterations`` counts backward-search steps
    (one per symbol for FM-1).  The hardware layer maps bucket indices to
    DRAM rows to evaluate row-buffer locality.
    """

    bucket_accesses: list[int] = field(default_factory=list)
    iterations: int = 0

    def record(self, bucket: int) -> None:
        """Record one Occ-bucket access."""
        self.bucket_accesses.append(bucket)


@dataclass(frozen=True)
class Seed:
    """A maximal exact match of a read substring against the reference."""

    read_start: int
    read_end: int
    interval: Interval

    @property
    def length(self) -> int:
        """Length of the matched substring."""
        return self.read_end - self.read_start


class FMIndex:
    """Conventional 1-step FM-Index over a DNA reference.

    Args:
        reference: reference string over ``ACGT`` (sentinel appended
            internally).
        bucket_width: Occ sampling distance ``d`` (Fig. 3(f)).
        sa_sample_rate: keep every ``sa_sample_rate``-th suffix-array entry
            for ``locate``; 1 keeps the full SA.
    """

    def __init__(
        self,
        reference: str,
        bucket_width: int = DEFAULT_BUCKET_WIDTH,
        sa_sample_rate: int = 1,
    ) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if sa_sample_rate <= 0:
            raise ValueError("sa_sample_rate must be positive")
        if not reference:
            raise ValueError("reference must be non-empty")

        text = reference if reference.endswith(SENTINEL) else reference + SENTINEL
        self._text = text
        self._sa = suffix_array(text)
        self._bwt = bwt_from_suffix_array(text, self._sa)
        self._bwt_codes = encode(self._bwt)
        self._n = len(text)
        self._bucket_width = bucket_width
        self._sa_sample_rate = sa_sample_rate

        self._count = self._build_count()
        self._occ_markers = self._build_occ_markers()
        self._occ_prefix: np.ndarray | None = None
        if sa_sample_rate == 1:
            self._sa_samples = self._sa
        else:
            self._sa_samples = self._sa[::sa_sample_rate]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _build_count(self) -> np.ndarray:
        """Count(s): number of symbols lexicographically smaller than s."""
        totals = np.bincount(self._bwt_codes, minlength=len(FULL_ALPHABET))
        return np.concatenate(([0], np.cumsum(totals)[:-1])).astype(np.int64)

    def _build_occ_markers(self) -> np.ndarray:
        """Occ markers sampled every ``bucket_width`` BWT positions.

        ``markers[b, s]`` is ``Occ(s, b * bucket_width)``.
        """
        n_buckets = (self._n + self._bucket_width - 1) // self._bucket_width + 1
        markers = np.zeros((n_buckets, len(FULL_ALPHABET)), dtype=np.int64)
        running = np.zeros(len(FULL_ALPHABET), dtype=np.int64)
        for i in range(self._n):
            if i % self._bucket_width == 0:
                markers[i // self._bucket_width] = running
            running[self._bwt_codes[i]] += 1
        markers[-1] = running
        return markers

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""
        return self._n

    @property
    def bwt(self) -> str:
        """The BWT string of the reference."""
        return self._bwt

    @property
    def bucket_count(self) -> int:
        """Number of Occ/BWT buckets in the index."""
        return (self._n + self._bucket_width - 1) // self._bucket_width

    # ------------------------------------------------------------------ #
    # Core FM-Index operations
    # ------------------------------------------------------------------ #

    def count(self, symbol: str) -> int:
        """Count(s): symbols in the BWT lexicographically smaller than s."""
        return int(self._count[FULL_ALPHABET.index(symbol)])

    def occ(self, symbol: str, position: int, trace: SearchTrace | None = None) -> int:
        """Occ(s, i): occurrences of *symbol* in ``BWT[0:position]``."""
        if position < 0 or position > self._n:
            raise ValueError(f"position {position} out of range [0, {self._n}]")
        code = FULL_ALPHABET.index(symbol)
        bucket = position // self._bucket_width
        if trace is not None:
            trace.record(bucket)
        base = int(self._occ_markers[bucket, code])
        start = bucket * self._bucket_width
        if position > start:
            base += int(np.count_nonzero(self._bwt_codes[start:position] == code))
        return base

    def occ_prefix_sums(self) -> np.ndarray:
        """Dense cumulative Occ table for vectorized batched lookups.

        ``occ_prefix_sums()[pos, code]`` equals ``Occ(symbol, pos)``.  This
        is the batched engine's mirror of the bucketed Occ of Fig. 3(f):
        the simulated hardware still models ``bucket_width``-sampled
        markers through :meth:`occ` and :class:`SearchTrace`, while the
        lockstep core answers all live queries' lookups with one
        fancy-indexing gather instead of a Python loop.  Built lazily,
        cached for the index lifetime; costs
        ``(n + 1) * |alphabet| * 4`` bytes.
        """
        if self._occ_prefix is None:
            prefix = np.zeros((self._n + 1, len(FULL_ALPHABET)), dtype=np.int32)
            for code in range(len(FULL_ALPHABET)):
                np.cumsum(self._bwt_codes == code, out=prefix[1:, code])
            self._occ_prefix = prefix
        return self._occ_prefix

    @property
    def count_table(self) -> np.ndarray:
        """Count(s) for every symbol code, indexable by encoded symbol."""
        return self._count

    def full_interval(self) -> Interval:
        """The interval covering every BW-matrix row."""
        return Interval(0, self._n)

    def extend_backward(
        self, interval: Interval, symbol: str, trace: SearchTrace | None = None
    ) -> Interval:
        """One backward-search step: prepend *symbol* to the match."""
        count = self.count(symbol)
        low = count + self.occ(symbol, interval.low, trace)
        high = count + self.occ(symbol, interval.high, trace)
        return Interval(low, high)

    def backward_search(self, query: str, trace: SearchTrace | None = None) -> Interval:
        """Find the BW-matrix interval of all occurrences of *query*.

        Implements the loop of Fig. 3(d): iterate symbols from the last to
        the first, shrinking ``(low, high)``; an empty interval aborts.
        """
        if not query:
            raise ValueError("query must be non-empty")
        interval = self.full_interval()
        for symbol in reversed(query):
            interval = self.extend_backward(interval, symbol, trace)
            if trace is not None:
                trace.iterations += 1
            if interval.empty:
                return interval
        return interval

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        """Convert a BW-matrix interval to reference positions via the SA."""
        if interval.empty:
            return []
        stop = interval.high if limit is None else min(interval.high, interval.low + limit)
        positions = []
        for row in range(interval.low, stop):
            positions.append(self._locate_row(row))
        return sorted(positions)

    def _locate_row(self, row: int) -> int:
        """Resolve one BW-matrix row to a reference position."""
        if self._sa_sample_rate == 1:
            return int(self._sa[row])
        steps = 0
        current = row
        while current % self._sa_sample_rate != 0:
            symbol = self._bwt[current]
            code = FULL_ALPHABET.index(symbol)
            current = int(self._count[code]) + self.occ(symbol, current)
            steps += 1
        return (int(self._sa_samples[current // self._sa_sample_rate]) + steps) % self._n

    def find(self, query: str, limit: int | None = None) -> list[int]:
        """All reference positions where *query* occurs (sorted)."""
        return self.locate(self.backward_search(query), limit=limit)

    def occurrence_count(self, query: str) -> int:
        """Number of occurrences of *query* in the reference."""
        return self.backward_search(query).count

    # ------------------------------------------------------------------ #
    # Seeding
    # ------------------------------------------------------------------ #

    def maximal_exact_matches(self, read: str, min_length: int = 10) -> list[Seed]:
        """Greedy maximal exact matches used as alignment seeds.

        Starting from the read's last position, extend a match backward as
        far as the interval stays non-empty, emit the maximal match if long
        enough, then restart just before the failing position.  This is the
        backward-search approximation of BWA-MEM's SMEM seeding: seeds do
        not overlap and each is maximal to the left.
        """
        seeds: list[Seed] = []
        end = len(read)
        while end > 0:
            interval = self.full_interval()
            start = end
            last_good = None
            while start > 0:
                symbol = read[start - 1]
                if symbol not in FULL_ALPHABET or symbol == SENTINEL:
                    break
                nxt = self.extend_backward(interval, symbol)
                if nxt.empty:
                    break
                interval = nxt
                start -= 1
                last_good = interval
            if last_good is not None and end - start >= min_length:
                seeds.append(Seed(read_start=start, read_end=end, interval=last_good))
            # Restart before the current seed (non-overlapping seeds).
            end = start if start < end else end - 1
        return list(reversed(seeds))

    # ------------------------------------------------------------------ #
    # Size model
    # ------------------------------------------------------------------ #
