"""LISA's Index-Paired BWT (IP-BWT) array.

LISA (Learned Indexes for Sequence Analysis, reference [28] of the paper)
supports multi-symbol backward search with a data structure that grows only
linearly in the step number k.  Each IP-BWT entry corresponding to
BW-matrix row ``i`` is the pair ``[kmer, N]`` where ``kmer`` is the first k
symbols of that row and ``N`` is the BW-matrix row of the rotation obtained
by moving those k symbols to the end (i.e. the row of the suffix starting k
positions later).  Because rows are sorted, the IP-BWT is sorted by
``(kmer, N)`` and one backward-search step is a lower-bound lookup of
``(query_kmer, pos)``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..genome.alphabet import SENTINEL
from ..index.fmindex import Interval
from ..index.suffix_array import inverse_suffix_array, suffix_array


@dataclass(frozen=True)
class IPBWTEntry:
    """One IP-BWT entry: the row's first k symbols and its paired row."""

    kmer: str
    paired_row: int

    def key(self) -> tuple[str, int]:
        """Sort/search key."""
        return (self.kmer, self.paired_row)


class IPBWT:
    """The IP-BWT array for a reference and step number k.

    Args:
        reference: DNA reference (sentinel appended internally).
        k: number of symbols consumed per backward-search step.
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
        self._sa = suffix_array(text)
        self._isa = inverse_suffix_array(self._sa)
        self._entries = self._build_entries()
        self._keys = [entry.key() for entry in self._entries]

    def _build_entries(self) -> list[IPBWTEntry]:
        entries = []
        doubled = self._text + self._text
        for row in range(self._n):
            pos = int(self._sa[row])
            kmer = doubled[pos : pos + self._k]
            paired = int(self._isa[(pos + self._k) % self._n])
            entries.append(IPBWTEntry(kmer=kmer, paired_row=paired))
        return entries

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, row: int) -> IPBWTEntry:
        return self._entries[row]

    @property
    def k(self) -> int:
        """Step number of this IP-BWT."""
        return self._k

    @property
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""
        return self._n

    def lower_bound(self, kmer: str, pos: int) -> int:
        """First row whose (kmer, paired_row) key is >= (kmer, pos).

        This is exactly one backward-search step of LISA:
        ``Count(kmer) + Occ(kmer, pos)``.
        """
        return bisect.bisect_left(self._keys, (kmer, pos))

    def locate(self, interval: Interval) -> list[int]:
        """Reference positions for a BW-matrix interval."""
        if interval.empty:
            return []
        return sorted(int(self._sa[row]) for row in range(interval.low, interval.high))

    def numeric_keys(self) -> np.ndarray:
        """Map each entry to a monotone float key for the learned index.

        The key packs the k-mer (symbols mapped to 0..4 with the sentinel
        as 0) and the paired row into a single number that preserves the
        (kmer, paired_row) order.
        """
        base = 5
        keys = np.empty(self._n, dtype=np.float64)
        for row, entry in enumerate(self._entries):
            value = 0
            for symbol in entry.kmer:
                value = value * base + (SENTINEL + "ACGT").index(symbol)
            keys[row] = value * (self._n + 1) + entry.paired_row
        return keys

    def numeric_key(self, kmer: str, pos: int) -> float:
        """Numeric key for a query pair, comparable with :meth:`numeric_keys`."""
        value = 0
        for symbol in kmer:
            value = value * 5 + (SENTINEL + "ACGT").index(symbol)
        return float(value * (self._n + 1) + pos)


def lisa_size_bytes(genome_length: int, k: int) -> int:
    """Analytic LISA (IP-BWT + learned index) size for a paper-scale genome.

    Each IP-BWT entry stores a k-mer (2 bits per symbol) and a paired row
    number (``ceil(log2 |G|)`` bits); the learned index adds roughly half a
    byte per entry (the paper reports ~1.5 GB for the 3 Gbp human genome).
    Grows linearly in k, matching Fig. 6(b).
    """
    if genome_length <= 0:
        raise ValueError("genome_length must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    row_bits = math.ceil(math.log2(genome_length + 1))
    entry_bits = 2 * k + row_bits
    ipbwt_bytes = genome_length * entry_bits / 8
    learned_index_bytes = genome_length * 0.5
    return int(ipbwt_bytes + learned_index_bytes)
