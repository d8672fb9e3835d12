"""LISA backward search: IP-BWT + learned index.

One LISA search iteration consumes k symbols: the query is split into
k-symbol chunks from the right; each chunk plus the current ``low`` /
``high`` pointer forms a key whose lower bound in the IP-BWT is the new
pointer value.  With an exact binary search each iteration costs
``log2 |G|`` comparisons; with the learned index it costs one prediction
plus a probe proportional to the prediction error.  Both paths are
implemented so the experiments can quantify the error-driven overhead
(Fig. 6(c)/(d)) exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genome.alphabet import SENTINEL
from ..index.fmindex import Interval
from .ipbwt import IPBWT
from .learned_index import RecursiveModelIndex


@dataclass
class LisaSearchStats:
    """Counters for LISA searches (per batch)."""

    iterations: int = 0
    binary_comparisons: int = 0
    index_predictions: int = 0
    extra_probes: int = 0
    probe_counts: list[int] = field(default_factory=list)

    @property
    def mean_probe(self) -> float:
        """Mean linear-search overhead per learned-index lookup."""
        if not self.probe_counts:
            return 0.0
        return float(np.mean(self.probe_counts))


class LisaIndex:
    """LISA search structure: an IP-BWT and an optional learned index.

    Args:
        reference: DNA reference string.
        k: symbols consumed per iteration (the paper evaluates 11/21/32).
        use_learned_index: when False, every lower bound is a binary
            search; when True, the RMI predicts and a probe corrects.
        fanout: RMI fanout; scaled with the IP-BWT size to keep the
            parameters-to-entries ratio fixed, as LISA does.
    """

    def __init__(
        self,
        reference: str,
        k: int,
        use_learned_index: bool = True,
        fanout: int | None = None,
    ) -> None:
        self._ipbwt = IPBWT(reference, k)
        self._use_learned = use_learned_index
        self._keys = self._ipbwt.numeric_keys()
        if use_learned_index:
            if fanout is None:
                fanout = max(4, len(self._ipbwt) // 256)
            self._rmi: RecursiveModelIndex | None = RecursiveModelIndex(
                self._keys, fanout=fanout
            )
        else:
            self._rmi = None

    @property
    def ipbwt(self) -> IPBWT:
        """The underlying IP-BWT array."""
        return self._ipbwt

    @property
    def k(self) -> int:
        """Symbols consumed per search iteration."""
        return self._ipbwt.k

    @property
    def learned_index(self) -> RecursiveModelIndex | None:
        """The RMI, when enabled."""
        return self._rmi

    def lower_bound(self, kmer: str, pos: int) -> tuple[int, int]:
        """Lower bound of (kmer, pos) plus its lookup cost.

        The cost is binary-search comparisons without the learned index,
        linear-probe length with it.  Shared by the sequential search and
        the batched :class:`~repro.engine.backends.LisaBackend`, so the
        two paths can never diverge on dispatch or cost accounting.
        """
        if self._rmi is None:
            comparisons = int(np.ceil(np.log2(len(self._ipbwt) + 1)))
            return self._ipbwt.lower_bound(kmer, pos), comparisons
        return self._rmi.lookup(self._ipbwt.numeric_key(kmer, pos))

    def padded_chunk(self, chunk: str, smallest: bool) -> str:
        """LISA's padding rule for a trailing chunk shorter than k."""
        pad = self.k - len(chunk)
        return chunk + (SENTINEL if smallest else "T") * pad

    def _lower_bound(self, kmer: str, pos: int, stats: LisaSearchStats | None) -> int:
        """Lower bound of (kmer, pos), via the learned index when enabled."""
        value, cost = self.lower_bound(kmer, pos)
        if stats is not None:
            if self._rmi is None:
                stats.binary_comparisons += cost
            else:
                stats.index_predictions += 1
                stats.extra_probes += cost
                stats.probe_counts.append(cost)
        return value

    def backward_search(self, query: str, stats: LisaSearchStats | None = None) -> Interval:
        """Find the BW-matrix interval of all occurrences of *query*.

        The query is split into k-symbol chunks from the left (matching the
        paper's "TAG -> TA, G" example); the trailing chunk — which is the
        only one that may be shorter than k — is processed first, against
        the full matrix, using LISA's smallest/largest-symbol padding.  The
        remaining full chunks are then consumed right to left.
        """
        if not query:
            raise ValueError("query must be non-empty")
        k = self.k
        length = len(query)
        leftover = length % k

        interval = self._ipbwt_full_interval()
        right = length
        if leftover:
            tail = query[length - leftover :]
            low = self._lower_bound_padded(tail, 0, smallest=True, stats=stats)
            high = self._lower_bound_padded(tail, len(self._ipbwt), smallest=False, stats=stats)
            interval = Interval(low, high)
            if stats is not None:
                stats.iterations += 1
            if interval.empty:
                return interval
            right -= leftover
        while right > 0:
            kmer = query[right - k : right]
            low = self._lower_bound(kmer, interval.low, stats)
            high = self._lower_bound(kmer, interval.high, stats)
            interval = Interval(low, high)
            if stats is not None:
                stats.iterations += 1
            if interval.empty:
                return interval
            right -= k
        return interval

    def _ipbwt_full_interval(self) -> Interval:
        return Interval(0, len(self._ipbwt))

    def _lower_bound_padded(
        self, chunk: str, pos: int, smallest: bool, stats: LisaSearchStats | None
    ) -> int:
        """Lower bound for a padded partial chunk (LISA's padding rule)."""
        return self._lower_bound(self.padded_chunk(chunk, smallest), pos, stats)

    def occurrence_count(self, query: str) -> int:
        """Number of occurrences of *query* in the reference."""
        return self.backward_search(query).count

    def find(self, query: str) -> list[int]:
        """All reference positions where *query* occurs (sorted)."""
        return self._ipbwt.locate(self.backward_search(query))
