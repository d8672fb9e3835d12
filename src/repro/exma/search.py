"""EXMA backward search over an EXMA table.

Each iteration consumes one k-mer of the query and updates the
``(low, high)`` interval with ``Count(kmer) + Occ(kmer, pos)``; the
``Occ`` rank can be answered exactly (sorted-array search), with the naive
per-k-mer learned index, or with the MTL index followed by a
verify-and-linear-search step (Section IV-B "Inference").  The search
records the request stream (k-mer, pos) pairs and the memory-side costs
(increment entries fetched, index nodes touched) that drive the hardware
model and the Fig. 12/18 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..index.fmindex import Interval
from .table import ExmaTable


class OccIndex(Protocol):
    """Anything that can predict positions within increment lists.

    The contract has a scalar and a columnar face that must agree exactly:
    the sequential :class:`ExmaSearch` asks one request at a time
    (``has_model`` / ``predict``), while the batched engine and the
    accelerator replay classify a whole request column with one gather
    through ``modelled_lookup`` and price all its modelled requests with
    one ``predict_many``.
    """

    def predict(self, kmer: str | int, pos: int) -> int:  # pragma: no cover - protocol
        """Predicted index of *pos* within the k-mer's increment list."""

    def has_model(self, packed: int) -> bool:  # pragma: no cover - protocol
        """Whether this index models the k-mer."""

    def predict_many(
        self, kmers: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - protocol
        """:meth:`predict` over aligned arrays of *modelled* packed k-mers
        and positions, as an int64 array."""

    def modelled_lookup(self, kmer_count: int) -> np.ndarray:  # pragma: no cover - protocol
        """:meth:`has_model` as a boolean mask over all ``kmer_count`` codes."""


@dataclass(frozen=True)
class OccRequest:
    """One Occ lookup request: the (k-mer, pos) pair of Fig. 14/15."""

    packed_kmer: int
    pos: int


@dataclass
class ExmaSearchStats:
    """Counters for EXMA searches (accumulated over a batch)."""

    iterations: int = 0
    occ_lookups: int = 0
    base_reads: int = 0
    increment_entries_read: int = 0
    index_predictions: int = 0
    prediction_errors: list[int] = field(default_factory=list)
    requests: list[OccRequest] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        """Mean prediction error across learned-index lookups."""
        if not self.prediction_errors:
            return 0.0
        return sum(self.prediction_errors) / len(self.prediction_errors)


class ExmaSearch:
    """Backward search over an :class:`ExmaTable`.

    Args:
        table: the EXMA table.
        index: optional learned / MTL index used to predict Occ positions;
            when omitted every Occ is an exact sorted-array rank query.
    """

    def __init__(self, table: ExmaTable, index: OccIndex | None = None) -> None:
        self._table = table
        self._index = index

    @property
    def table(self) -> ExmaTable:
        """The searched EXMA table."""
        return self._table

    def _occ(self, packed: int, pos: int, stats: ExmaSearchStats | None) -> int:
        """One Occ lookup, modelling the predict/verify/linear-search path."""
        if stats is not None:
            stats.occ_lookups += 1
            stats.base_reads += 1
            stats.requests.append(OccRequest(packed_kmer=packed, pos=pos))
        if self._index is None or not self._index.has_model(packed):
            true_index = self._table.occ(packed, pos)
            if stats is not None:
                # Exact search over a short list: count the entries binary
                # search would touch (log2 of the list length, at least 1).
                count = self._table.frequency(packed)
                stats.increment_entries_read += max(1, count.bit_length())
            return true_index
        predicted = self._index.predict(packed, pos)
        true_index = self._table.occ(packed, pos)
        error = abs(true_index - predicted)
        if stats is not None:
            stats.index_predictions += 1
            stats.prediction_errors.append(error)
            # The hardware reads the predicted entry and its successor,
            # then linearly searches |error| further entries when wrong.
            stats.increment_entries_read += 2 + error
        return true_index

    def extend(self, kmer: str, interval: Interval, stats: ExmaSearchStats | None = None) -> Interval:
        """One backward-search iteration consuming *kmer*."""
        if len(kmer) != self._table.k:
            raise ValueError(f"expected a {self._table.k}-mer, got {kmer!r}")
        packed = self._table._packed(kmer)
        count = self._table.count(packed)
        low = count + self._occ(packed, interval.low, stats)
        high = count + self._occ(packed, interval.high, stats)
        if stats is not None:
            stats.iterations += 1
        return Interval(low, high)

    def backward_search(self, query: str, stats: ExmaSearchStats | None = None) -> Interval:
        """Find the BW-matrix interval of all occurrences of *query*.

        The query is split into k-symbol chunks from the left; the trailing
        chunk (possibly shorter than k) is resolved first directly from the
        per-k-mer counts, then full chunks are consumed right to left.
        """
        if not query:
            raise ValueError("query must be non-empty")
        k = self._table.k
        length = len(query)
        leftover = length % k

        interval = Interval(0, self._table.reference_length)
        right = length
        if leftover:
            low, high = self._table.prefix_interval(query[length - leftover :])
            interval = Interval(low, high)
            if stats is not None:
                stats.iterations += 1
                stats.base_reads += 1
            if interval.empty:
                return interval
            right -= leftover
        while right > 0:
            interval = self.extend(query[right - k : right], interval, stats)
            if interval.empty:
                return interval
            right -= k
        return interval

    def occurrence_count(self, query: str) -> int:
        """Number of occurrences of *query* in the reference."""
        return self.backward_search(query).count

    def find(self, query: str) -> list[int]:
        """All reference positions where *query* occurs (sorted)."""
        interval = self.backward_search(query)
        return self._table.locate(interval.low, interval.high)

    def request_stream(self, queries: list[str]) -> tuple[list[OccRequest], ExmaSearchStats]:
        """Run a batch of queries, returning the Occ request stream.

        The request stream — every (k-mer, pos) pair in issue order — is
        the input to the accelerator model's scheduling queue.
        """
        stats = ExmaSearchStats()
        for query in queries:
            self.backward_search(query, stats)
        return stats.requests, stats
