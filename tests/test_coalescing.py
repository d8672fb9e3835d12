"""Request-coalescing and BatchStats tests against hand-computed oracles.

The tiny-reference cases are worked out by hand: for identical queries
every lockstep iteration issues ``2 * batch`` requests that collapse to
exactly 2 unique ``(k-mer, pos)`` pairs, so all counters are known in
closed form and asserted literally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import ExmaBackend, FMIndexBackend
from repro.engine.coalesce import (
    BatchStats,
    BatchTrace,
    RequestStream,
    TailContribution,
    coalesce_requests,
)
from repro.exma.learned_index import NaiveLearnedIndex
from repro.exma.mtl_index import MTLIndex
from repro.exma.search import ExmaSearch, ExmaSearchStats, OccRequest
from repro.exma.table import ExmaTable
from repro.genome.sequence import RepeatProfile, random_genome
from repro.testing import backend_search, random_queries

#: 8 bp toy reference; sentinel-terminated length n = 9.
TINY = "ACGTACGT"


class TestCoalesceRequests:
    def test_duplicates_merge_exactly_once(self):
        kmers = np.array([7, 7, 3, 7, 3])
        positions = np.array([4, 4, 0, 4, 0])
        step = coalesce_requests(kmers, positions, span=10)
        assert step.issued == 5
        assert step.unique == 2
        # Unique pairs come back sorted (kmer, pos)-major.
        assert step.kmers.tolist() == [3, 7]
        assert step.positions.tolist() == [0, 4]

    def test_scatter_routes_results_to_all_issuers(self):
        kmers = np.array([1, 2, 1])
        positions = np.array([5, 6, 5])
        step = coalesce_requests(kmers, positions, span=10)
        unique_values = np.array([100, 200])  # for (1,5) and (2,6)
        assert step.scatter(unique_values).tolist() == [100, 200, 100]

    def test_distinct_pairs_untouched(self):
        kmers = np.array([1, 1, 2])
        positions = np.array([0, 1, 0])
        step = coalesce_requests(kmers, positions, span=10)
        assert step.issued == step.unique == 3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            coalesce_requests(np.array([1]), np.array([1, 2]), span=10)


class TestExmaCoalescingOracle:
    """Three identical 'ACGT' queries over ACGTACGT, k = 2 — by hand.

    Each query splits into the chunks GT (first) then AC; both chunks
    occur twice in the reference so every query stays live for both
    steps.  Identical queries track identical intervals, so each step's
    6 issued requests collapse to 2 unique pairs:

    * step 1: (GT, 0) and (GT, 9) — the full-matrix bounds;
    * step 2: (AC, low) and (AC, high) of the shared GT interval.
    """

    @pytest.fixture(scope="class")
    def table(self) -> ExmaTable:
        return ExmaTable(TINY, k=2)

    def test_premise_chunk_frequencies(self, table):
        # Both chunks occur exactly twice — the entry counts the
        # increment-read oracle below relies on.
        assert table.frequency("GT") == 2
        assert table.frequency("AC") == 2

    def test_counters_match_hand_oracle(self, table):
        stats = BatchStats()
        backend = ExmaBackend(table=table)
        intervals = backend_search(backend, ["ACGT", "ACGT", "ACGT"], stats)

        assert stats.queries == 3
        assert stats.lockstep_iterations == 2          # GT step, AC step
        assert stats.iterations == 6                   # 3 queries x 2 steps
        assert stats.occ_requests_issued == 12         # 2 per query per step
        assert stats.occ_requests_unique == 4          # 2 unique per step
        assert stats.coalescing_factor == pytest.approx(3.0)
        assert stats.base_reads == 2                   # one fetch of GT, one of AC
        # Exact resolution reads ceil-log2 of the 2-entry list per unique
        # request: bit_length(2) = 2 entries x 4 unique requests.
        assert stats.increment_entries_read == 8
        assert stats.index_predictions == 0

        # All three queries agree and are correct: ACGT occurs at 0 and 4.
        positions = [backend.locate(interval) for interval in intervals]
        assert positions == [[0, 4]] * 3

    def test_coalesced_request_stream_equals_single_query_stream(self, table):
        """Duplicates merge to exactly the one-query request stream."""
        single_requests, _ = ExmaSearch(table).request_stream(["ACGT"])
        stats = BatchStats()
        backend_search(ExmaBackend(table=table), ["ACGT"] * 3, stats)
        # Same pairs per step; the engine orders each step k-mer-major.
        assert stats.requests == single_requests

    def test_first_step_full_matrix_bounds(self, table):
        stats = BatchStats()
        backend_search(ExmaBackend(table=table), ["ACGT", "ACGT"], stats)
        n = table.reference_length
        first_step = stats.requests[:2]
        assert first_step == [
            OccRequest(packed_kmer=11, pos=0),   # GT packs to 0b1011 = 11
            OccRequest(packed_kmer=11, pos=n),
        ]


class _CountingIndex:
    """Wraps an Occ index, counting calls into each face of the contract."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = {"predict": 0, "has_model": 0, "predict_many": 0}

    def predict(self, kmer, pos):
        self.calls["predict"] += 1
        return self.inner.predict(kmer, pos)

    def has_model(self, packed):
        self.calls["has_model"] += 1
        return self.inner.has_model(packed)

    def predict_many(self, kmers, positions):
        self.calls["predict_many"] += 1
        return self.inner.predict_many(kmers, positions)

    def modelled_lookup(self, kmer_count):
        return self.inner.modelled_lookup(kmer_count)


class TestColumnarStepAccounting:
    """The lockstep loop prices a whole step through the index's columnar
    face; the sequential :class:`ExmaSearch` (scalar face) is the spec."""

    K = 4

    @pytest.fixture(scope="class")
    def reference(self) -> str:
        return random_genome(
            3000,
            repeat_profile=RepeatProfile(repeat_fraction=0.6, repeat_unit_length=90),
            seed=13,
        )

    @pytest.fixture(scope="class")
    def table(self, reference) -> ExmaTable:
        return ExmaTable(reference, k=self.K)

    @pytest.fixture(scope="class")
    def threshold(self, table) -> int:
        present = table.frequencies()[table.present_kmers()]
        return int(np.median(present))

    @pytest.fixture(scope="class", params=["exma", "exma-learned", "exma-mtl"])
    def index(self, request, table, threshold):
        if request.param == "exma-learned":
            return NaiveLearnedIndex(table, model_threshold=threshold, increments_per_leaf=8)
        if request.param == "exma-mtl":
            return MTLIndex(
                table, model_threshold=threshold, samples_per_kmer=16, epochs=20, seed=2
            )
        return None

    @pytest.fixture(scope="class")
    def batches(self, reference, table, threshold) -> dict[str, list[str]]:
        k = self.K
        light = [table.kmer_string(p) for p in table.present_kmers()
                 if table.frequency(p) <= threshold]
        heavy = [table.kmer_string(p) for p in table.present_kmers()
                 if table.frequency(p) > threshold]
        ragged = [
            reference[start : start + length]
            for length in range(1, 3 * k + 3)  # shorter than k, multiples, leftovers
            for start in (7, 411, 1503)
        ]
        # Mutated reads die mid-way; random ones usually at the first chunk.
        ragged += random_queries(
            reference, count=30, length=3 * k + 1, seed=5, mutate_fraction=0.6
        )
        return {
            "ragged": ragged,
            # Step 0 consumes each query's last chunk: a batch ending in
            # light k-mers has a first step with no modelled request, a
            # batch ending in heavy ones a first step with nothing else.
            "light-last": [heavy[i] + light[i] for i in range(6)] + light[:6],
            "heavy-last": [light[i] + heavy[i] for i in range(6)] + heavy[:6],
        }

    def test_batch_of_one_equals_sequential_counters(self, table, index, batches):
        backend = ExmaBackend(table=table, index=index)
        for queries in batches.values():
            requests, sequential = ExmaSearch(table, index).request_stream(queries)
            merged = BatchStats()
            for query in queries:
                one = BatchStats()
                backend_search(backend, [query], one)
                merged.merge(one)
            assert merged.iterations == sequential.iterations
            assert merged.occ_requests_unique == sequential.occ_lookups
            assert merged.increment_entries_read == sequential.increment_entries_read
            assert merged.index_predictions == sequential.index_predictions
            assert merged.prediction_errors == sequential.prediction_errors
            assert merged.requests == requests
            # One base fetch per k-mer step or tail; the sequential path
            # charges one per Occ lookup instead (two per step).
            assert merged.base_reads == merged.iterations

    def test_coalesced_batch_equals_scalar_accounting_of_its_stream(
        self, table, index, batches
    ):
        """Whole batches mix modelled and unmodelled k-mers inside a step:
        every unique request must cost what the scalar path charges it,
        and prediction errors must come out in stream order."""
        backend = ExmaBackend(table=table, index=index)
        search = ExmaSearch(table, index)
        shapes = set()
        for queries in batches.values():
            stats = BatchStats(trace=BatchTrace())
            backend_search(backend, queries, stats)
            oracle = ExmaSearchStats()
            for request in stats.requests:
                search._occ(request.packed_kmer, request.pos, oracle)
            assert stats.increment_entries_read == oracle.increment_entries_read
            assert stats.index_predictions == oracle.index_predictions
            assert stats.prediction_errors == oracle.prediction_errors
            assert stats.base_reads == len(stats.trace.tails) + sum(
                np.unique(step.keys // (table.reference_length + 1)).size
                for step in stats.trace.steps
            )
            # Each traced step priced alone covers every shape a step's
            # modelled mask can take.
            for step in stats.trace.steps:
                contribution = backend._step_contribution(step.keys, step.occ)
                predicted = contribution.predicted
                assert (predicted is None) == (contribution.errors is None)
                shapes.add(
                    "none" if predicted is None else "all" if predicted.all() else "mixed"
                )
        assert shapes == ({"none"} if index is None else {"none", "all", "mixed"})

    def test_one_predict_many_per_step_and_no_scalar_calls(self, table, threshold, batches):
        """Regression: the step loop used to call the index once per
        distinct k-mer (and ``has_model`` once per k-mer) per step."""
        index = _CountingIndex(NaiveLearnedIndex(table, model_threshold=threshold))
        backend = ExmaBackend(table=table, index=index)
        stats = BatchStats()
        backend_search(backend, batches["ragged"], stats)
        assert stats.index_predictions > 0
        assert 0 < index.calls["predict_many"] <= stats.lockstep_iterations
        assert index.calls["predict"] == index.calls["has_model"] == 0


class TestFMIndexCoalescingOracle:
    """CGT and AGT over ACGTACGT — by hand, symbol-per-step.

    Processing right to left, both queries consume T then G with
    identical intervals (same symbol from the same full matrix), so
    steps 1 and 2 each collapse 4 issued requests to 2 unique; the final
    symbols C vs A differ, so step 3 keeps all 4.
    """

    def test_counters_match_hand_oracle(self):
        stats = BatchStats()
        backend = FMIndexBackend(TINY)
        backend_search(backend, ["CGT", "AGT"], stats)
        assert stats.queries == 2
        assert stats.lockstep_iterations == 3
        assert stats.occ_requests_issued == 12
        assert stats.occ_requests_unique == 2 + 2 + 4

    def test_identical_queries_fully_coalesce(self):
        stats = BatchStats()
        backend = FMIndexBackend(TINY)
        batch = ["ACGT"] * 8
        intervals = backend_search(backend, batch, stats)
        assert stats.occ_requests_issued == 8 * 2 * 4
        assert stats.occ_requests_unique == 2 * 4
        assert stats.coalescing_factor == pytest.approx(8.0)
        assert all((i.low, i.high) == (intervals[0].low, intervals[0].high) for i in intervals)


class TestRequestStream:
    """The columnar request stream and its lazy OccRequest view.

    Steps are appended as packed ``kmer * span + pos`` keys (span 10
    here): (3, 0) and (7, 4) in the first step, (1, 9) in the second.
    """

    def _stream(self) -> RequestStream:
        stream = RequestStream()
        stream.append_step(np.array([3 * 10 + 0, 7 * 10 + 4]), 10)
        stream.append_step(np.array([1 * 10 + 9]), 10)
        return stream

    def test_len_and_lazy_view(self):
        stream = self._stream()
        assert len(stream) == 3
        assert list(stream) == [
            OccRequest(packed_kmer=3, pos=0),
            OccRequest(packed_kmer=7, pos=4),
            OccRequest(packed_kmer=1, pos=9),
        ]
        assert stream[1] == OccRequest(packed_kmer=7, pos=4)
        assert stream[:2] == [
            OccRequest(packed_kmer=3, pos=0),
            OccRequest(packed_kmer=7, pos=4),
        ]

    def test_view_cache_invalidated_by_growth(self):
        stream = self._stream()
        first = stream.materialize()
        assert stream.materialize() is first  # cached while unchanged
        stream.append_step(np.array([2 * 10 + 2]), 10)
        assert len(stream) == 4
        assert stream[-1] == OccRequest(packed_kmer=2, pos=2)

    def test_equality_against_streams_and_lists(self):
        stream = self._stream()
        assert stream == self._stream()
        assert stream == list(stream)
        other = self._stream()
        other.append_step(np.array([9 * 10 + 9]), 10)
        assert stream != other
        assert stream != list(other)

    def test_extend_concatenates_columns(self):
        stream = self._stream()
        stream.extend(self._stream())
        assert len(stream) == 6
        assert stream.kmers.tolist() == [3, 7, 1, 3, 7, 1]
        assert stream.positions.tolist() == [0, 4, 9, 0, 4, 9]
        stream.extend([OccRequest(packed_kmer=5, pos=5)])
        assert stream[-1] == OccRequest(packed_kmer=5, pos=5)

    def test_columns_round_trip_through_engine(self):
        stats = BatchStats()
        table = ExmaTable(TINY, k=2)
        backend_search(ExmaBackend(table=table), ["ACGT", "ACGT"], stats)
        stream = stats.requests
        assert isinstance(stream, RequestStream)
        assert len(stream) == stats.occ_requests_unique
        assert stream.kmers.tolist() == [r.packed_kmer for r in stream]
        assert stream.positions.tolist() == [r.pos for r in stream]


class TestBatchStats:
    def test_merge_accumulates(self):
        a, b = BatchStats(), BatchStats()
        a.queries, b.queries = 2, 3
        a.occ_requests_issued, b.occ_requests_issued = 10, 6
        a.occ_requests_unique, b.occ_requests_unique = 5, 2
        a.record_tail("A", TailContribution(predictions=1, errors=(1,)))
        b.record_tail("C", TailContribution(predictions=2, errors=(2, 3)))
        a.requests = [OccRequest(packed_kmer=1, pos=0)]
        b.requests = [OccRequest(packed_kmer=2, pos=1)]
        a.merge(b)
        assert a.queries == 5
        assert a.occ_requests_issued == 16
        assert a.occ_requests_unique == 7
        assert a.prediction_errors == [1, 2, 3]
        assert a.index_predictions == 3
        assert len(a.requests) == 2

    def test_coalescing_factor_defaults_to_one(self):
        assert BatchStats().coalescing_factor == 1.0

    def test_mean_error(self):
        stats = BatchStats()
        stats.record_tail("A", TailContribution(predictions=2, errors=(2, 4)))
        assert stats.mean_error == 3.0
