"""Unit tests for repro.exma.search (EXMA backward search)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import brute_force_find
from repro.exma.search import ExmaSearch, ExmaSearchStats
from repro.exma.table import ExmaTable
from repro.index.fmindex import FMIndex, Interval


@pytest.fixture(scope="module")
def exact_search(exma_table) -> ExmaSearch:
    return ExmaSearch(exma_table, index=None)


@pytest.fixture(scope="module")
def mtl_search(exma_table, mtl_index) -> ExmaSearch:
    return ExmaSearch(exma_table, index=mtl_index)


class TestCorrectness:
    def test_intervals_match_fm_index(self, exact_search, fm_index, small_reference):
        for start in range(0, 1700, 103):
            query = small_reference[start : start + 16]
            a = exact_search.backward_search(query)
            b = fm_index.backward_search(query)
            assert (a.low, a.high) == (b.low, b.high)

    def test_mtl_search_same_results_as_exact(self, mtl_search, exact_search, small_reference):
        # The learned index only changes *where* the linear search starts;
        # results must be identical.
        for start in range(0, 1500, 139):
            query = small_reference[start : start + 12]
            a = mtl_search.backward_search(query)
            b = exact_search.backward_search(query)
            assert (a.low, a.high) == (b.low, b.high)

    def test_find_matches_brute_force(self, mtl_search, small_reference):
        for start in range(0, 1200, 211):
            query = small_reference[start : start + 12]
            assert mtl_search.find(query) == brute_force_find(small_reference, query)

    def test_partial_chunk_queries(self, mtl_search, fm_index, small_reference):
        for length in (3, 5, 6, 7, 9, 10, 11, 13):
            query = small_reference[777 : 777 + length]
            assert mtl_search.occurrence_count(query) == fm_index.occurrence_count(query)

    def test_absent_query_returns_empty(self, exact_search, small_reference):
        query = "ACGTACGTACGTACGT"
        expected = brute_force_find(small_reference, query)
        assert exact_search.occurrence_count(query) == len(expected)

    def test_empty_query_raises(self, exact_search):
        with pytest.raises(ValueError):
            exact_search.backward_search("")

    def test_wrong_kmer_length_in_extend_raises(self, exact_search):
        with pytest.raises(ValueError):
            exact_search.extend("AC", Interval(0, 5))

    @given(st.integers(min_value=0, max_value=1900), st.integers(min_value=4, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_substring_occurrences_property(
        self, mtl_search, fm_index, small_reference, start, length
    ):
        query = small_reference[start : start + length]
        if len(query) < 4:
            return
        assert mtl_search.occurrence_count(query) == fm_index.occurrence_count(query)


class TestStats:
    def test_iterations_per_query(self, exact_search, small_reference):
        stats = ExmaSearchStats()
        exact_search.backward_search(small_reference[40:56], stats)
        assert stats.iterations == 4
        assert stats.occ_lookups == 8

    def test_partial_chunk_adds_iteration(self, exact_search, small_reference):
        stats = ExmaSearchStats()
        exact_search.backward_search(small_reference[40:54], stats)  # 14 = 3*4 + 2
        assert stats.iterations == 4

    def test_requests_record_kmer_and_pos(self, mtl_search, small_reference):
        stats = ExmaSearchStats()
        mtl_search.backward_search(small_reference[100:116], stats)
        assert len(stats.requests) == stats.occ_lookups
        for request in stats.requests:
            assert 0 <= request.packed_kmer < mtl_search.table.kmer_count
            assert 0 <= request.pos <= mtl_search.table.reference_length

    def test_mtl_predictions_counted(self, mtl_search, small_reference):
        stats = ExmaSearchStats()
        for start in range(0, 600, 53):
            mtl_search.backward_search(small_reference[start : start + 16], stats)
        assert stats.index_predictions + stats.occ_lookups > 0
        assert stats.increment_entries_read > 0

    def test_mean_error_non_negative(self, mtl_search, small_reference):
        stats = ExmaSearchStats()
        mtl_search.backward_search(small_reference[200:232], stats)
        assert stats.mean_error >= 0.0

    def test_request_stream_batches_queries(self, mtl_search, small_reference):
        queries = [small_reference[i : i + 12] for i in range(0, 300, 60)]
        requests, stats = mtl_search.request_stream(queries)
        assert len(requests) == stats.occ_lookups
        assert stats.iterations >= len(queries)


class TestAgainstDifferentReferences:
    def test_repetitive_reference(self):
        reference = "ACGT" * 100
        table_search = ExmaSearch(ExmaTable(reference, k=4))
        fm = FMIndex(reference)
        for query in ("ACGTACGT", "CGTACG", "TTTT"):
            assert table_search.occurrence_count(query) == fm.occurrence_count(query)

    def test_single_character_reference(self):
        reference = "A" * 64
        table_search = ExmaSearch(ExmaTable(reference, k=4))
        assert table_search.occurrence_count("AAAA") == 61
