"""Unit tests for repro.index.fmindex (1-step FM-Index)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import brute_force_find
from repro.index.fmindex import FMIndex, Interval, SearchTrace


class TestInterval:
    def test_empty_when_low_equals_high(self):
        assert Interval(3, 3).empty

    def test_empty_when_low_exceeds_high(self):
        assert Interval(5, 3).empty

    def test_count(self):
        assert Interval(2, 7).count == 5

    def test_count_never_negative(self):
        assert Interval(7, 2).count == 0


class TestPaperExample:
    """The worked example of Fig. 3: G = CATAGA$, query TAG."""

    @pytest.fixture(scope="class")
    def fm(self) -> FMIndex:
        return FMIndex("CATAGA", bucket_width=4)

    def test_bwt(self, fm):
        assert fm.bwt == "AGTC$AA"

    def test_count_table(self, fm):
        assert fm.count("A") == 1
        assert fm.count("C") == 4
        assert fm.count("G") == 5
        assert fm.count("T") == 6

    def test_occ_values(self, fm):
        assert fm.occ("C", 5) == 1
        assert fm.occ("A", 7) == 3

    def test_search_tag(self, fm):
        interval = fm.backward_search("TAG")
        assert (interval.low, interval.high) == (6, 7)

    def test_locate_tag(self, fm):
        assert fm.find("TAG") == [2]

    def test_search_iterations_match_fig3e(self, fm):
        interval = fm.extend_backward(fm.full_interval(), "G")
        assert (interval.low, interval.high) == (5, 6)
        interval = fm.extend_backward(interval, "A")
        assert (interval.low, interval.high) == (2, 3)
        interval = fm.extend_backward(interval, "T")
        assert (interval.low, interval.high) == (6, 7)


class TestSearchCorrectness:
    def test_find_matches_brute_force(self, fm_index, small_reference):
        for start in range(0, 1800, 113):
            query = small_reference[start : start + 18]
            assert fm_index.find(query) == brute_force_find(small_reference, query)

    def test_occurrence_count_matches(self, fm_index, small_reference):
        for start in range(0, 1500, 97):
            query = small_reference[start : start + 12]
            assert fm_index.occurrence_count(query) == len(
                brute_force_find(small_reference, query)
            )

    def test_absent_query_empty(self, fm_index, small_reference):
        query = "ACGT" * 10
        expected = brute_force_find(small_reference, query)
        assert fm_index.find(query) == expected

    def test_single_symbol_queries(self, fm_index, small_reference):
        for symbol in "ACGT":
            assert fm_index.occurrence_count(symbol) == small_reference.count(symbol)

    def test_full_reference_query(self, tiny_reference):
        fm = FMIndex(tiny_reference)
        assert fm.find(tiny_reference) == [0]

    def test_empty_query_raises(self, fm_index):
        with pytest.raises(ValueError):
            fm_index.backward_search("")

    def test_locate_limit(self, fm_index):
        interval = fm_index.backward_search("A")
        limited = fm_index.locate(interval, limit=5)
        assert len(limited) == 5

    def test_bucket_width_does_not_change_results(self, small_reference):
        wide = FMIndex(small_reference, bucket_width=256)
        narrow = FMIndex(small_reference, bucket_width=8)
        for start in range(0, 1000, 151):
            query = small_reference[start : start + 15]
            assert wide.find(query) == narrow.find(query)

    def test_sampled_sa_locate_matches_full(self, small_reference):
        full = FMIndex(small_reference, sa_sample_rate=1)
        sampled = FMIndex(small_reference, sa_sample_rate=8)
        for start in range(0, 1200, 173):
            query = small_reference[start : start + 16]
            assert full.find(query) == sampled.find(query)

    @given(st.integers(min_value=0, max_value=1900), st.integers(min_value=4, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_reference_substrings_always_found(self, fm_index, small_reference, start, length):
        query = small_reference[start : start + length]
        if len(query) < 4:
            return
        positions = fm_index.find(query)
        assert start in positions


class TestConstruction:
    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            FMIndex("ACGT", bucket_width=0)

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            FMIndex("ACGT", sa_sample_rate=0)

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            FMIndex("")

    def test_reference_length_includes_sentinel(self, fm_index, small_reference):
        assert fm_index.reference_length == len(small_reference) + 1

    def test_bucket_count(self, small_reference):
        fm = FMIndex(small_reference, bucket_width=64)
        assert fm.bucket_count == (len(small_reference) + 1 + 63) // 64


class TestSearchTrace:
    def test_trace_counts_two_lookups_per_iteration(self, fm_index):
        trace = SearchTrace()
        fm_index.backward_search("ACGTACGTAC", trace)
        assert len(trace.bucket_accesses) <= 2 * trace.iterations
        assert trace.iterations <= 10

    def test_trace_records_bucket_indices(self, fm_index):
        trace = SearchTrace()
        fm_index.backward_search("ACGT", trace)
        assert all(0 <= b <= fm_index.bucket_count for b in trace.bucket_accesses)

    def test_trace_empty_initially(self):
        trace = SearchTrace()
        assert len(trace.bucket_accesses) == 0 and trace.iterations == 0


class TestSeeding:
    def test_error_free_read_yields_full_length_seed(self, fm_index, small_reference):
        read = small_reference[400:460]
        seeds = fm_index.maximal_exact_matches(read, min_length=20)
        assert seeds
        assert max(seed.length for seed in seeds) >= 40

    def test_seeds_do_not_overlap(self, fm_index, small_reference):
        read = small_reference[100:200]
        seeds = fm_index.maximal_exact_matches(read, min_length=10)
        for first, second in zip(seeds, seeds[1:]):
            assert first.read_end <= second.read_start

    def test_seed_substrings_occur_in_reference(self, fm_index, small_reference):
        read = small_reference[700:780]
        for seed in fm_index.maximal_exact_matches(read, min_length=12):
            fragment = read[seed.read_start : seed.read_end]
            assert fm_index.occurrence_count(fragment) == seed.interval.count
            assert seed.interval.count >= 1

    def test_mismatched_read_splits_into_seeds(self, fm_index, small_reference):
        read = list(small_reference[900:980])
        read[40] = "A" if read[40] != "A" else "C"
        seeds = fm_index.maximal_exact_matches("".join(read), min_length=10)
        assert len(seeds) >= 2

    def test_garbage_read_produces_no_long_seeds(self, fm_index):
        seeds = fm_index.maximal_exact_matches("ACGT" * 25, min_length=60)
        assert all(seed.length < 60 for seed in seeds) or not seeds
