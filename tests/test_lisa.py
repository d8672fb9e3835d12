"""Unit tests for the LISA substrate: IP-BWT, learned index, LISA search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import brute_force_find
from repro.genome.datasets import HUMAN_PAPER_LENGTH
from repro.lisa.ipbwt import IPBWT, lisa_size_bytes
from repro.lisa.learned_index import LinearModel, PredictionStats, RecursiveModelIndex
from repro.lisa.search import LisaIndex, LisaSearchStats


@pytest.fixture(scope="module")
def ipbwt(small_reference) -> IPBWT:
    return IPBWT(small_reference, k=3)


@pytest.fixture(scope="module")
def lisa_exact(small_reference) -> LisaIndex:
    return LisaIndex(small_reference, k=3, use_learned_index=False)


@pytest.fixture(scope="module")
def lisa_learned(small_reference) -> LisaIndex:
    return LisaIndex(small_reference, k=3, use_learned_index=True)


class TestIPBWT:
    def test_length_matches_reference(self, ipbwt, small_reference):
        assert len(ipbwt) == len(small_reference) + 1

    def test_entries_sorted(self, ipbwt):
        keys = [ipbwt[row].key() for row in range(len(ipbwt))]
        assert keys == sorted(keys)

    def test_paper_example_entry(self):
        # Fig. 5(a): row 0 of the IP-BWT of CATAGA$ with k=2 is [$C, 3].
        ipbwt2 = IPBWT("CATAGA", k=2)
        assert ipbwt2[0].kmer == "$C"
        assert ipbwt2[0].paired_row == 3

    def test_paper_example_all_kmers(self):
        ipbwt2 = IPBWT("CATAGA", k=2)
        kmers = [ipbwt2[i].kmer for i in range(len(ipbwt2))]
        assert kmers == ["$C", "A$", "AG", "AT", "CA", "GA", "TA"]

    def test_numeric_keys_monotone(self, ipbwt):
        keys = ipbwt.numeric_keys()
        assert np.all(np.diff(keys) >= 0)

    def test_numeric_key_consistent_with_lower_bound(self, ipbwt, small_reference):
        kmer = small_reference[40:43]
        keys = ipbwt.numeric_keys()
        for pos in (0, 7, 200):
            expected = ipbwt.lower_bound(kmer, pos)
            via_key = int(np.searchsorted(keys, ipbwt.numeric_key(kmer, pos)))
            assert via_key == expected

    def test_invalid_k_raises(self, small_reference):
        with pytest.raises(ValueError):
            IPBWT(small_reference, k=0)

    def test_size_model_linear_in_k(self):
        s21 = lisa_size_bytes(HUMAN_PAPER_LENGTH, 21)
        s42 = lisa_size_bytes(HUMAN_PAPER_LENGTH, 42)
        assert s42 < 2.2 * s21

    def test_size_model_invalid(self):
        with pytest.raises(ValueError):
            lisa_size_bytes(0, 21)


class TestLinearModel:
    def test_fit_exact_line(self):
        x = np.arange(10, dtype=float)
        model = LinearModel.fit(x, 3 * x + 1)
        assert model.slope == pytest.approx(3.0)
        assert model.intercept == pytest.approx(1.0)

    def test_fit_constant_input(self):
        model = LinearModel.fit(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        assert model.slope == 0.0
        assert model.predict(5.0) == pytest.approx(2.0)

    def test_fit_empty(self):
        model = LinearModel.fit(np.array([]), np.array([]))
        assert model.predict(10.0) == 0.0

    def test_parameter_count(self):
        assert LinearModel(1.0, 0.0).parameter_count == 2


class TestRecursiveModelIndex:
    @pytest.fixture(scope="class")
    def keys(self):
        rng = np.random.default_rng(0)
        return np.sort(rng.uniform(0, 1e6, size=3000))

    def test_lookup_returns_true_position(self, keys):
        rmi = RecursiveModelIndex(keys, fanout=32)
        for idx in (0, 100, 1500, 2999):
            position, _ = rmi.lookup(float(keys[idx]))
            assert keys[position] == keys[idx]

    def test_prediction_within_bounds(self, keys):
        rmi = RecursiveModelIndex(keys, fanout=16)
        assert 0 <= rmi.predict(float(keys[42])) < len(keys)

    def test_errors_reasonable_on_uniform_keys(self, keys):
        rmi = RecursiveModelIndex(keys, fanout=64)
        stats = rmi.error_stats(sample=500)
        assert stats.mean_error < len(keys) * 0.05

    def test_unsorted_keys_raise(self):
        with pytest.raises(ValueError):
            RecursiveModelIndex(np.array([3.0, 1.0, 2.0]))

    def test_empty_keys_raise(self):
        with pytest.raises(ValueError):
            RecursiveModelIndex(np.array([]))

    def test_prediction_stats_from_empty(self):
        stats = PredictionStats.from_errors(np.array([]))
        assert stats.mean_error == 0.0


class TestLisaSearch:
    def test_exact_lisa_matches_fm(self, lisa_exact, fm_index, small_reference):
        for start in range(0, 1500, 119):
            query = small_reference[start : start + 12]
            a = lisa_exact.backward_search(query)
            b = fm_index.backward_search(query)
            assert (a.low, a.high) == (b.low, b.high)

    def test_learned_lisa_matches_fm(self, lisa_learned, fm_index, small_reference):
        for start in range(0, 1500, 137):
            query = small_reference[start : start + 12]
            a = lisa_learned.backward_search(query)
            b = fm_index.backward_search(query)
            assert (a.low, a.high) == (b.low, b.high)

    def test_partial_chunk_lengths(self, lisa_learned, fm_index, small_reference):
        for length in (4, 5, 7, 8, 10, 11, 13):
            query = small_reference[300 : 300 + length]
            assert lisa_learned.occurrence_count(query) == fm_index.occurrence_count(query)

    def test_find_matches_brute_force(self, lisa_exact, small_reference):
        query = small_reference[250:265]
        assert lisa_exact.find(query) == brute_force_find(small_reference, query)

    def test_stats_iterations(self, lisa_exact, small_reference):
        stats = LisaSearchStats()
        lisa_exact.backward_search(small_reference[10:22], stats)
        assert stats.iterations == 4
        assert stats.binary_comparisons > 0

    def test_learned_stats_record_probes(self, lisa_learned, small_reference):
        stats = LisaSearchStats()
        lisa_learned.backward_search(small_reference[64:76], stats)
        assert stats.index_predictions > 0
        assert stats.mean_probe >= 0.0

    def test_empty_query_raises(self, lisa_learned):
        with pytest.raises(ValueError):
            lisa_learned.backward_search("")

    @given(st.integers(min_value=0, max_value=1900), st.integers(min_value=3, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_reference_substrings_found_property(
        self, lisa_exact, fm_index, small_reference, start, length
    ):
        query = small_reference[start : start + length]
        if len(query) < 3:
            return
        assert lisa_exact.occurrence_count(query) == fm_index.occurrence_count(query)
