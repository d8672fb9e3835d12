"""Property-based cross-module invariants (hypothesis).

These properties tie the layers together on randomly generated inputs:
whatever DNA text and queries hypothesis produces, the index structures
must agree with brute force and with each other, compression must be
lossless, and the BWT/suffix-array relationships must hold.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exma import chain
from repro.exma.search import ExmaSearch
from repro.exma.table import ExmaTable
from repro.genome.alphabet import reverse_complement
from repro.index.bwt import bwt
from repro.index.fmindex import FMIndex
from repro.index.suffix_array import suffix_array
from repro.lisa.ipbwt import IPBWT

dna_text = st.text(alphabet="ACGT", min_size=8, max_size=120)
dna_query = st.text(alphabet="ACGT", min_size=1, max_size=12)


class TestIndexInvariants:
    @given(dna_text, dna_query)
    @settings(max_examples=40, deadline=None)
    def test_fm_index_matches_brute_force(self, text, query):
        fm = FMIndex(text)
        expected = [
            i for i in range(len(text) - len(query) + 1) if text[i : i + len(query)] == query
        ]
        assert fm.find(query) == expected

    @given(dna_text, dna_query)
    @settings(max_examples=30, deadline=None)
    def test_exma_agrees_with_fm_index(self, text, query):
        fm = FMIndex(text)
        search = ExmaSearch(ExmaTable(text, k=3))
        assert search.occurrence_count(query) == fm.occurrence_count(query)

    @given(dna_text)
    @settings(max_examples=30, deadline=None)
    def test_occurrence_count_of_reverse_complement_palindrome(self, text):
        # Searching a query and its reverse complement in the forward
        # reference are independent operations; both must be consistent
        # with brute force (regression guard for strand handling).
        fm = FMIndex(text)
        query = text[: min(6, len(text))]
        rc = reverse_complement(query)
        expected_rc = [
            i for i in range(len(text) - len(rc) + 1) if text[i : i + len(rc)] == rc
        ]
        assert fm.occurrence_count(rc) == len(expected_rc)

    @given(dna_text)
    @settings(max_examples=30, deadline=None)
    def test_bwt_is_permutation_with_one_sentinel(self, text):
        transformed = bwt(text)
        assert sorted(transformed) == sorted(text + "$")
        assert transformed.count("$") == 1

    @given(dna_text)
    @settings(max_examples=30, deadline=None)
    def test_suffix_array_sorts_suffixes(self, text):
        terminated = text + "$"
        sa = suffix_array(terminated)
        suffixes = [terminated[i:] for i in sa]
        assert suffixes == sorted(suffixes)

    @given(dna_text)
    @settings(max_examples=25, deadline=None)
    def test_ipbwt_is_sorted_for_any_text(self, text):
        ipbwt = IPBWT(text, k=2)
        keys = [ipbwt[row].key() for row in range(len(ipbwt))]
        assert keys == sorted(keys)

    @given(dna_text)
    @settings(max_examples=25, deadline=None)
    def test_exma_increment_totals(self, text):
        k = 3
        table = ExmaTable(text, k=k)
        # One increment per position whose preceding k-mer is sentinel-free.
        assert table.increments.size == max(0, len(text) - k + 1)
        assert int(table.frequencies().sum()) == table.increments.size


class TestCompressionInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_chain_roundtrip_any_integers(self, values):
        array = np.array(sorted(values), dtype=np.int64)
        assert np.array_equal(chain.decompress(chain.compress(array)), array)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_chain_size_accounting_consistent(self, values):
        array = np.array(sorted(values), dtype=np.int64)
        total = sum(line.compressed_bytes for line in chain.compress(array))
        assert total == chain.compressed_size_bytes(array)
