"""Unit tests for repro.index.bwt."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import random_genome
from repro.index.bwt import bwt, bwt_from_suffix_array, inverse_bwt
from repro.index.suffix_array import suffix_array

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestBwt:
    def test_paper_example(self):
        # Fig. 3(a): BWT(CATAGA$) = AGTC$AA.
        assert bwt("CATAGA") == "AGTC$AA"

    def test_length_includes_sentinel(self):
        assert len(bwt("ACGT")) == 5

    def test_single_sentinel(self):
        assert bwt("ACGT").count("$") == 1

    def test_permutation_of_text(self):
        text = random_genome(100, seed=1)
        assert sorted(bwt(text)) == sorted(text + "$")

    def test_from_suffix_array_matches(self):
        text = random_genome(80, seed=2) + "$"
        assert bwt_from_suffix_array(text, suffix_array(text)) == bwt(text[:-1])

    def test_from_suffix_array_requires_sentinel(self):
        with pytest.raises(ValueError):
            bwt_from_suffix_array("ACGT", suffix_array("ACGT"))

    def test_from_suffix_array_length_mismatch(self):
        with pytest.raises(ValueError):
            bwt_from_suffix_array("ACGT$", suffix_array("ACG"))


class TestInverseBwt:
    def test_inverts_paper_example(self):
        assert inverse_bwt("AGTC$AA") == "CATAGA$"

    def test_roundtrip_random(self):
        text = random_genome(200, seed=3)
        assert inverse_bwt(bwt(text)) == text + "$"

    def test_requires_exactly_one_sentinel(self):
        with pytest.raises(ValueError):
            inverse_bwt("ACGT")
        with pytest.raises(ValueError):
            inverse_bwt("A$C$")

    @given(dna)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, text):
        assert inverse_bwt(bwt(text)) == text + "$"
