"""Unit tests for repro.genome.alphabet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome import alphabet

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=64)
nonempty_dna = st.text(alphabet="ACGT", min_size=1, max_size=32)


class TestEncodeDecode:
    def test_encode_known_values(self):
        assert list(alphabet.encode("$ACGT")) == [0, 1, 2, 3, 4]

    def test_encode_returns_uint8(self):
        assert alphabet.encode("ACGT").dtype == np.uint8

    def test_decode_inverts_encode(self):
        assert alphabet.decode(alphabet.encode("GATTACA")) == "GATTACA"

    def test_decode_empty(self):
        assert alphabet.decode(np.array([], dtype=np.uint8)) == ""

    def test_decode_out_of_range_raises(self):
        with pytest.raises(alphabet.AlphabetError):
            alphabet.decode(np.array([9], dtype=np.uint8))

    def test_encode_invalid_symbol_raises(self):
        with pytest.raises(alphabet.AlphabetError):
            alphabet.encode("ACGN")

    def test_encode_preserves_lexicographic_order(self):
        a, b = "ACGT", "ACTA"
        assert (a < b) == (list(alphabet.encode(a)) < list(alphabet.encode(b)))

    @given(dna_strings)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, text):
        assert alphabet.decode(alphabet.encode(text)) == text


class TestEncodeRightAligned:
    @staticmethod
    def reference(sequences, take):
        """Per-sequence :func:`alphabet.encode`, right-aligned by hand."""
        width = max(take, default=0)
        rows = np.full((len(sequences), width), -1, dtype=np.int64)
        for row, sequence, kept in zip(rows, sequences, take):
            if kept:
                row[width - kept :] = alphabet.encode(sequence[:kept])
        return rows

    @given(st.lists(dna_strings, max_size=8), st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sequence_encode(self, sequences, k):
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        for take in (lengths, lengths // k * k):
            aligned = alphabet.encode_right_aligned(sequences, lengths, take)
            assert aligned.dtype == np.int64
            assert np.array_equal(aligned, self.reference(sequences, take.tolist()))

    def test_sentinel_is_the_only_zero(self):
        aligned = alphabet.encode_right_aligned(
            ["AC$T", "G"], np.array([4, 1]), np.array([4, 1])
        )
        assert aligned.tolist() == [[1, 2, 0, 4], [-1, -1, -1, 3]]

    def test_invalid_symbol_anywhere_raises(self):
        lengths = np.array([4, 5])
        with pytest.raises(alphabet.AlphabetError, match="N"):
            # Outside the kept prefix too: the whole batch is validated.
            alphabet.encode_right_aligned(["ACGT", "ACGTN"], lengths, np.array([4, 4]))
        with pytest.raises(alphabet.AlphabetError):
            alphabet.encode_right_aligned(["AC\u00e9T", "ACGTA"], lengths, lengths)


class TestValidate:
    def test_valid_sequence_passes(self):
        alphabet.validate("ACGTACGT")

    def test_sentinel_rejected_by_default(self):
        with pytest.raises(alphabet.AlphabetError):
            alphabet.validate("ACGT$")

    def test_sentinel_allowed_when_requested(self):
        alphabet.validate("ACGT$", allow_sentinel=True)

    def test_invalid_symbol_listed_in_message(self):
        with pytest.raises(alphabet.AlphabetError, match="N"):
            alphabet.validate("ACGN")

    def test_empty_sequence_passes(self):
        alphabet.validate("")


class TestReverseComplement:
    def test_simple(self):
        assert alphabet.reverse_complement("ACGT") == "ACGT"

    def test_asymmetric(self):
        assert alphabet.reverse_complement("AAACC") == "GGTTT"

    def test_empty(self):
        assert alphabet.reverse_complement("") == ""

    def test_sentinel_and_n_map_to_themselves(self):
        assert alphabet.reverse_complement("AC$N") == "N$GT"

    @pytest.mark.parametrize("sequence", ["ACXGT", "acgt", "ACG T", "U"])
    def test_unknown_symbol_raises_key_error(self, sequence):
        with pytest.raises(KeyError):
            alphabet.reverse_complement(sequence)

    @given(dna_strings)
    @settings(max_examples=30, deadline=None)
    def test_involution(self, text):
        assert alphabet.reverse_complement(alphabet.reverse_complement(text)) == text


class TestKmerPacking:
    def test_pack_known_values(self):
        assert alphabet.pack_kmer("AA") == 0
        assert alphabet.pack_kmer("AC") == 1
        assert alphabet.pack_kmer("TT") == 15

    def test_pack_empty_is_zero(self):
        assert alphabet.pack_kmer("") == 0

    def test_unpack_inverts_pack(self):
        assert alphabet.unpack_kmer(alphabet.pack_kmer("GATC"), 4) == "GATC"

    def test_unpack_out_of_range_raises(self):
        with pytest.raises(ValueError):
            alphabet.unpack_kmer(16, 2)

    def test_unpack_negative_raises(self):
        with pytest.raises(ValueError):
            alphabet.unpack_kmer(-1, 2)

    def test_pack_invalid_symbol_raises(self):
        with pytest.raises(alphabet.AlphabetError):
            alphabet.pack_kmer("AN")

    def test_pack_preserves_order(self):
        kmers = ["AAA", "ACG", "CGT", "GGG", "TTT"]
        packed = [alphabet.pack_kmer(k) for k in kmers]
        assert packed == sorted(packed)

    @given(nonempty_dna)
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, kmer):
        assert alphabet.unpack_kmer(alphabet.pack_kmer(kmer), len(kmer)) == kmer

    def test_kmer_count(self):
        assert alphabet.kmer_count(0) == 1
        assert alphabet.kmer_count(3) == 64

    def test_kmer_count_negative_raises(self):
        with pytest.raises(ValueError):
            alphabet.kmer_count(-1)


class TestIterKmers:
    def test_yields_all_windows(self):
        assert list(alphabet.iter_kmers("ACGTA", 3)) == ["ACG", "CGT", "GTA"]

    def test_k_longer_than_sequence(self):
        assert list(alphabet.iter_kmers("AC", 3)) == []

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            list(alphabet.iter_kmers("ACGT", 0))

    def test_k_equal_length(self):
        assert list(alphabet.iter_kmers("ACGT", 4)) == ["ACGT"]


class TestGcContent:
    def test_all_gc(self):
        assert alphabet.gc_content("GGCC") == 1.0

    def test_no_gc(self):
        assert alphabet.gc_content("AATT") == 0.0

    def test_half(self):
        assert alphabet.gc_content("ACGT") == 0.5

    def test_empty(self):
        assert alphabet.gc_content("") == 0.0
