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


class TestQueryBatch:
    @given(st.lists(nonempty_dna, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sequence_encode(self, sequences, data):
        batch = alphabet.QueryBatch.from_strings(sequences)
        assert batch.codes.dtype == np.uint8 and batch.lengths.dtype == np.int64
        assert batch.lengths.tolist() == [len(s) for s in sequences]
        expected = [alphabet.encode(s) for s in sequences]
        assert np.array_equal(batch.codes, np.concatenate(expected + [np.empty(0, np.uint8)]))
        begin = data.draw(st.integers(0, len(sequences)))
        end = data.draw(st.integers(begin, len(sequences)))
        rows = batch[begin:end]
        assert len(rows) == end - begin
        again = alphabet.QueryBatch.from_strings(sequences[begin:end])
        assert np.array_equal(rows.codes, again.codes)
        assert np.array_equal(rows.lengths, again.lengths)

    def test_sentinel_is_refused(self):
        with pytest.raises(alphabet.AlphabetError, match=r"invalid DNA symbol: '\$'"):
            alphabet.QueryBatch.from_strings(["ACGT", "AC$T", "G"])

    def test_invalid_symbol_anywhere_raises(self):
        with pytest.raises(alphabet.AlphabetError, match="invalid DNA symbol: 'N'"):
            alphabet.QueryBatch.from_strings(["ACGT", "ACGTN"])
        with pytest.raises(alphabet.AlphabetError, match="invalid DNA symbol: '\u00e9'"):
            alphabet.QueryBatch.from_strings(["AC\u00e9T", "ACGTA"])
        with pytest.raises(ValueError, match="non-empty"):
            alphabet.QueryBatch.from_strings(["ACGT", ""])

    def test_rows_slice_contiguously_only(self):
        batch = alphabet.QueryBatch.from_strings(["AC", "G", "TTA"])
        assert alphabet.decode(batch[1:].codes) == "GTTA"
        assert len(batch[3:]) == 0 and batch[3:].codes.size == 0
        with pytest.raises(ValueError, match="contiguous"):
            batch[::2]


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


class TestGcContent:
    def test_all_gc(self):
        assert alphabet.gc_content("GGCC") == 1.0

    def test_no_gc(self):
        assert alphabet.gc_content("AATT") == 0.0

    def test_half(self):
        assert alphabet.gc_content("ACGT") == 0.5

    def test_empty(self):
        assert alphabet.gc_content("") == 0.0
