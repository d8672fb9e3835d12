"""Unit tests for repro.exma.table (the EXMA table)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exma.table import ExmaTable, exma_size_breakdown
from repro.genome.alphabet import pack_kmer
from repro.genome.datasets import HUMAN_PAPER_LENGTH


class TestConstruction:
    def test_invalid_k_raises(self, small_reference):
        with pytest.raises(ValueError):
            ExmaTable(small_reference, k=0)

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            ExmaTable("", k=2)

    def test_kmer_count_is_4_to_k(self, exma_table):
        assert exma_table.kmer_count == 4**4

    def test_max_sentinel_value(self, exma_table, small_reference):
        assert exma_table.max_sentinel == len(small_reference) + 2

    def test_reference_length_includes_sentinel(self, exma_table, small_reference):
        assert exma_table.reference_length == len(small_reference) + 1


class TestIncrementsAndBases:
    def test_total_increments_counts_dna_kmers(self, exma_table, small_reference):
        # Every position whose preceding k-mer avoids the sentinel produces
        # exactly one increment: n + 1 rows minus the k sentinel-crossing
        # rows minus the sentinel row itself... equivalently len - k + 1
        # interior occurrences plus the wrap-free tail.
        assert exma_table.increments.size == len(small_reference) - exma_table.k + 1

    def test_increment_lists_sorted(self, exma_table):
        for packed in exma_table.present_kmers()[:50]:
            increments = exma_table.increments_of(packed)
            assert np.all(np.diff(increments) > 0)

    def test_frequencies_match_substring_counts(self, exma_table, small_reference):
        for kmer in ("ACGT", "GGCC", small_reference[10:14], small_reference[503:507]):
            expected = sum(
                1
                for i in range(len(small_reference) - 4 + 1)
                if small_reference[i : i + 4] == kmer
            )
            assert exma_table.frequency(kmer) == expected

    def test_absent_kmer_base_is_max(self, exma_table, small_reference):
        frequencies = exma_table.frequencies()
        absent = int(np.flatnonzero(frequencies == 0)[0]) if np.any(frequencies == 0) else None
        if absent is None:
            pytest.skip("every 4-mer occurs in this reference")
        assert exma_table.base(absent) == exma_table.max_sentinel
        assert exma_table.increments_of(absent).size == 0

    def test_bases_point_to_contiguous_blocks(self, exma_table):
        cursor = 0
        frequencies = exma_table.frequencies()
        for packed in range(exma_table.kmer_count):
            if frequencies[packed] == 0:
                continue
            assert exma_table.base(packed) == cursor
            cursor += int(frequencies[packed])
        assert cursor == exma_table.increments.size

    def test_frequencies_sum_to_increments(self, exma_table):
        assert int(exma_table.frequencies().sum()) == exma_table.increments.size


class TestOccAndCount:
    def test_occ_zero_at_position_zero(self, exma_table):
        for packed in exma_table.present_kmers()[:20]:
            assert exma_table.occ(packed, 0) == 0

    def test_occ_full_range_equals_frequency(self, exma_table):
        for packed in exma_table.present_kmers()[:20]:
            assert exma_table.occ(packed, exma_table.reference_length) == exma_table.frequency(
                packed
            )

    def test_occ_monotone_in_position(self, exma_table):
        packed = exma_table.present_kmers()[0]
        values = [exma_table.occ(packed, pos) for pos in range(0, exma_table.reference_length, 97)]
        assert values == sorted(values)

    def test_occ_out_of_range_raises(self, exma_table):
        with pytest.raises(ValueError):
            exma_table.occ(exma_table.present_kmers()[0], -1)

    def test_count_plus_occ_matches_fm_interval(self, exma_table, fm_index, small_reference):
        # For a full-interval step the EXMA (Count, Count + freq) interval
        # must equal the FM-Index interval of the same k-mer.
        for start in range(0, 900, 131):
            kmer = small_reference[start : start + 4]
            interval = fm_index.backward_search(kmer)
            count = exma_table.count(kmer)
            assert count == interval.low
            assert count + exma_table.frequency(kmer) == interval.high

    def test_wrong_kmer_length_raises(self, exma_table):
        with pytest.raises(ValueError):
            exma_table.occ("ACG", 0)

    def test_packed_out_of_range_raises(self, exma_table):
        with pytest.raises(ValueError):
            exma_table.frequency(4**4)


class TestPrefixInterval:
    def test_matches_fm_index(self, exma_table, fm_index, small_reference):
        for length in (1, 2, 3):
            for start in range(0, 600, 149):
                prefix = small_reference[start : start + length]
                low, high = exma_table.prefix_interval(prefix)
                fm_interval = fm_index.backward_search(prefix)
                assert (low, high) == (fm_interval.low, fm_interval.high)

    def test_invalid_length_raises(self, exma_table):
        with pytest.raises(ValueError):
            exma_table.prefix_interval("")
        with pytest.raises(ValueError):
            exma_table.prefix_interval("ACGTA")


class TestLocateAndStrings:
    def test_locate_returns_sorted_positions(self, exma_table):
        positions = exma_table.locate(5, 15)
        assert positions == sorted(positions)
        assert len(positions) == 10

    def test_locate_empty_interval(self, exma_table):
        assert exma_table.locate(7, 7) == []

    def test_kmer_string_roundtrip(self, exma_table):
        assert exma_table.kmer_string(pack_kmer("GATC")) == "GATC"


class TestSizeModel:
    def test_increments_are_12gb_for_human(self):
        breakdown = exma_size_breakdown(HUMAN_PAPER_LENGTH, 15)
        assert 11 < breakdown.increments / 1024**3 < 13

    def test_bases_grow_4x_per_step(self):
        b15 = exma_size_breakdown(HUMAN_PAPER_LENGTH, 15).bases
        b16 = exma_size_breakdown(HUMAN_PAPER_LENGTH, 16).bases
        assert b16 == pytest.approx(4 * b15)

    def test_15_step_total_near_paper_value(self):
        total_gb = exma_size_breakdown(HUMAN_PAPER_LENGTH, 15).total / 1024**3
        assert 25 < total_gb < 35  # paper reports 29.5 GB

    def test_16_step_adds_about_12gb(self):
        t15 = exma_size_breakdown(HUMAN_PAPER_LENGTH, 15).total
        t16 = exma_size_breakdown(HUMAN_PAPER_LENGTH, 16).total
        assert 10 < (t16 - t15) / 1024**3 < 15

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exma_size_breakdown(0, 15)
        with pytest.raises(ValueError):
            exma_size_breakdown(100, 0)


class TestSmallReferenceEdgeCases:
    def test_reference_shorter_than_k(self):
        table = ExmaTable("ACG", k=5)
        assert table.increments.size == 0

    def test_k_equal_reference_length(self):
        table = ExmaTable("ACGTA", k=5)
        assert table.increments.size <= 1

    def test_highly_repetitive_reference(self):
        table = ExmaTable("ACAC" * 50, k=2)
        assert table.frequency("AC") > 90
        assert table.frequency("CA") > 90
