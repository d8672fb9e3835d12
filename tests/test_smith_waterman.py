"""Unit tests for repro.apps.smith_waterman."""

from __future__ import annotations

import pytest

from repro.apps.smith_waterman import (
    LocalAlignment,
    ScoringScheme,
    banded_smith_waterman,
    smith_waterman,
)


class TestScoringScheme:
    def test_defaults_valid(self):
        ScoringScheme()

    def test_invalid_match(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=0)

    def test_invalid_penalties(self):
        with pytest.raises(ValueError):
            ScoringScheme(mismatch=1)
        with pytest.raises(ValueError):
            ScoringScheme(gap=0)


class TestSmithWaterman:
    def test_identical_sequences(self):
        result = smith_waterman("ACGTACGT", "ACGTACGT")
        assert result.score == 16
        assert result.query_end - result.query_start == 8
        assert result.target_start == 0

    def test_substring_match(self):
        result = smith_waterman("CGTA", "AACGTATT")
        assert result.score == 8
        assert result.target_start == 2

    def test_mismatch_reduces_score(self):
        perfect = smith_waterman("ACGTACGT", "ACGTACGT").score
        mismatched = smith_waterman("ACGTACGT", "ACGTTCGT").score
        assert mismatched < perfect

    def test_gap_handled(self):
        result = smith_waterman("ACGTACGT", "ACGTTTACGT")
        assert result.score >= 8

    def test_no_similarity(self):
        result = smith_waterman("AAAA", "TTTT")
        assert result.score == 0

    def test_cells_computed(self):
        result = smith_waterman("ACGT", "ACGTACGT")
        assert result.cells_computed == 4 * 8

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            smith_waterman("", "ACGT")
        with pytest.raises(ValueError):
            smith_waterman("ACGT", "")

    def test_spans_consistent(self):
        result = smith_waterman("GGCATTACG", "TTCATTAGG")
        assert result.query_end >= result.query_start
        assert result.target_end >= result.target_start


class TestBandedSmithWaterman:
    def test_matches_full_when_band_large(self):
        query, target = "ACGTACGTAA", "ACGTACGTAA"
        full = smith_waterman(query, target)
        banded = banded_smith_waterman(query, target, band=len(target))
        assert banded.score == full.score

    def test_fewer_cells_than_full(self):
        query = "ACGT" * 10
        target = "ACGT" * 10
        full = smith_waterman(query, target)
        banded = banded_smith_waterman(query, target, band=4)
        assert banded.cells_computed < full.cells_computed

    def test_finds_near_diagonal_alignment(self):
        query = "ACGTACGTACGT"
        target = "ACGTACGAACGT"
        result = banded_smith_waterman(query, target, band=4)
        assert result.score > 10

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            banded_smith_waterman("ACGT", "ACGT", band=0)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            banded_smith_waterman("", "ACGT")

    def test_result_type(self):
        assert isinstance(banded_smith_waterman("ACG", "ACG"), LocalAlignment)
