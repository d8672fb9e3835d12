"""Unit tests for repro.genome.io (FASTA)."""

from __future__ import annotations

import pytest

from repro.genome.io import (
    FastaRecord,
    FormatError,
    parse_fasta,
    read_fasta,
    validate_reference_record,
    write_fasta,
)


class TestFasta:
    def test_parse_single_record(self):
        records = list(parse_fasta([">chr1", "ACGT", "GGTT"]))
        assert records == [FastaRecord(name="chr1", sequence="ACGTGGTT")]

    def test_parse_multiple_records(self):
        records = list(parse_fasta([">a", "AC", ">b", "GT"]))
        assert [r.name for r in records] == ["a", "b"]

    def test_parse_lowercase_normalised(self):
        records = list(parse_fasta([">a", "acgt"]))
        assert records[0].sequence == "ACGT"

    def test_parse_blank_lines_skipped(self):
        records = list(parse_fasta([">a", "", "ACGT", ""]))
        assert records[0].sequence == "ACGT"

    def test_sequence_before_header_raises(self):
        with pytest.raises(FormatError):
            list(parse_fasta(["ACGT"]))

    def test_empty_header_raises(self):
        with pytest.raises(FormatError):
            list(parse_fasta([">", "ACGT"]))

    def test_roundtrip_via_files(self, tmp_path):
        path = tmp_path / "ref.fa"
        records = [FastaRecord("chr1", "ACGT" * 30), FastaRecord("chr2", "GGTTAA")]
        write_fasta(path, records, width=13)
        assert read_fasta(path) == records

    def test_write_wraps_lines(self, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta(path, [FastaRecord("c", "A" * 100)], width=10)
        lines = path.read_text().splitlines()
        assert all(len(line) <= 10 for line in lines[1:])

    def test_write_invalid_width_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(tmp_path / "x.fa", [], width=0)

    def test_validate_reference_record_accepts_dna(self):
        validate_reference_record(FastaRecord("c", "ACGT"))

    def test_validate_reference_record_rejects_empty(self):
        with pytest.raises(FormatError):
            validate_reference_record(FastaRecord("c", ""))

    def test_validate_reference_record_rejects_ambiguous(self):
        with pytest.raises(Exception):
            validate_reference_record(FastaRecord("c", "ACGN"))

