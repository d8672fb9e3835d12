"""Unit tests for repro.genome.reads (read simulators, error profiles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.genome.reads import (
    ILLUMINA,
    ONT_2D,
    PACBIO,
    PROFILES,
    ErrorProfile,
    ReadSimulator,
    simulate_long_reads,
    simulate_short_reads,
)
from repro.genome.sequence import random_genome


@pytest.fixture(scope="module")
def reference() -> str:
    return random_genome(3000, seed=21)


class TestErrorProfiles:
    def test_paper_profiles_registered(self):
        assert set(PROFILES) == {"Illumina", "PacBio", "ONT2D"}

    def test_illumina_total_rate(self):
        assert ILLUMINA.total == pytest.approx(0.002)

    def test_pacbio_total_rate(self):
        assert PACBIO.total == pytest.approx(0.1501)

    def test_ont_total_rate(self):
        assert ONT_2D.total == pytest.approx(0.30)

    def test_error_ordering_matches_paper(self):
        assert ILLUMINA.total < PACBIO.total < ONT_2D.total

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            ErrorProfile("bad", mismatch=1.5, insertion=0.0, deletion=0.0)


class TestReadSimulator:
    def test_count_mode(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=0).simulate(read_length=101, count=7)
        assert len(reads) == 7

    def test_coverage_mode(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=0).simulate(read_length=100, coverage=2.0)
        total_bases = sum(len(r.sequence) for r in reads)
        assert total_bases == pytest.approx(2 * len(reference), rel=0.2)

    def test_both_count_and_coverage_raises(self, reference):
        with pytest.raises(ValueError):
            ReadSimulator(reference, ILLUMINA).simulate(read_length=50, count=5, coverage=1.0)

    def test_neither_count_nor_coverage_raises(self, reference):
        with pytest.raises(ValueError):
            ReadSimulator(reference, ILLUMINA).simulate(read_length=50)

    def test_read_length_exceeding_reference_raises(self, reference):
        with pytest.raises(ValueError):
            ReadSimulator(reference, ILLUMINA).simulate(read_length=len(reference) + 1, count=1)

    def test_reads_record_true_positions(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=1).simulate(read_length=80, count=10)
        for read in reads:
            assert 0 <= read.true_position <= len(reference) - 80

    def test_error_free_reads_match_reference(self, reference):
        profile = ErrorProfile("perfect", 0.0, 0.0, 0.0)
        reads = ReadSimulator(reference, profile, seed=2).simulate(
            read_length=60, count=10, both_strands=False
        )
        for read in reads:
            assert read.sequence == reference[read.true_position : read.true_position + 60]

    def test_illumina_reads_mostly_match(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=3).simulate(
            read_length=100, count=20, both_strands=False
        )
        mismatches = sum(
            1
            for read in reads
            if read.sequence != reference[read.true_position : read.true_position + 100]
        )
        assert mismatches < len(reads)

    def test_ont_reads_heavily_corrupted(self, reference):
        reads = ReadSimulator(reference, ONT_2D, seed=4).simulate(
            read_length=200, count=10, both_strands=False
        )
        exact = sum(
            1
            for read in reads
            if read.sequence == reference[read.true_position : read.true_position + 200]
        )
        assert exact == 0

    def test_deterministic_with_seed(self, reference):
        a = ReadSimulator(reference, PACBIO, seed=5).simulate(read_length=100, count=5)
        b = ReadSimulator(reference, PACBIO, seed=5).simulate(read_length=100, count=5)
        assert [r.sequence for r in a] == [r.sequence for r in b]

    def test_reverse_strand_flag_set(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=6).simulate(read_length=80, count=40)
        assert any(r.reverse for r in reads) and any(not r.reverse for r in reads)

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            ReadSimulator("", ILLUMINA)

    def test_fastq_conversion(self, reference):
        read = ReadSimulator(reference, ILLUMINA, seed=7).simulate(read_length=50, count=1)[0]
        record = read.to_fastq()
        assert record.name == read.name
        assert len(record.quality) == len(record.sequence)


class _ScalarOnly:
    """Generator stand-in whose bulk draw reports an error in every base
    and consumes nothing, so `_corrupt` rewinds (a no-op) and runs its
    scalar loop on every fragment."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def random(self, size=None):
        return self._rng.random() if size is None else np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestBulkDrawEqualsScalarLoop:
    CASES = [
        (ILLUMINA, 48, 400),
        (ILLUMINA, 1, 3000),
        (PACBIO, 120, 40),
        (ONT_2D, 60, 40),
        (ONT_2D, 1, 300),
    ]

    @pytest.mark.parametrize("both_strands", [True, False])
    @pytest.mark.parametrize("profile, read_length, count", CASES)
    def test_same_reads_same_stream(self, reference, profile, read_length, count, both_strands):
        bulk = ReadSimulator(reference, profile, seed=9)
        scalar = ReadSimulator(reference, profile, seed=9)
        scalar._rng = _ScalarOnly(scalar._rng)
        arguments = dict(read_length=read_length, count=count, both_strands=both_strands)
        assert bulk.simulate(**arguments) == scalar.simulate(**arguments)
        assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_cases_take_both_paths(self, reference):
        # A mismatch draws its base through `integers`, which leaves half
        # a uint64 buffered in the bit generator; a clean read right after
        # a corrupted one takes the bulk path with that buffer occupied.
        reads = ReadSimulator(reference, ILLUMINA, seed=9).simulate(
            read_length=48, count=400, both_strands=False
        )
        clean = [r.sequence == reference[r.true_position :][:48] for r in reads]
        assert any(not first and second for first, second in zip(clean, clean[1:]))
        assert sum(clean) > len(clean) // 2


class TestConvenienceWrappers:
    def test_short_reads_wrapper(self, reference):
        reads = simulate_short_reads(reference, coverage=0.5, seed=8)
        assert all(r.profile == "Illumina" for r in reads)
        assert all(abs(len(r.sequence) - 101) <= 5 for r in reads)

    def test_long_reads_wrapper(self, reference):
        reads = simulate_long_reads(reference, profile=PACBIO, coverage=0.5, seed=9)
        assert all(r.profile == "PacBio" for r in reads)

    def test_long_reads_cap_to_reference(self):
        genome = random_genome(400, seed=10)
        reads = simulate_long_reads(genome, coverage=1.0, read_length=1000, seed=11)
        assert all(len(r.sequence) <= 600 for r in reads)
