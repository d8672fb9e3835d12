"""Unit tests for repro.genome.reads (read simulators, error profiles)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome import reads as reads_module
from repro.genome.alphabet import reverse_complement
from repro.genome.reads import (
    ILLUMINA,
    ONT_2D,
    PACBIO,
    PROFILES,
    ErrorProfile,
    ReadSimulator,
    simulate_short_reads,
)
from repro.genome.sequence import random_genome
from repro.testing import scalar_reads


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

    @pytest.mark.parametrize("field", ["mismatch", "insertion", "deletion"])
    @pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
    def test_each_rate_named(self, field, rate):
        rates = {"mismatch": 0.0, "insertion": 0.0, "deletion": 0.0, field: rate}
        with pytest.raises(ValueError, match=field):
            ErrorProfile("bad", **rates)

    @pytest.mark.parametrize("rates", [(0.6, 0.6, 0.6), (0.5, 0.25, 0.25), (0.4, 0.0, 0.7)])
    def test_total_of_one_or_more_raises(self, rates):
        with pytest.raises(ValueError, match="mismatch \\+ insertion \\+ deletion"):
            ErrorProfile("bad", *rates)


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

    def test_non_ascii_reference_raises(self):
        with pytest.raises(ValueError, match="ASCII"):
            ReadSimulator("ACGT\u00e9ACGT", ILLUMINA)

    def test_generator_other_than_pcg64_raises(self):
        with pytest.raises(ValueError, match="PCG64"):
            ReadSimulator("ACGT", ILLUMINA, seed=np.random.Generator(np.random.MT19937(0)))

    def test_reverse_read_over_symbol_without_complement_raises(self):
        reference = "ACGTX" * 20
        for simulate in (ReadSimulator.simulate, scalar_reads):
            with pytest.raises(KeyError):
                simulate(ReadSimulator(reference, ILLUMINA, seed=0), read_length=10, count=20)

    @pytest.mark.parametrize("argument", ["count", "read_length"])
    @pytest.mark.parametrize("value", [True, 2.5, 0, -3, "4"])
    def test_count_and_read_length_refused(self, reference, argument, value):
        arguments = {"read_length": 20, "count": 5, argument: value}
        with pytest.raises(ValueError, match=argument):
            ReadSimulator(reference, ILLUMINA).simulate(**arguments)

    @pytest.mark.parametrize("coverage", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_coverage_refused(self, reference, coverage):
        with pytest.raises(ValueError, match="coverage"):
            ReadSimulator(reference, ILLUMINA).simulate(read_length=20, coverage=coverage)


def _same_as_oracle(reference, profile, seed, prepare=None, **arguments):
    """Simulate with the block walk and with the scalar oracle from one seed
    (after *prepare* sets up each generator) and return the walk's reads
    once the reads, the whole generator state and the next draws agree."""
    fast = ReadSimulator(reference, profile, seed=seed)
    spec = ReadSimulator(reference, profile, seed=seed)
    if prepare is not None:
        prepare(fast._rng.bit_generator)
        prepare(spec._rng.bit_generator)
    reads = fast.simulate(**arguments)
    assert reads == scalar_reads(spec, **arguments)
    assert fast._rng.bit_generator.state == spec._rng.bit_generator.state
    assert fast._rng.random() == spec._rng.random()
    assert fast._rng.integers(3) == spec._rng.integers(3)
    assert fast._rng.integers(4, size=3).tolist() == spec._rng.integers(4, size=3).tolist()
    return reads


def _buffered(half: int):
    """A *prepare* that leaves *half* in PCG64's next_uint32 buffer."""

    def prepare(bitgen):
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, half
        bitgen.state = state

    return prepare


DELETION_HEAVY = ErrorProfile("deletions", mismatch=0.01, insertion=0.01, deletion=0.9)
INSERTION_HEAVY = ErrorProfile("insertions", mismatch=0.05, insertion=0.8, deletion=0.01)
MISMATCH_ONLY = ErrorProfile("mismatches", mismatch=0.5, insertion=0.0, deletion=0.0)
#: Every read of 100 bp very likely corrupted, yet few extra words a read.
DENSE = ErrorProfile("dense", mismatch=0.02, insertion=0.0005, deletion=0.0005)


class TestBlockWalkEqualsScalarLoop:
    CASES = [
        (ILLUMINA, 48, 400),
        (ILLUMINA, 1, 3000),
        (PACBIO, 120, 40),
        (ONT_2D, 60, 40),
        (ONT_2D, 1, 300),
        # Every base of a read deleted: the read keeps its first base.
        (DELETION_HEAVY, 5, 300),
        # Two bounded draws a base; one read needs more words than its
        # block first draws.
        (INSERTION_HEAVY, 30, 100),
        (INSERTION_HEAVY, 300, 1),
        (ILLUMINA, 1, 1),
        (ILLUMINA, 48, 1),
        # Past the first block's words: some blocks close early.
        (ONT_2D, 100, 1400),
    ]

    @pytest.mark.parametrize("both_strands", [True, False])
    @pytest.mark.parametrize("profile, read_length, count", CASES)
    def test_same_reads_same_stream(self, reference, profile, read_length, count, both_strands):
        _same_as_oracle(
            reference, profile, 9, read_length=read_length, count=count, both_strands=both_strands
        )

    def test_deletion_heavy_reads_keep_one_base(self, reference):
        reads = _same_as_oracle(reference, DELETION_HEAVY, 9, read_length=5, count=300)
        assert any(len(read.sequence) == 1 for read in reads)

    @pytest.mark.parametrize("coverage", [0.01, 0.5, 2.0])
    def test_coverage_path(self, reference, coverage):
        _same_as_oracle(reference, PACBIO, 3, read_length=50, coverage=coverage)

    @pytest.mark.parametrize("count", [7, 8])
    @pytest.mark.parametrize("half", [0, 0x9E3779B9])
    def test_generator_enters_with_buffered_half_word(self, reference, count, half):
        # An odd number of start draws leaves the buffer full or empty.
        _same_as_oracle(
            reference, ONT_2D, 4, _buffered(half), read_length=60, count=count
        )

    def test_lemire_rejection(self, reference):
        # integers(3) rejects a zero uint32; a read as long as the
        # reference draws its start without touching the buffer, so its
        # first substitution finds the zero there.
        probe = np.random.default_rng(0)
        _buffered(0)(probe.bit_generator)
        probe.integers(3)
        assert probe.bit_generator.state["has_uint32"] == 1  # it drew a fresh word
        fragment = reference[:40]
        for both_strands in (True, False):
            reads = _same_as_oracle(
                fragment, MISMATCH_ONLY, 5, _buffered(0), read_length=40, count=1,
                both_strands=both_strands,
            )
            assert reads[0].sequence != fragment or reads[0].reverse

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundary(self, reference, offset):
        per_block = reads_module._BLOCK_WORDS // 101
        _same_as_oracle(reference, ILLUMINA, 11, read_length=100, count=per_block + offset)

    def test_error_read_ends_a_block(self, reference):
        per_block = reads_module._BLOCK_WORDS // 101
        reads = _same_as_oracle(reference, DENSE, 12, read_length=100, count=per_block + 2)
        last = reads[per_block - 1]
        fragment = reference[last.true_position :][:100]
        assert last.sequence != (reverse_complement(fragment) if last.reverse else fragment)

    def test_cases_take_both_paths(self, reference):
        # A mismatch draws its base through `integers`, which leaves half
        # a uint64 buffered in the bit generator; a clean read right after
        # a corrupted one is skipped in bulk with that buffer occupied.
        reads = ReadSimulator(reference, ILLUMINA, seed=9).simulate(
            read_length=48, count=400, both_strands=False
        )
        clean = [r.sequence == reference[r.true_position :][:48] for r in reads]
        assert any(not first and second for first, second in zip(clean, clean[1:]))
        assert sum(clean) > len(clean) // 2

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.tuples(*[st.floats(0.0, 0.3) for _ in range(3)]),
        read_length=st.integers(1, 80),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        both_strands=st.booleans(),
    )
    def test_property(self, reference, rates, read_length, count, seed, both_strands):
        profile = ErrorProfile("drawn", *rates)
        _same_as_oracle(
            reference, profile, seed, read_length=read_length, count=count,
            both_strands=both_strands,
        )


class TestGoldenDigest:
    def test_illumina_reads_digest(self):
        # Recorded before the block walk replaced the scalar loop: an edit
        # that moves the oracle and the walk together still fails here.
        reference = random_genome(60_000, seed=36)
        reads = ReadSimulator(reference, ILLUMINA, seed=36).simulate(read_length=48, count=4064)
        digest = hashlib.sha256()
        for r in reads:
            digest.update(
                f"{r.name}\t{r.sequence}\t{r.true_position}\t{r.reverse:d}\t{r.profile}\n".encode()
            )
        assert digest.hexdigest() == (
            "091b65f93efcf8dd44e6bbc6885ba7ed8a455fb4d597ea10cfcd2dd36844321d"
        )


class TestConvenienceWrappers:
    def test_short_reads_wrapper(self, reference):
        reads = simulate_short_reads(reference, coverage=0.5, seed=8)
        assert all(r.profile == "Illumina" for r in reads)
        assert all(abs(len(r.sequence) - 101) <= 5 for r in reads)
