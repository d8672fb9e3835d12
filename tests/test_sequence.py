"""Unit tests for repro.genome.sequence (synthetic genomes, variation)."""

from __future__ import annotations

import pytest

from repro.genome.alphabet import gc_content
from repro.genome.sequence import Reference, RepeatProfile, VariantModel, random_genome


class TestRandomGenome:
    def test_length(self):
        assert len(random_genome(500, seed=1)) == 500

    def test_alphabet(self):
        assert set(random_genome(300, seed=2)) <= set("ACGT")

    def test_deterministic_with_seed(self):
        assert random_genome(400, seed=3) == random_genome(400, seed=3)

    def test_different_seeds_differ(self):
        assert random_genome(400, seed=3) != random_genome(400, seed=4)

    def test_gc_content_roughly_respected(self):
        genome = random_genome(20_000, gc=0.6, seed=5)
        assert 0.5 < gc_content(genome) < 0.7

    def test_low_gc(self):
        genome = random_genome(20_000, gc=0.25, seed=6)
        assert gc_content(genome) < 0.4

    def test_repeats_create_duplicate_kmers(self):
        profile = RepeatProfile(repeat_fraction=0.8, repeat_unit_length=50)
        genome = random_genome(5000, repeat_profile=profile, seed=7)
        kmers = [genome[i : i + 20] for i in range(0, len(genome) - 20, 7)]
        assert len(set(kmers)) < len(kmers)

    def test_zero_length_raises(self):
        with pytest.raises(ValueError):
            random_genome(0)

    def test_bad_gc_raises(self):
        with pytest.raises(ValueError):
            random_genome(100, gc=1.0)

    def test_small_genome_works(self):
        assert len(random_genome(10, seed=8)) == 10


class TestRepeatProfile:
    def test_defaults_valid(self):
        RepeatProfile()

    def test_invalid_repeat_fraction(self):
        with pytest.raises(ValueError):
            RepeatProfile(repeat_fraction=0.99)

    def test_invalid_tandem_fraction(self):
        with pytest.raises(ValueError):
            RepeatProfile(tandem_fraction=0.9)

    def test_invalid_unit_length(self):
        with pytest.raises(ValueError):
            RepeatProfile(repeat_unit_length=0)


class TestReference:
    def test_paper_length_defaults_to_actual(self):
        ref = Reference(name="x", sequence="ACGTACGT")
        assert ref.paper_length == 8

    def test_len(self):
        assert len(Reference(name="x", sequence="ACGT")) == 4

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            Reference(name="x", sequence="")

    def test_invalid_symbols_raise(self):
        with pytest.raises(Exception):
            Reference(name="x", sequence="ACGN")


class TestVariantModel:
    def test_zero_rates_identity(self):
        model = VariantModel(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.0)
        genome = random_genome(500, seed=9)
        assert model.apply(genome) == genome

    def test_substitutions_change_sequence(self):
        model = VariantModel(substitution_rate=0.2, insertion_rate=0.0, deletion_rate=0.0, seed=1)
        genome = random_genome(1000, seed=10)
        mutated = model.apply(genome)
        assert len(mutated) == len(genome)
        assert mutated != genome

    def test_insertions_lengthen(self):
        model = VariantModel(substitution_rate=0.0, insertion_rate=0.1, deletion_rate=0.0, seed=2)
        genome = random_genome(1000, seed=11)
        assert len(model.apply(genome)) > len(genome)

    def test_deletions_shorten(self):
        model = VariantModel(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.1, seed=3)
        genome = random_genome(1000, seed=12)
        assert len(model.apply(genome)) < len(genome)

    def test_output_alphabet(self):
        model = VariantModel(substitution_rate=0.05, insertion_rate=0.05, deletion_rate=0.05, seed=4)
        assert set(model.apply(random_genome(500, seed=13))) <= set("ACGT")

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            VariantModel(substitution_rate=1.5)
