"""Unit tests for repro.genome.datasets (paper dataset stand-ins)."""

from __future__ import annotations

import pytest

from repro.genome.datasets import (
    DATASETS,
    HUMAN,
    HUMAN_PAPER_LENGTH,
    PICEA,
    PINUS,
    build_dataset,
)


class TestDatasetProfiles:
    def test_three_paper_datasets(self):
        assert set(DATASETS) == {"human", "picea", "pinus"}

    def test_paper_lengths(self):
        assert HUMAN.paper_length == 3_000_000_000
        assert PICEA.paper_length == 20_000_000_000
        assert PINUS.paper_length == 31_000_000_000

    def test_conifers_more_repetitive_than_human(self):
        assert PICEA.repeat_profile.repeat_fraction > HUMAN.repeat_profile.repeat_fraction
        assert PINUS.repeat_profile.repeat_fraction > PICEA.repeat_profile.repeat_fraction


class TestBuildDataset:
    def test_build_returns_requested_length(self):
        ref = build_dataset("human", simulated_length=5000, seed=0)
        assert len(ref) == 5000

    def test_paper_length_carried(self):
        ref = build_dataset("human", simulated_length=5000, seed=0)
        assert ref.paper_length == HUMAN_PAPER_LENGTH

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            build_dataset("ecoli")

    def test_deterministic(self):
        a = build_dataset("pinus", simulated_length=2000, seed=3)
        b = build_dataset("pinus", simulated_length=2000, seed=3)
        assert a.sequence == b.sequence

    def test_datasets_differ(self):
        human = build_dataset("human", simulated_length=3000, seed=1)
        pinus = build_dataset("pinus", simulated_length=3000, seed=1)
        assert human.sequence != pinus.sequence
