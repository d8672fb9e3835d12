"""Unit tests for repro.index.kstep (the Eq. 2 k-step FM-Index size model)."""

from __future__ import annotations

import pytest

from repro.genome.datasets import HUMAN_PAPER_LENGTH
from repro.index.kstep import kstep_size_bytes


class TestKStepSizeModel:
    def test_paper_fm5_size_about_100gb_with_d128(self):
        size_gb = kstep_size_bytes(HUMAN_PAPER_LENGTH, 5, bucket_width=128) / 1024**3
        assert 80 < size_gb < 120

    def test_paper_fm6_size_about_374gb_with_d128(self):
        size_gb = kstep_size_bytes(HUMAN_PAPER_LENGTH, 6, bucket_width=128) / 1024**3
        assert 330 < size_gb < 420

    def test_exponential_growth(self):
        sizes = [kstep_size_bytes(HUMAN_PAPER_LENGTH, k) for k in range(1, 7)]
        ratios = [b / a for a, b in zip(sizes, sizes[1:])]
        assert all(r > 2.0 for r in ratios[2:])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kstep_size_bytes(0, 2)
        with pytest.raises(ValueError):
            kstep_size_bytes(100, 0)
        with pytest.raises(ValueError):
            kstep_size_bytes(100, 2, bucket_width=0)
