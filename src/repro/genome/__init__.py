"""Genome substrate: alphabet, synthetic references, I/O, read simulators."""

from .datasets import build_dataset
from .reads import ILLUMINA, PACBIO, ReadSimulator, simulate_short_reads
from .sequence import VariantModel, random_genome

__all__ = [
    "ILLUMINA",
    "PACBIO",
    "ReadSimulator",
    "VariantModel",
    "build_dataset",
    "random_genome",
    "simulate_short_reads",
]
