"""Shared fixtures: small deterministic references and prebuilt indexes.

Expensive structures (suffix arrays, FM-Indexes, EXMA tables, trained MTL
indexes) are built once per session on small references so the whole suite
stays fast while still exercising real construction code.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.genome.sequence import random_genome
from repro.index.fmindex import FMIndex


@pytest.fixture(scope="session")
def small_reference() -> str:
    """A 2 kbp deterministic reference with human-like repeat structure."""
    return random_genome(2000, seed=42)


@pytest.fixture(scope="session")
def tiny_reference() -> str:
    """A 300 bp reference for brute-force comparisons."""
    return random_genome(300, seed=7)


@pytest.fixture(scope="session")
def fm_index(small_reference: str) -> FMIndex:
    """FM-Index over the small reference."""
    return FMIndex(small_reference)


@pytest.fixture(scope="session")
def exma_table(small_reference: str) -> ExmaTable:
    """EXMA table (k=4) over the small reference."""
    return ExmaTable(small_reference, k=4)


@pytest.fixture(scope="session")
def mtl_index(exma_table: ExmaTable) -> MTLIndex:
    """A small trained MTL index over the session EXMA table."""
    return MTLIndex(exma_table, model_threshold=8, samples_per_kmer=32, epochs=60, seed=0)


@pytest.fixture(scope="session")
def ci_gates():
    """``scripts/ci_gates.py`` as a module (it is a script, not a package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ci_gates.py"
    spec = importlib.util.spec_from_file_location("ci_gates", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Shared helpers (brute_force_find, query generators) live in
# ``repro.testing`` — import them explicitly; conftest.py holds fixtures
# only, so tests/ and benchmarks/ can never race for the ``conftest``
# module name again.
