"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure of the paper at
reproduction scale, times the underlying kernel with pytest-benchmark, and
prints the paper-style rows/series so the output can be compared against
the published numbers (each benchmark reports them on a ``paper:`` line
beside the assertions that check its result).

Helper functions (``run_once``) live in :mod:`repro.testing` and are
imported explicitly by each benchmark module; this conftest only provides
fixtures and marks everything under ``benchmarks/`` as ``slow`` so a quick
``pytest -m "not slow"`` loop skips the heavy figure regenerations.
"""

from __future__ import annotations

import pathlib

import pytest

_BENCHMARK_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(items):
    """Mark every benchmark test as slow (they regenerate whole figures)."""
    for item in items:
        if _BENCHMARK_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def report():
    """Collects printable experiment outputs and emits them at the end."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))
