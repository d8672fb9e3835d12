"""Shared test and benchmark helpers, importable as a real module.

The seed suite kept these helpers in ``tests/conftest.py`` and
``benchmarks/conftest.py`` and imported them with ``from conftest import
...``.  Because neither directory is a package, whichever ``conftest``
lands on ``sys.path`` first wins, and with both ``tests/`` and
``benchmarks/`` collected in one run the import silently resolves to the
wrong file and collection breaks.  Everything shared now lives here and is
imported explicitly as ``from repro.testing import ...``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exma.bdi import SECTION_BYTES
from .exma.chain import ENTRY_BYTES, LINE_BYTES
from .genome.alphabet import DNA_ALPHABET, QueryBatch, reverse_complement
from .genome.reads import ReadSimulator, SimulatedRead
from .genome.sequence import random_genome
from .index.fmindex import Interval

__all__ = [
    "BdiLine",
    "CompressedLine",
    "backend_search",
    "bdi_compress",
    "bdi_compress_line",
    "bdi_decompress",
    "brute_force_find",
    "chain_compress",
    "chain_compress_line",
    "chain_decompress",
    "mutate",
    "random_queries",
    "reference_and_queries",
    "run_once",
    "scalar_reads",
]


def backend_search(backend, queries, stats=None) -> list[Interval]:
    """One :class:`Interval` per query of *queries* (strings) from
    *backend*'s ``search_batch`` itself, below the engine."""
    lows, highs = backend.search_batch(QueryBatch.from_strings(queries), stats)
    return [Interval(low, high) for low, high in zip(lows.tolist(), highs.tolist())]


def brute_force_find(reference: str, query: str) -> list[int]:
    """All occurrence positions of *query* in *reference* (test oracle)."""
    return [
        i for i in range(len(reference) - len(query) + 1) if reference[i : i + len(query)] == query
    ]


def mutate(query: str, rng: random.Random, mutations: int = 1) -> str:
    """Substitute *mutations* random symbols of *query* (may create misses)."""
    symbols = list(query)
    for _ in range(mutations):
        i = rng.randrange(len(symbols))
        symbols[i] = rng.choice([c for c in "ACGT" if c != symbols[i]])
    return "".join(symbols)


def random_queries(
    reference: str,
    count: int = 20,
    length: int = 16,
    seed: int = 0,
    mutate_fraction: float = 0.3,
    absent_fraction: float = 0.1,
) -> list[str]:
    """Sample a mixed query set for equivalence tests.

    Most queries are exact reference substrings; ``mutate_fraction`` of
    them get a random substitution (so some miss) and ``absent_fraction``
    are fully random strings (almost certainly absent).  The mix mirrors
    how seeding drives FM-Index searches: mostly hits, some misses.
    """
    rng = random.Random(seed)
    queries: list[str] = []
    for i in range(count):
        roll = rng.random()
        if roll < absent_fraction:
            queries.append("".join(rng.choice("ACGT") for _ in range(length)))
            continue
        start = rng.randrange(max(1, len(reference) - length))
        query = reference[start : start + length]
        if roll < absent_fraction + mutate_fraction:
            query = mutate(query, rng)
        queries.append(query)
    return queries


def reference_and_queries(
    genome_length: int = 600,
    count: int = 20,
    length: int = 16,
    seed: int = 0,
) -> tuple[str, list[str]]:
    """A deterministic random reference plus a mixed query set."""
    reference = random_genome(genome_length, seed=seed)
    return reference, random_queries(reference, count=count, length=length, seed=seed + 1)


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark *function* with a single round (experiments are heavy)."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def scalar_reads(
    simulator: ReadSimulator,
    read_length: int,
    count: int | None = None,
    coverage: float | None = None,
    both_strands: bool = True,
) -> list[SimulatedRead]:
    """The per-read, per-base loop that defines ``ReadSimulator.simulate``
    (test oracle): the block walk must make the same reads and leave
    ``simulator._rng`` in the same state."""
    ref_len = len(simulator._reference)
    if coverage is not None:
        count = max(1, int(round(coverage * ref_len / read_length)))

    rng = simulator._rng
    profile = simulator._profile
    reads = []
    max_start = ref_len - read_length
    starts = rng.integers(0, max_start + 1, size=count)
    for i, start in enumerate(starts):
        fragment = simulator._reference[start : start + read_length]
        reverse = bool(both_strands and rng.random() < 0.5)
        if reverse:
            fragment = reverse_complement(fragment)
        out: list[str] = []
        for base in fragment:
            r = rng.random()
            if r < profile.deletion:
                continue
            r -= profile.deletion
            if r < profile.insertion:
                out.append(DNA_ALPHABET[rng.integers(4)])
            r -= profile.insertion
            if r < profile.mismatch:
                choices = [b for b in DNA_ALPHABET if b != base]
                out.append(choices[rng.integers(3)])
            else:
                out.append(base)
        if not out:
            out.append(fragment[0])
        reads.append(
            SimulatedRead(
                name=f"{profile.name.lower()}_read_{i}",
                sequence="".join(out),
                true_position=int(start),
                reverse=reverse,
                profile=profile.name,
            )
        )
    return reads


# --------------------------------------------------------------------------- #
# The per-line CHAIN and BΔI codecs (test oracles): round-trip the values,
# and sum to what ``chain.compressed_size_bytes`` / ``bdi.compressed_size_bytes``
# compute in one column pass.  Both codecs use 64-byte lines.
# --------------------------------------------------------------------------- #

_CHAIN_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class CompressedLine:
    """One CHAIN-compressed memory line."""

    first: int
    deltas: tuple[int, ...]
    delta_bytes: int

    @property
    def compressed_bytes(self) -> int:
        """Size of the line after compression (first value + deltas)."""
        return ENTRY_BYTES + len(self.deltas) * self.delta_bytes

    def decompress(self) -> np.ndarray:
        """Recover the original values of the line (prefix sum)."""
        values = np.empty(len(self.deltas) + 1, dtype=np.int64)
        values[0] = self.first
        running = self.first
        for i, delta in enumerate(self.deltas):
            running += delta
            values[i + 1] = running
        return values


def _chain_delta_width(deltas: np.ndarray) -> int:
    """Smallest fixed byte width that can hold every delta of a line."""
    if deltas.size == 0:
        return 1
    largest = int(np.abs(deltas).max())
    for width in _CHAIN_WIDTHS:
        if largest < (1 << (8 * width - 1)):
            return width
    return 8


def chain_compress_line(values: np.ndarray) -> CompressedLine:
    """CHAIN-compress one memory line's worth of sorted values."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("cannot compress an empty line")
    deltas = np.diff(values)
    return CompressedLine(
        first=int(values[0]),
        deltas=tuple(int(d) for d in deltas),
        delta_bytes=_chain_delta_width(deltas),
    )


def chain_compress(values: np.ndarray, entries_per_line: int | None = None) -> list[CompressedLine]:
    """CHAIN-compress an array, line by line."""
    values = np.asarray(values, dtype=np.int64)
    if entries_per_line is None:
        entries_per_line = LINE_BYTES // ENTRY_BYTES
    if entries_per_line <= 0:
        raise ValueError("entries_per_line must be positive")
    lines = []
    for start in range(0, values.size, entries_per_line):
        lines.append(chain_compress_line(values[start : start + entries_per_line]))
    return lines


def chain_decompress(lines: list[CompressedLine]) -> np.ndarray:
    """Recover the original array from CHAIN-compressed lines."""
    if not lines:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([line.decompress() for line in lines])




_DELTA_WIDTHS = (1, 2, 4)


@dataclass(frozen=True)
class BdiLine:
    """One BΔI-compressed line: a base section plus fixed-width deltas."""

    base: int
    deltas: tuple[int, ...]
    delta_bytes: int
    compressed: bool

    @property
    def compressed_bytes(self) -> int:
        """Line size after compression (uncompressed lines keep 64 bytes)."""
        if not self.compressed:
            return SECTION_BYTES * (len(self.deltas) + 1)
        return SECTION_BYTES + len(self.deltas) * self.delta_bytes

    def decompress(self) -> np.ndarray:
        """Recover the original sections."""
        values = np.empty(len(self.deltas) + 1, dtype=np.int64)
        values[0] = self.base
        for i, delta in enumerate(self.deltas):
            values[i + 1] = self.base + delta
        return values


def bdi_compress_line(sections: np.ndarray) -> BdiLine:
    """BΔI-compress one line's worth of 8-byte sections."""
    sections = np.asarray(sections, dtype=np.int64)
    if sections.size == 0:
        raise ValueError("cannot compress an empty line")
    base = int(sections[0])
    deltas = sections[1:] - base
    largest = int(np.abs(deltas).max()) if deltas.size else 0
    for width in _DELTA_WIDTHS:
        if largest < (1 << (8 * width - 1)):
            return BdiLine(
                base=base,
                deltas=tuple(int(d) for d in deltas),
                delta_bytes=width,
                compressed=True,
            )
    return BdiLine(
        base=base, deltas=tuple(int(d) for d in deltas), delta_bytes=SECTION_BYTES, compressed=False
    )


def bdi_compress(values: np.ndarray, sections_per_line: int | None = None) -> list[BdiLine]:
    """BΔI-compress an array of 8-byte sections, line by line."""
    values = np.asarray(values, dtype=np.int64)
    if sections_per_line is None:
        sections_per_line = LINE_BYTES // SECTION_BYTES
    if sections_per_line <= 0:
        raise ValueError("sections_per_line must be positive")
    lines = []
    for start in range(0, values.size, sections_per_line):
        lines.append(bdi_compress_line(values[start : start + sections_per_line]))
    return lines


def bdi_decompress(lines: list[BdiLine]) -> np.ndarray:
    """Recover the original sections from BΔI lines."""
    if not lines:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([line.decompress() for line in lines])
