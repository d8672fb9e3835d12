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

from .genome.alphabet import DNA_ALPHABET, reverse_complement
from .genome.reads import ReadSimulator, SimulatedRead
from .genome.sequence import random_genome

__all__ = [
    "brute_force_find",
    "mutate",
    "random_queries",
    "reference_and_queries",
    "run_once",
    "scalar_reads",
]


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
