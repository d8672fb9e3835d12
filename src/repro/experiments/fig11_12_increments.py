"""Figs. 11 and 12 — increment distributions and the EXMA-15 profile.

Fig. 11 shows that the increments of different k-mers follow similar
distributions (the Stein's-paradox argument for multi-task learning).
Fig. 12 profiles EXMA-15 with the naive learned index: (a) how many k-mers
fall into each increment-count bucket, and (b) how much of the total search
time the heavy k-mers consume because their predictions are bad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exma.learned_index import NaiveLearnedIndex
from ..exma.table import ExmaTable
from .common import build_stack, naive_index

#: Increment-count bucket edges of Fig. 12 (scaled: the paper uses 2-256
#: up to >1M on a 3 Gbp genome; the same relative buckets are used here).
def bucket_edges(reference_length: int) -> list[int]:
    """Bucket edges proportional to the reference length."""
    fractions = [8.5e-8, 3.4e-7, 1.4e-6, 5.5e-6, 2.2e-5, 8.7e-5, 3.5e-4]
    edges = sorted({max(2, int(reference_length * f)) for f in fractions})
    return edges


@dataclass(frozen=True)
class DistributionSimilarity:
    """Fig. 11: how similar the increment CDFs of different k-mers are."""

    kmer_count: int
    mean_pairwise_ks_distance: float
    max_pairwise_ks_distance: float


@dataclass(frozen=True)
class ProfileBucket:
    """One bucket of Fig. 12: k-mer share and search-time share."""

    lower: int
    upper: int | None
    kmer_fraction: float
    search_time_fraction: float
    mean_prediction_error: float


@dataclass(frozen=True)
class Fig11_12Result:
    """Both figures' data."""

    similarity: DistributionSimilarity
    buckets: list[ProfileBucket]


def _normalised_cdf(increments: np.ndarray, reference_length: int, points: int = 50) -> np.ndarray:
    """Sample a k-mer's increment CDF at evenly spaced positions."""
    grid = np.linspace(0, reference_length, points)
    return np.searchsorted(increments, grid) / max(1, increments.size)


def increment_similarity(table: ExmaTable, top_kmers: int = 12) -> DistributionSimilarity:
    """Fig. 11: pairwise Kolmogorov-Smirnov distance of increment CDFs.

    Small distances mean the distributions look alike, which is what makes
    the shared MTL model effective.
    """
    frequencies = table.frequencies()
    order = np.argsort(frequencies)[::-1]
    chosen = [int(p) for p in order[:top_kmers] if frequencies[p] > 1]
    cdfs = [
        _normalised_cdf(table.increments_of(p), table.reference_length) for p in chosen
    ]
    distances = []
    for i in range(len(cdfs)):
        for j in range(i + 1, len(cdfs)):
            distances.append(float(np.max(np.abs(cdfs[i] - cdfs[j]))))
    if not distances:
        distances = [0.0]
    return DistributionSimilarity(
        kmer_count=len(chosen),
        mean_pairwise_ks_distance=float(np.mean(distances)),
        max_pairwise_ks_distance=float(np.max(distances)),
    )


def exma_profile(
    table: ExmaTable, index: NaiveLearnedIndex, samples_per_kmer: int = 30, seed: int = 0
) -> list[ProfileBucket]:
    """Fig. 12: per-bucket k-mer share, time share and prediction error.

    Search time per k-mer is modelled as (2 + error) increment entries per
    lookup, which is exactly the verify-and-linear-search cost the hardware
    pays; the bucket's time share is its k-mers' share of that cost
    weighted by how often they are looked up (proportional to frequency).
    """
    rng = np.random.default_rng(seed)
    frequencies = table.frequencies()
    present = table.present_kmers()
    edges = bucket_edges(table.reference_length)
    boundaries = [0, *edges, None]

    per_kmer_error: dict[int, float] = {}
    for packed in present:
        if not index.has_model(packed):
            per_kmer_error[packed] = 0.0
            continue
        positions = rng.integers(0, table.reference_length + 1, size=samples_per_kmer)
        errors = [index.lookup(packed, int(pos))[1] for pos in positions]
        per_kmer_error[packed] = float(np.mean(errors))

    total_time = 0.0
    bucket_time = [0.0] * (len(boundaries) - 1)
    bucket_kmers = [0] * (len(boundaries) - 1)
    for packed in present:
        count = int(frequencies[packed])
        error = per_kmer_error[packed]
        time = count * (2.0 + error)
        total_time += time
        for b in range(len(boundaries) - 1):
            lower = boundaries[b]
            upper = boundaries[b + 1]
            if count > lower and (upper is None or count <= upper):
                bucket_time[b] += time
                bucket_kmers[b] += 1
                break

    total_kmers = max(1, len(present))
    buckets = []
    for b in range(len(boundaries) - 1):
        lower = boundaries[b]
        upper = boundaries[b + 1]
        members = [
            per_kmer_error[p]
            for p in present
            if frequencies[p] > lower and (upper is None or frequencies[p] <= upper)
        ]
        buckets.append(
            ProfileBucket(
                lower=lower,
                upper=upper,
                kmer_fraction=bucket_kmers[b] / total_kmers,
                search_time_fraction=bucket_time[b] / total_time if total_time else 0.0,
                mean_prediction_error=float(np.mean(members)) if members else 0.0,
            )
        )
    return buckets


def run_fig11_12(
    genome_length: int = 30_000, k: int = 6, seed: int = 0
) -> Fig11_12Result:
    """Run both figures on the scaled human dataset."""
    table = build_stack("human", genome_length, k, seed).table
    index = naive_index(table)
    similarity = increment_similarity(table)
    buckets = exma_profile(table, index, seed=seed)
    return Fig11_12Result(similarity=similarity, buckets=buckets)
