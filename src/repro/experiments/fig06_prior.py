"""Fig. 6 — inefficiency of prior FM-Index algorithms.

Four panels:

* (a) the DRAM rows touched by 200 consecutive 1-step FM-Index iterations
  are almost all distinct (no row-buffer locality);
* (b) the k-step FM-Index size grows exponentially with k while LISA's
  grows linearly (paper-scale analytic sizes, Eq. 2);
* (c) the LISA-21 learned index has large prediction errors;
* (d) the resulting CPU search throughput of FM-4/5/6 and the LISA
  variants, normalised to 1-step FM-Index.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..accel.baselines import CpuThroughputModel, SoftwareAlgorithm
from ..genome.datasets import HUMAN_PAPER_LENGTH, build_dataset
from ..index.fmindex import FMIndex, SearchTrace
from ..index.kstep import kstep_size_bytes
from ..lisa.ipbwt import lisa_size_bytes
from ..lisa.learned_index import PredictionStats
from ..lisa.search import LisaIndex, LisaSearchStats
from .common import sample_queries

GB = 1024**3


@dataclass(frozen=True)
class RowAccessTrace:
    """Panel (a): locality of consecutive 1-step FM-Index Occ accesses."""

    accesses: int
    distinct_buckets: int
    consecutive_same_bucket_rate: float
    bucket_count: int


@dataclass(frozen=True)
class Fig6Result:
    """All four panels of Fig. 6."""

    row_trace: RowAccessTrace
    fm_sizes_gb: dict[int, float]
    lisa_sizes_gb: dict[int, float]
    lisa_error_stats: PredictionStats
    lisa_mean_probe: float
    cpu_throughput_normalised: dict[str, float]


def row_access_trace(
    genome_length: int = 60_000, iterations: int = 200, seed: int = 0
) -> RowAccessTrace:
    """Panel (a): Occ-bucket access locality over consecutive iterations.

    Records the bucket touched by every Occ lookup of consecutive 1-step
    backward-search iterations and reports how many distinct buckets were
    touched plus how often two consecutive accesses landed in the same
    bucket — the row-buffer-hit opportunity the paper shows to be absent.
    """
    reference = build_dataset("human", simulated_length=genome_length, seed=seed)
    fm = FMIndex(reference.sequence, bucket_width=64)
    queries = sample_queries(reference.sequence, count=max(4, iterations // 20), length=64, seed=seed)
    trace = SearchTrace()
    for query in queries:
        fm.backward_search(query, trace)
        if trace.iterations >= iterations:
            break
    accesses = trace.bucket_accesses[: 2 * iterations]
    same = sum(1 for a, b in zip(accesses, accesses[1:]) if a == b)
    return RowAccessTrace(
        accesses=len(accesses),
        distinct_buckets=len(set(accesses)),
        consecutive_same_bucket_rate=same / max(1, len(accesses) - 1),
        bucket_count=fm.bucket_count,
    )


def size_vs_step(max_step: int = 32) -> tuple[dict[int, float], dict[int, float]]:
    """Panel (b): paper-scale FM-k and LISA-k sizes in GB."""
    fm_sizes = {}
    lisa_sizes = {}
    for k in range(1, max_step + 1):
        if k <= 16:
            fm_sizes[k] = kstep_size_bytes(HUMAN_PAPER_LENGTH, k, bucket_width=128) / GB
        lisa_sizes[k] = lisa_size_bytes(HUMAN_PAPER_LENGTH, k) / GB
    return fm_sizes, lisa_sizes


def lisa_error_distribution(
    genome_length: int = 30_000, k: int = 6, seed: int = 0
) -> tuple[PredictionStats, float]:
    """Panel (c): LISA learned-index error statistics on the scaled genome."""
    reference = build_dataset("human", simulated_length=genome_length, seed=seed)
    lisa = LisaIndex(reference.sequence, k=k, use_learned_index=True)
    assert lisa.learned_index is not None
    stats = lisa.learned_index.error_stats(sample=2000, seed=seed)
    search_stats = LisaSearchStats()
    for query in sample_queries(reference.sequence, count=30, length=4 * k, seed=seed):
        lisa.backward_search(query, search_stats)
    return stats, search_stats.mean_probe


def cpu_throughput_comparison(
    lisa_mean_error: float, lisa_perfect_error: float = 0.0
) -> dict[str, float]:
    """Panel (d): CPU throughput of the paper's schemes, normalised to FM-1.

    The LISA schemes' scan overhead comes from the *measured* learned-index
    error (scaled genome); the k-step sizes that drive the TLB penalty are
    the paper-scale analytic sizes.
    """
    model = CpuThroughputModel()
    schemes = [
        SoftwareAlgorithm("FM-1", 1, structure_size_gb=kstep_size_bytes(HUMAN_PAPER_LENGTH, 1, 128) / GB),
        SoftwareAlgorithm("FM-4", 4, structure_size_gb=kstep_size_bytes(HUMAN_PAPER_LENGTH, 4, 128) / GB),
        SoftwareAlgorithm("FM-5", 5, structure_size_gb=kstep_size_bytes(HUMAN_PAPER_LENGTH, 5, 128) / GB),
        SoftwareAlgorithm("FM-6", 6, structure_size_gb=kstep_size_bytes(HUMAN_PAPER_LENGTH, 6, 128) / GB),
        SoftwareAlgorithm(
            "LISA-11",
            11,
            index_node_accesses_per_lookup=2.0,
            scan_entries_per_lookup=lisa_mean_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 11) / GB,
        ),
        SoftwareAlgorithm(
            "LISA-21",
            21,
            index_node_accesses_per_lookup=2.0,
            scan_entries_per_lookup=lisa_mean_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 21) / GB,
        ),
        SoftwareAlgorithm(
            "LISA-32",
            32,
            index_node_accesses_per_lookup=2.0,
            scan_entries_per_lookup=lisa_mean_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 32) / GB,
        ),
        SoftwareAlgorithm(
            "LISA-21P",
            21,
            index_node_accesses_per_lookup=2.0,
            scan_entries_per_lookup=lisa_perfect_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 21) / GB,
        ),
        SoftwareAlgorithm(
            "LISA-21PC",
            21,
            index_node_accesses_per_lookup=0.0,
            scan_entries_per_lookup=lisa_perfect_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 21) / GB,
        ),
    ]
    throughputs = {scheme.name: model.bases_per_second(scheme) for scheme in schemes}
    baseline = throughputs["FM-1"]
    return {name: value / baseline for name, value in throughputs.items()}


def run_fig6(genome_length: int = 30_000, seed: int = 0) -> Fig6Result:
    """Run all four panels."""
    row_trace = row_access_trace(genome_length=genome_length, seed=seed)
    fm_sizes, lisa_sizes = size_vs_step()
    error_stats, mean_probe = lisa_error_distribution(genome_length=genome_length, seed=seed)
    normalised = cpu_throughput_comparison(lisa_mean_error=max(error_stats.mean_error, mean_probe))
    return Fig6Result(
        row_trace=row_trace,
        fm_sizes_gb=fm_sizes,
        lisa_sizes_gb=lisa_sizes,
        lisa_error_stats=error_stats,
        lisa_mean_probe=mean_probe,
        cpu_throughput_normalised=normalised,
    )
