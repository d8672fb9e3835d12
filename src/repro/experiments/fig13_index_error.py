"""Fig. 13 — prediction errors: naive learned index vs the MTL index.

The paper compares the per-lookup prediction error of the naive per-k-mer
learned index and the MTL index, separately for the k-mers with 64K-256K
increments and those with more than 1M increments (on the 3 Gbp human
genome).  At reproduction scale the same experiment uses the heaviest
k-mers of the scaled table split into two frequency classes; the claim
being reproduced is that the MTL index cuts the mean error by an order of
magnitude while using fewer parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exma.table import ExmaTable
from ..lisa.learned_index import PredictionStats
from .common import build_stack, naive_index


@dataclass(frozen=True)
class ErrorComparison:
    """Error statistics of both indexes on one k-mer frequency class."""

    label: str
    kmer_count: int
    naive: PredictionStats
    mtl: PredictionStats

    @property
    def improvement(self) -> float:
        """Naive mean error divided by MTL mean error (>1 means MTL wins)."""
        if self.mtl.mean_error == 0:
            return float("inf") if self.naive.mean_error > 0 else 1.0
        return self.naive.mean_error / self.mtl.mean_error


@dataclass(frozen=True)
class Fig13Result:
    """Both frequency classes plus the parameter-count comparison."""

    heavy: ErrorComparison
    heaviest: ErrorComparison
    naive_parameters: int
    mtl_parameters: int

    @property
    def parameter_ratio(self) -> float:
        """MTL parameters over naive parameters (paper: about one half)."""
        if self.naive_parameters == 0:
            return 1.0
        return self.mtl_parameters / self.naive_parameters


def _frequency_classes(table: ExmaTable, classes: int = 2) -> list[list[int]]:
    """Split modelled-worthy k-mers into frequency classes (light/heavy)."""
    frequencies = table.frequencies()
    present = [p for p in table.present_kmers() if frequencies[p] > 16]
    if not present:
        return [[], []]
    ordered = sorted(present, key=lambda p: int(frequencies[p]))
    # Heaviest decile forms the ">1M"-analogue class; the next three
    # deciles form the "64K-256K" analogue.
    n = len(ordered)
    heaviest = ordered[max(0, n - max(1, n // 10)) :]
    heavy = ordered[max(0, n - max(2, 4 * n // 10)) : max(0, n - max(1, n // 10))]
    if not heavy:
        heavy = heaviest
    return [heavy, heaviest]


def run_fig13(
    genome_length: int = 30_000,
    k: int = 6,
    seed: int = 0,
    mtl_epochs: int = 150,
    samples_per_kmer: int = 60,
) -> Fig13Result:
    """Compare naive and MTL index errors on the heavy k-mer classes."""
    stack = build_stack("human", genome_length, k, seed, mtl_epochs)
    table, mtl = stack.table, stack.index
    naive = naive_index(table)

    heavy_class, heaviest_class = _frequency_classes(table)
    comparisons = []
    for label, kmers in (("heavy", heavy_class), ("heaviest", heaviest_class)):
        naive_errors = naive.prediction_errors(kmers, samples_per_kmer, seed=seed)
        mtl_errors = mtl.prediction_errors(kmers, samples_per_kmer, seed=seed)
        comparisons.append(
            ErrorComparison(
                label=label,
                kmer_count=len(kmers),
                naive=PredictionStats.from_errors(naive_errors),
                mtl=PredictionStats.from_errors(mtl_errors),
            )
        )
    return Fig13Result(
        heavy=comparisons[0],
        heaviest=comparisons[1],
        naive_parameters=naive.parameter_count,
        mtl_parameters=mtl.parameter_count,
    )


def format_fig13(result: Fig13Result) -> str:
    """Render the comparison as a small table."""
    lines = ["Fig. 13 - learned vs MTL index prediction errors"]
    for comparison in (result.heavy, result.heaviest):
        lines.append(
            f"{comparison.label:9s} kmers={comparison.kmer_count:4d} "
            f"naive mean={comparison.naive.mean_error:8.2f} "
            f"MTL mean={comparison.mtl.mean_error:8.2f} "
            f"improvement={comparison.improvement:6.2f}x"
        )
    lines.append(
        f"parameters: naive={result.naive_parameters} mtl={result.mtl_parameters} "
        f"ratio={result.parameter_ratio:.2f}"
    )
    return "\n".join(lines)
