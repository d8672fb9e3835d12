"""Fig. 10 — the EXMA table step-number trade-off.

Panel (a): paper-scale size of the EXMA data structures (suffix array,
MTL index, increments, bases) as the step number grows from 8 to 17 — the
increments/SA/index components are constant while the base array grows as
``4^k``.

Panel (b): CPU search throughput of LISA-21, EXMA with a naive learned
index at steps 14-17, and EXMA-15 with the MTL index (EXMA-15M),
normalised to LISA-21.  At reproduction scale the scan overheads come from
the *measured* index errors on the scaled dataset; the step numbers are
mapped onto the scaled equivalent operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.baselines import CpuThroughputModel, SoftwareAlgorithm
from ..exma.table import exma_size_breakdown
from ..genome.datasets import HUMAN_PAPER_LENGTH
from ..lisa.ipbwt import lisa_size_bytes
from ..lisa.search import LisaIndex, LisaSearchStats
from .common import build_stack, naive_index, sample_queries

GB = 1024**3


@dataclass(frozen=True)
class ExmaSizeRow:
    """One bar of Fig. 10(a): size components at a given step number."""

    step: int
    suffix_array_gb: float
    index_gb: float
    increments_gb: float
    bases_gb: float

    @property
    def total_gb(self) -> float:
        """Total EXMA footprint."""
        return self.suffix_array_gb + self.index_gb + self.increments_gb + self.bases_gb


@dataclass(frozen=True)
class Fig10Result:
    """Both panels of Fig. 10."""

    sizes: list[ExmaSizeRow]
    throughput_normalised: dict[str, float]
    measured_errors: dict[str, float]
    parameter_counts: dict[str, int]


def exma_size_sweep(min_step: int = 8, max_step: int = 17) -> list[ExmaSizeRow]:
    """Panel (a): paper-scale EXMA size breakdown across step numbers."""
    rows = []
    for step in range(min_step, max_step + 1):
        breakdown = exma_size_breakdown(HUMAN_PAPER_LENGTH, step)
        rows.append(
            ExmaSizeRow(
                step=step,
                suffix_array_gb=breakdown.suffix_array / GB,
                index_gb=breakdown.index / GB,
                increments_gb=breakdown.increments / GB,
                bases_gb=breakdown.bases / GB,
            )
        )
    return rows


def throughput_comparison(
    genome_length: int = 30_000, seed: int = 0, mtl_epochs: int = 150
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Panel (b): normalised CPU throughput of LISA-21 vs EXMA variants.

    Returns ``(normalised throughput, measured index errors, parameter
    counts)``.  The scaled experiment uses k = 5/6/7 as the stand-ins for
    the paper's 14/15/16/17 sweep (same increments-per-k-mer operating
    range) and couples every scheme's scan overhead to its measured error.
    """
    # EXMA stacks at the scaled steps; the paper step labels map linearly.
    scaled_steps = {14: 5, 15: 6, 16: 7, 17: 8}
    stacks = {
        step: build_stack("human", genome_length, k, seed, mtl_epochs if step == 15 else None)
        for step, k in scaled_steps.items()
    }
    reference = stacks[15].reference

    # LISA-21 error measured on the scaled genome.
    lisa = LisaIndex(reference.sequence, k=6, use_learned_index=True)
    lisa_stats = LisaSearchStats()
    for query in sample_queries(reference.sequence, count=30, length=24, seed=seed):
        lisa.backward_search(query, lisa_stats)
    lisa_error = max(lisa_stats.mean_probe, 1.0)

    errors: dict[str, float] = {"LISA-21": lisa_error}
    parameters: dict[str, int] = {}
    model = CpuThroughputModel()
    schemes: list[SoftwareAlgorithm] = [
        SoftwareAlgorithm(
            "LISA-21",
            21,
            index_node_accesses_per_lookup=2.0,
            scan_entries_per_lookup=lisa_error,
            structure_size_gb=lisa_size_bytes(HUMAN_PAPER_LENGTH, 21) / GB,
        )
    ]
    mtl_error_for_15 = None
    for paper_step, stack in stacks.items():
        naive = naive_index(stack.table)
        naive_errors = naive.prediction_errors(naive.modelled_kmers, 40, seed=seed)
        naive_error = float(naive_errors.mean()) if naive_errors.size else 0.0
        name = f"EXMA-{paper_step}"
        errors[name] = naive_error
        parameters[name] = naive.parameter_count
        size_gb = exma_size_breakdown(HUMAN_PAPER_LENGTH, paper_step).total / GB
        schemes.append(
            SoftwareAlgorithm(
                name,
                paper_step,
                index_node_accesses_per_lookup=1.0,
                scan_entries_per_lookup=naive_error,
                scan_entry_bytes=4,
                structure_size_gb=size_gb,
            )
        )
        mtl = stack.index
        if mtl is not None:
            mtl_errors = mtl.prediction_errors(mtl.modelled_kmers, 40, seed=seed)
            mtl_error_for_15 = float(mtl_errors.mean()) if mtl_errors.size else 0.0
            errors["EXMA-15M"] = mtl_error_for_15
            parameters["EXMA-15M"] = mtl.parameter_count
    assert mtl_error_for_15 is not None
    schemes.append(
        SoftwareAlgorithm(
            "EXMA-15M",
            15,
            index_node_accesses_per_lookup=1.0,
            scan_entries_per_lookup=mtl_error_for_15,
            scan_entry_bytes=4,
            structure_size_gb=exma_size_breakdown(HUMAN_PAPER_LENGTH, 15).total / GB,
        )
    )
    throughputs = {scheme.name: model.bases_per_second(scheme) for scheme in schemes}
    baseline = throughputs["LISA-21"]
    normalised = {name: value / baseline for name, value in throughputs.items()}
    return normalised, errors, parameters


def run_fig10(genome_length: int = 30_000, seed: int = 0) -> Fig10Result:
    """Run both panels of Fig. 10."""
    sizes = exma_size_sweep()
    normalised, errors, parameters = throughput_comparison(genome_length=genome_length, seed=seed)
    return Fig10Result(
        sizes=sizes,
        throughput_normalised=normalised,
        measured_errors=errors,
        parameter_counts=parameters,
    )
