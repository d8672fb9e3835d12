"""Fig. 18 — FM-Index search throughput of the EXMA variants vs the CPU.

The paper stacks four schemes on each dataset (human, picea, pinus),
normalised to the CPU running LISA-21:

* ``EXMA-15``  — the EXMA table + MTL index as software on the CPU;
* ``EX-acc``   — the same running on the accelerator with FR-FCFS and
  close-page DRAM;
* ``EX-2stage``— plus 2-stage scheduling;
* ``EXMA``     — plus the dynamic page policy.

At reproduction scale the accelerator variants are measured with the
trace-driven model on the scaled workload.  The on-chip caches are scaled
down in proportion to the base-array/index footprint so that scheduling
still matters (a 1 MB cache would trivially hold a 4^6-entry base array);
the scaling factor is reported alongside the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.baselines import CpuThroughputModel, SoftwareAlgorithm
from ..accel.config import ex_2stage_config, ex_acc_config, exma_full_config
from ..accel.exma_accelerator import AcceleratorRunResult, ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..exma.table import exma_size_breakdown
from ..genome.datasets import DATASETS, HUMAN_PAPER_LENGTH
from ..lisa.ipbwt import lisa_size_bytes
from .common import Workload, build_workload, scaled_config

GB = 1024**3


@dataclass(frozen=True)
class Fig18Row:
    """Normalised search throughput of the four schemes on one dataset."""

    dataset: str
    exma15_software: float
    ex_acc: float
    ex_2stage: float
    exma: float
    cpu_mbase_per_second: float
    exma_mbase_per_second: float
    #: Issued-to-unique Occ request ratio of the engine's coalescing stage
    #: (the accelerator variants replay the post-merge stream).
    coalescing_factor: float = 1.0


@dataclass(frozen=True)
class Fig18Result:
    """All datasets plus the raw accelerator runs."""

    rows: list[Fig18Row]
    runs: dict[str, dict[str, AcceleratorRunResult]]


def concurrency_gain(
    accelerator_outstanding: int = 512, cpu_mshrs: int = 64, dram_efficiency: float = 0.5
) -> float:
    """Throughput gain from running searches on the accelerator.

    The CPU overlaps at most ``cpu_mshrs`` outstanding misses; the
    accelerator keeps its scheduling queue full.  ``dram_efficiency``
    accounts for the fraction of that extra concurrency the close-page
    DRAM system can actually absorb (a calibration constant; the EX-acc
    speedup it yields is checked in ``benchmarks/test_fig18_throughput.py``).
    """
    if cpu_mshrs <= 0:
        raise ValueError("cpu_mshrs must be positive")
    return max(1.0, accelerator_outstanding / cpu_mshrs * dram_efficiency)


def cpu_lisa_baseline(dataset: str, measured_lisa_error: float = 64.0) -> float:
    """CPU LISA-21 search throughput in bases/second for one dataset."""
    model = CpuThroughputModel()
    scale = DATASETS[dataset].paper_length / HUMAN_PAPER_LENGTH
    algorithm = SoftwareAlgorithm(
        name="CPU",
        symbols_per_iteration=21,
        index_node_accesses_per_lookup=2.0,
        scan_entries_per_lookup=measured_lisa_error,
        structure_size_gb=lisa_size_bytes(DATASETS[dataset].paper_length, 21) / GB,
    )
    del scale  # the structure size already carries the dataset scale
    return model.bases_per_second(algorithm)


def exma_software_throughput(workload: Workload, dataset: str) -> float:
    """EXMA-15 (software) throughput from the measured MTL error."""
    model = CpuThroughputModel()
    mean_error = workload.stats.mean_error
    algorithm = SoftwareAlgorithm(
        name="EXMA-15",
        symbols_per_iteration=15,
        index_node_accesses_per_lookup=1.0,
        scan_entries_per_lookup=mean_error,
        scan_entry_bytes=4,
        structure_size_gb=exma_size_breakdown(DATASETS[dataset].paper_length, 15).total / GB,
    )
    return model.bases_per_second(algorithm)


def run_fig18(
    genome_length: int = 60_000, seed: int = 0, datasets: tuple[str, ...] = ("human", "picea", "pinus")
) -> Fig18Result:
    """Measure all four schemes on every dataset."""
    rows = []
    runs: dict[str, dict[str, AcceleratorRunResult]] = {}
    for dataset in datasets:
        workload = build_workload(dataset, genome_length=genome_length, seed=seed)
        cpu_bases = cpu_lisa_baseline(dataset)
        sw_bases = exma_software_throughput(workload, dataset)

        # The accelerator variants replay the request stream the batched
        # engine produces: the whole query batch advances in lockstep and
        # duplicate (k-mer, pos) requests are merged before they reach the
        # scheduling queue, mirroring the paper's DRAM-side coalescing.
        engine = QueryEngine(ExmaBackend(table=workload.table, index=workload.mtl_index))
        requests, batch_stats = engine.request_stream(list(workload.queries))
        # The batch searched every issued request's worth of bases; the
        # replayed stream is shorter by the coalescing factor, so the
        # base count is passed explicitly to keep throughput comparable
        # with the pre-merge accounting.
        searched_bases = batch_stats.occ_requests_issued * workload.table.k // 2

        dataset_runs: dict[str, AcceleratorRunResult] = {}
        variant_configs = {
            "EX-acc": scaled_config(ex_acc_config()),
            "EX-2stage": scaled_config(ex_2stage_config()),
            "EXMA": scaled_config(exma_full_config()),
        }
        for name, config in variant_configs.items():
            accelerator = ExmaAccelerator(workload.table, workload.mtl_index, config)
            # The engine's RequestStream replays columnar — its packed
            # arrays feed the array schedulers directly.
            dataset_runs[name] = accelerator.run(
                requests, name=name, bases_processed=searched_bases
            )
        runs[dataset] = dataset_runs

        # Accelerator bars.  The software-to-accelerator jump (EXMA-15 ->
        # EX-acc) comes from concurrency: the CPU can overlap at most its
        # 64 LLC MSHRs worth of misses while the accelerator keeps a full
        # scheduling queue of requests in flight; the gain is capped by a
        # DRAM efficiency factor (documented calibration).  The scheduling
        # and page-policy steps (EX-acc -> EX-2stage -> EXMA) use the
        # *measured* cycle ratios of the trace-driven accelerator model.
        ex_acc_norm = (sw_bases / cpu_bases) * concurrency_gain()
        ex_acc_cycles = dataset_runs["EX-acc"].total_cycles
        ex_2stage_norm = ex_acc_norm * (
            ex_acc_cycles / max(1, dataset_runs["EX-2stage"].total_cycles)
        )
        exma_norm = ex_acc_norm * (
            ex_acc_cycles / max(1, dataset_runs["EXMA"].total_cycles)
        )
        rows.append(
            Fig18Row(
                dataset=dataset,
                exma15_software=sw_bases / cpu_bases,
                ex_acc=ex_acc_norm,
                ex_2stage=ex_2stage_norm,
                exma=exma_norm,
                cpu_mbase_per_second=cpu_bases / 1e6,
                exma_mbase_per_second=dataset_runs["EXMA"].throughput.mbase_per_second,
                coalescing_factor=batch_stats.coalescing_factor,
            )
        )
    return Fig18Result(rows=rows, runs=runs)


def format_fig18(result: Fig18Result) -> str:
    """Render the normalised throughput table."""
    lines = ["Fig. 18 - search throughput normalised to CPU (LISA-21)"]
    lines.append(
        f"{'dataset':8s} {'EXMA-15':>9s} {'EX-acc':>8s} {'EX-2stage':>10s} {'EXMA':>8s}"
        f" {'coalesce':>9s}"
    )
    for row in result.rows:
        lines.append(
            f"{row.dataset:8s} {row.exma15_software:9.2f} {row.ex_acc:8.2f} "
            f"{row.ex_2stage:10.2f} {row.exma:8.2f} {row.coalescing_factor:8.2f}x"
        )
    return "\n".join(lines)
