"""Figs. 21, 22 and 23 — bandwidth utilisation, design space, compression.

* Fig. 21 compares DRAM bandwidth utilisation of the ASIC, GPU, MEDAL and
  EXMA under the shared DDR4 main memory.
* Fig. 22 sweeps the EXMA design space: DIMMs per channel, PE-array count,
  CAM entries and base-cache capacity, reporting throughput normalised to
  the default EXMA configuration.
* Fig. 23 compares CHAIN compression of the EXMA-15 table against BΔI
  compression of the LISA-21 data on the pinus dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.baselines import asic_model, exma_analytic_model, gpu_model, medal_model
from ..accel.config import exma_full_config
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.coalesce import RequestStream
from ..exma import bdi, chain
from ..exma.table import ExmaTable, exma_size_breakdown
from ..genome.datasets import DATASETS, build_dataset
from ..lisa.ipbwt import IPBWT, lisa_size_bytes
from .common import SCALED_BASE_CACHE_BYTES, SCALED_INDEX_CACHE_BYTES, build_workload

GB = 1024**3


# --------------------------------------------------------------------------- #
# Fig. 21 — bandwidth utilisation
# --------------------------------------------------------------------------- #


def run_fig21(mean_exma_error: float = 182.0) -> dict[str, float]:
    """Bandwidth utilisation of ASIC, GPU, MEDAL and EXMA (Fig. 21)."""
    devices = [asic_model(), gpu_model(), medal_model(), exma_analytic_model(mean_exma_error)]
    return {device.name: device.throughput().bandwidth_utilization for device in devices}


# --------------------------------------------------------------------------- #
# Fig. 22 — design-space exploration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class DsePoint:
    """One bar of Fig. 22: a configuration and its normalised throughput."""

    group: str
    label: str
    normalised_throughput: float


def run_fig22(genome_length: int = 60_000, seed: int = 0) -> list[DsePoint]:
    """Sweep DIMM count, PE arrays, CAM entries and base-cache capacity."""
    workload = build_workload("human", genome_length=genome_length, seed=seed)
    # Pack the workload's request tuple into columns once; every sweep
    # point replays the same stream, so the objects are never re-walked.
    requests = RequestStream()
    requests.extend(workload.requests)

    def run_with(**overrides) -> float:
        settings = {
            "base_cache_bytes": SCALED_BASE_CACHE_BYTES,
            "index_cache_bytes": SCALED_INDEX_CACHE_BYTES,
            "cam_entries": 128,
        }
        settings.update(overrides)
        config = exma_full_config().with_overrides(**settings)
        accelerator = ExmaAccelerator(workload.table, workload.mtl_index, config)
        return accelerator.run(requests, name="dse").throughput.bases_per_second

    baseline = run_with()
    points = []
    for dimms in (2, 3, 4):
        points.append(
            DsePoint("DIMMs", f"{dimms}D", run_with(dimms_per_channel=dimms) / baseline)
        )
    for arrays in (2, 4, 8):
        points.append(DsePoint("PE arrays", f"{arrays}A", run_with(pe_arrays=arrays) / baseline))
    for entries in (64, 128, 256):
        points.append(
            DsePoint("CAM entries", f"{entries}E", run_with(cam_entries=entries) / baseline)
        )
    for capacity in (SCALED_BASE_CACHE_BYTES // 2, SCALED_BASE_CACHE_BYTES, SCALED_BASE_CACHE_BYTES * 2):
        points.append(
            DsePoint(
                "base cache",
                f"{capacity // 1024}KB",
                run_with(base_cache_bytes=capacity) / baseline,
            )
        )
    return points


# --------------------------------------------------------------------------- #
# Fig. 23 — CHAIN vs BΔI compression
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompressionComparison:
    """Fig. 23: data sizes before/after compression for both schemes."""

    dataset: str
    lisa_original_gb: float
    lisa_bdi_gb: float
    exma_original_gb: float
    exma_chain_gb: float
    measured_bdi_ratio: float
    measured_chain_ratio: float

    @property
    def lisa_to_exma_original_ratio(self) -> float:
        """How much larger LISA-21 is than EXMA-15 before compression."""
        return self.lisa_original_gb / max(self.exma_original_gb, 1e-9)


def run_fig23(
    dataset: str = "pinus", genome_length: int = 40_000, k: int = 6, seed: int = 0
) -> CompressionComparison:
    """Measure CHAIN and BΔI ratios and report paper-scale sizes.

    The compression *ratios* are measured on the scaled dataset's real
    EXMA increments and IP-BWT entries; the absolute GB numbers apply those
    measured ratios to the paper-scale analytic sizes.
    """
    reference = build_dataset(dataset, simulated_length=genome_length, seed=seed)
    table = ExmaTable(reference.sequence, k=k)
    ipbwt = IPBWT(reference.sequence, k=k)

    chain_ratio = chain.compression_ratio(table.increments)
    ipbwt_rows = np.array([entry.paired_row for entry in [ipbwt[i] for i in range(len(ipbwt))]])
    # An IP-BWT entry is a 16-byte (k-mer, row) pair; BΔI compresses the
    # sorted row halves well and the k-mer halves barely at all, so the
    # whole-entry ratio blends the measured row ratio with 1.0.
    bdi_row_ratio = bdi.compression_ratio(ipbwt_rows)
    bdi_entry_ratio = (8 * bdi_row_ratio + 8) / 16

    paper_length = DATASETS[dataset].paper_length
    lisa_original = lisa_size_bytes(paper_length, 21) / GB
    exma_original = exma_size_breakdown(paper_length, 15).total / GB
    return CompressionComparison(
        dataset=dataset,
        lisa_original_gb=lisa_original,
        lisa_bdi_gb=lisa_original * bdi_entry_ratio,
        exma_original_gb=exma_original,
        exma_chain_gb=exma_original * chain_ratio,
        measured_bdi_ratio=bdi_entry_ratio,
        measured_chain_ratio=chain_ratio,
    )
