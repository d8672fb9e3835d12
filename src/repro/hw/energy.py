"""Energy accounting for the EXMA accelerator, the CPU and DRAM.

Table I of the paper gives per-operation energies and areas for each
accelerator component (inference engine, scheduling queue, caches,
de/compression unit, scheduling logic, DMA controller) plus the 223.8 mW
accelerator leakage; McPAT supplies the CPU power and DRAMPower the DRAM
power in the paper.  This module holds those constants and the bookkeeping
used for the Fig. 20 energy-reduction experiment and the Table II
throughput-per-Watt comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ComponentSpec:
    """Area and per-operation energy of one accelerator component."""

    name: str
    area_mm2: float
    energy_per_op_pj: float


#: Table I component inventory of the EXMA accelerator.
EXMA_COMPONENTS = (
    ComponentSpec("inference_engine", area_mm2=0.512, energy_per_op_pj=0.25),
    ComponentSpec("scheduling_queue", area_mm2=0.023, energy_per_op_pj=1.9),
    ComponentSpec("index_cache", area_mm2=0.084, energy_per_op_pj=2.62),
    ComponentSpec("base_cache", area_mm2=0.667, energy_per_op_pj=17.2),
    ComponentSpec("decompress", area_mm2=0.091, energy_per_op_pj=0.21),
    ComponentSpec("sched_and_row", area_mm2=0.035, energy_per_op_pj=1.02),
    ComponentSpec("dma_ctrl", area_mm2=0.21, energy_per_op_pj=3.42),
)

#: Accelerator totals from Table I.
EXMA_ACCELERATOR_AREA_MM2 = 1.62
EXMA_ACCELERATOR_LEAKAGE_W = 0.2238

#: Power of the DDR4 main memory subsystem used for every accelerator in
#: Table II (72 W for the 384 GB, 4-channel configuration).
DRAM_SYSTEM_POWER_W = 72.0

#: CPU baseline power (16-core server-class processor, McPAT estimate).
CPU_POWER_W = 95.0


@dataclass(slots=True)
class EnergyLedger:
    """Accumulates per-component operation counts and converts to joules."""

    op_counts: dict[str, int] = field(default_factory=dict)

    def record(self, component: str, count: int = 1) -> None:
        """Add *count* operations of *component*."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.op_counts[component] = self.op_counts.get(component, 0) + count

    def dynamic_energy_j(self) -> float:
        """Dynamic energy implied by the recorded operation counts.

        Summed in Table-I component order (not dict insertion order), so
        two ledgers with equal counts produce the bit-identical float no
        matter which component a replay happened to record first — the
        columnar and object replays must agree exactly.
        """
        known = {spec.name for spec in EXMA_COMPONENTS}
        for component in self.op_counts:
            if component not in known:
                raise KeyError(f"unknown component {component!r}")
        total_pj = 0.0
        for spec in EXMA_COMPONENTS:
            count = self.op_counts.get(spec.name)
            if count:
                total_pj += count * spec.energy_per_op_pj
        return total_pj * 1e-12

    def leakage_energy_j(self, seconds: float) -> float:
        """Static (leakage) energy over a window of *seconds*."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return EXMA_ACCELERATOR_LEAKAGE_W * seconds

    def total_energy_j(self, seconds: float) -> float:
        """Dynamic plus leakage energy over a window of *seconds*."""
        return self.dynamic_energy_j() + self.leakage_energy_j(seconds)


@dataclass(frozen=True)
class SystemEnergyBreakdown:
    """Energy of one genome-analysis run, in joules, by component.

    Mirrors the stacked bars of Fig. 20: DRAM chip energy, DRAM interface
    (DDR4 I/O) energy, accelerator dynamic and leakage energy, and the CPU
    energy for the non-FM-Index portion of the application.
    """

    dram_chip_j: float
    dram_io_j: float
    accelerator_dynamic_j: float
    accelerator_leakage_j: float
    cpu_j: float

    @property
    def total_j(self) -> float:
        """Total energy of the run."""
        return (
            self.dram_chip_j
            + self.dram_io_j
            + self.accelerator_dynamic_j
            + self.accelerator_leakage_j
            + self.cpu_j
        )

    def normalised_to(self, baseline_total_j: float) -> float:
        """This run's energy relative to a baseline total."""
        if baseline_total_j <= 0:
            raise ValueError("baseline_total_j must be positive")
        return self.total_j / baseline_total_j
