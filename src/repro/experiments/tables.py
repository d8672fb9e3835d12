"""Tables I and II — hardware configuration and accelerator comparison.

Table I is the EXMA accelerator's component inventory (areas, per-op
energies, totals) plus the CPU and DRAM configuration; the experiment
simply exposes it programmatically and checks the totals.  Table II
compares all accelerators (GPU, FPGA, ASIC, MEDAL, FindeR, EXMA) on the
pinus dataset in Mbase/s and Mbase/s/W.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.baselines import standard_accelerator_suite
from ..accel.config import DEFAULT_CPU_CONFIG
from ..hw.dram import DDR4Config
from ..hw.energy import (
    EXMA_ACCELERATOR_AREA_MM2,
    EXMA_ACCELERATOR_LEAKAGE_W,
    EXMA_COMPONENTS,
    ComponentSpec,
)


@dataclass(frozen=True)
class Table1Result:
    """Programmatic view of Table I."""

    components: tuple[ComponentSpec, ...]
    total_area_mm2: float
    reported_area_mm2: float
    leakage_w: float
    cpu_cores: int
    cpu_llc_mb: int
    dram_channels: int
    dram_capacity_gb: int
    dram_timings: tuple[int, int, int]

    @property
    def area_matches_reported(self) -> bool:
        """Whether summed component area is within 5 % of the reported total."""
        return abs(self.total_area_mm2 - self.reported_area_mm2) / self.reported_area_mm2 < 0.05


def run_table1() -> Table1Result:
    """Collect the Table I configuration."""
    dram = DDR4Config()
    total_area = sum(component.area_mm2 for component in EXMA_COMPONENTS)
    return Table1Result(
        components=EXMA_COMPONENTS,
        total_area_mm2=total_area,
        reported_area_mm2=EXMA_ACCELERATOR_AREA_MM2,
        leakage_w=EXMA_ACCELERATOR_LEAKAGE_W,
        cpu_cores=DEFAULT_CPU_CONFIG.cores,
        cpu_llc_mb=DEFAULT_CPU_CONFIG.llc_mb,
        dram_channels=dram.channels,
        dram_capacity_gb=dram.total_capacity_gb,
        dram_timings=(dram.trcd, dram.tcas, dram.trp),
    )


@dataclass(frozen=True)
class Table2Row:
    """One column of Table II."""

    name: str
    algorithm: str
    mem_gb: int
    acc_power_w: float
    mem_power_w: float
    mbase_per_second: float
    mbase_per_second_per_watt: float


def run_table2(
    dataset_size_gb: float = 128.0, mean_exma_error: float = 182.0
) -> list[Table2Row]:
    """The Table II accelerator comparison on a pinus-scale dataset."""
    rows = []
    dram = DDR4Config()
    for device in standard_accelerator_suite(mean_exma_error=mean_exma_error):
        throughput = device.throughput(dram, dataset_size_gb=dataset_size_gb)
        rows.append(
            Table2Row(
                name=device.name,
                algorithm=device.algorithm,
                mem_gb=dram.total_capacity_gb,
                acc_power_w=device.device_power_w,
                mem_power_w=throughput.dram_power_w,
                mbase_per_second=throughput.mbase_per_second,
                mbase_per_second_per_watt=throughput.mbase_per_second_per_watt,
            )
        )
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    """Render Table II."""
    lines = ["Table II - accelerator comparison (pinus-scale)"]
    lines.append(
        f"{'device':8s} {'algorithm':10s} {'Mem(GB)':>8s} {'AccP(W)':>8s} "
        f"{'MemP(W)':>8s} {'Mbase/s':>9s} {'Mb/s/W':>8s}"
    )
    for row in rows:
        lines.append(
            f"{row.name:8s} {row.algorithm:10s} {row.mem_gb:8d} {row.acc_power_w:8.2f} "
            f"{row.mem_power_w:8.1f} {row.mbase_per_second:9.1f} "
            f"{row.mbase_per_second_per_watt:8.2f}"
        )
    return "\n".join(lines)
