"""Hardware configuration of the EXMA accelerator and its host (Table I).

Everything the paper's Table I specifies is collected here: the accelerator
component inventory (areas and per-op energies live in
``repro.hw.energy``), the cache/CAM/PE-array geometries, the CPU baseline
parameters and the DDR4 main-memory system.  Experiments build variant
configurations from :class:`ExmaAcceleratorConfig` (e.g. the Fig. 22 design
-space sweeps change ``dimms_per_channel``, ``pe_arrays``, ``cam_entries``
and ``base_cache_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import runtime
from ..hw.cam import CamConfig
from ..hw.dram import DDR4Config, PagePolicy
from ..hw.pe_array import PEArrayConfig


@dataclass(frozen=True)
class CpuConfig:
    """The CPU baseline of Table I."""

    cores: int = 16
    clock_ghz: float = 2.5
    llc_mb: int = 40
    llc_mshrs: int = 64

    def __post_init__(self) -> None:
        if min(self.cores, self.llc_mb, self.llc_mshrs) <= 0 or self.clock_ghz <= 0:
            raise ValueError("CPU parameters must be positive")


@dataclass(frozen=True)
class ExmaAcceleratorConfig:
    """Full configuration of the EXMA accelerator (Table I defaults)."""

    pe_arrays: int = 4
    cam_entries: int = 512
    index_cache_bytes: int = 32 * 1024
    index_cache_ways: int = 16
    base_cache_bytes: int = 1024 * 1024
    base_cache_ways: int = 8
    cache_line_bytes: int = 64
    decompress_adders: int = 32
    dimms_per_channel: int = 3
    channels: int = 4
    page_policy: PagePolicy = PagePolicy.DYNAMIC
    two_stage_scheduling: bool = True
    use_chain_compression: bool = True

    def __post_init__(self) -> None:
        for name in (
            "pe_arrays", "cam_entries", "index_cache_bytes", "index_cache_ways",
            "base_cache_bytes", "base_cache_ways", "cache_line_bytes",
            "decompress_adders", "dimms_per_channel", "channels",
        ):
            runtime.check_workers(getattr(self, name), name)

    def cam_config(self) -> CamConfig:
        """The scheduling-queue configuration."""
        return CamConfig(entries=self.cam_entries)

    def pe_config(self) -> PEArrayConfig:
        """The inference-engine configuration."""
        return PEArrayConfig(arrays=self.pe_arrays)

    def dram_config(self) -> DDR4Config:
        """The DDR4 configuration seen by this accelerator."""
        return DDR4Config(channels=self.channels, dimms_per_channel=self.dimms_per_channel)

    def with_overrides(self, **kwargs) -> "ExmaAcceleratorConfig":
        """A copy with selected fields replaced (for design-space sweeps)."""
        return replace(self, **kwargs)


#: Accelerator variants evaluated in Fig. 18 (cumulative feature stack).
def ex_acc_config() -> ExmaAcceleratorConfig:
    """EX-acc: the accelerator with FR-FCFS scheduling and close-page DRAM."""
    return ExmaAcceleratorConfig(page_policy=PagePolicy.CLOSE, two_stage_scheduling=False)


def ex_2stage_config() -> ExmaAcceleratorConfig:
    """EX-2stage: EX-acc plus 2-stage scheduling."""
    return ExmaAcceleratorConfig(page_policy=PagePolicy.CLOSE, two_stage_scheduling=True)


def exma_full_config() -> ExmaAcceleratorConfig:
    """EXMA: EX-2stage plus the dynamic page policy."""
    return ExmaAcceleratorConfig(page_policy=PagePolicy.DYNAMIC, two_stage_scheduling=True)


DEFAULT_CPU_CONFIG = CpuConfig()
DEFAULT_ACCELERATOR_CONFIG = ExmaAcceleratorConfig()
