"""Throughput, bandwidth and energy-efficiency metrics.

The paper reports FM-Index search performance as *million bases searched
per second* (Mbase/s) and efficiency as Mbase/s per Watt (Table II), plus
normalised search throughput (Figs. 6, 10, 18, 22), application speedup
(Fig. 19), normalised energy (Fig. 20) and DRAM bandwidth utilisation
(Fig. 21).  This module holds the small result dataclasses and conversion
helpers shared by the accelerator models and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchThroughput:
    """Result of running a seeding workload on one accelerator/algorithm."""

    name: str
    bases_processed: int
    seconds: float
    accelerator_power_w: float
    dram_power_w: float
    bandwidth_utilization: float = 0.0
    row_hit_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bases_processed < 0:
            raise ValueError("bases_processed must be non-negative")
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")

    @property
    def bases_per_second(self) -> float:
        """Raw search throughput in bases per second."""
        return self.bases_processed / self.seconds

    @property
    def mbase_per_second(self) -> float:
        """Search throughput in Mbase/s (Table II metric)."""
        return self.bases_per_second / 1e6

    @property
    def total_power_w(self) -> float:
        """Accelerator plus DRAM power."""
        return self.accelerator_power_w + self.dram_power_w

    @property
    def mbase_per_second_per_watt(self) -> float:
        """Efficiency in Mbase/s/W (Table II metric)."""
        if self.total_power_w <= 0:
            return 0.0
        return self.mbase_per_second / self.total_power_w


@dataclass(frozen=True)
class ApplicationRun:
    """Execution-time breakdown of one genome-analysis application run."""

    application: str
    dataset: str
    fm_index_seconds: float
    dynamic_programming_seconds: float
    other_seconds: float

    def __post_init__(self) -> None:
        for value in (self.fm_index_seconds, self.dynamic_programming_seconds, self.other_seconds):
            if value < 0:
                raise ValueError("time components must be non-negative")

    @property
    def total_seconds(self) -> float:
        """Total run time."""
        return self.fm_index_seconds + self.dynamic_programming_seconds + self.other_seconds

    @property
    def fm_index_fraction(self) -> float:
        """Fraction of time in FM-Index searches (Fig. 1)."""
        total = self.total_seconds
        if total == 0:
            return 0.0
        return self.fm_index_seconds / total

    def speedup_with_search_speedup(self, search_speedup: float) -> float:
        """Amdahl's-law application speedup when searches run faster."""
        if search_speedup <= 0:
            raise ValueError("search_speedup must be positive")
        fraction = self.fm_index_fraction
        return 1.0 / ((1.0 - fraction) + fraction / search_speedup)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (the paper's gmean columns)."""
    if not values:
        raise ValueError("values must be non-empty")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
