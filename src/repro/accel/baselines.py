"""Analytic throughput models: CPU software variants and prior accelerators.

The paper compares EXMA against software algorithms running on a 16-core
CPU (conventional k-step FM-Index and LISA variants, Figs. 6(d)/10(b)/18)
and against prior hardware accelerators (GPU, FPGA, ASIC, and the PIMs
MEDAL and FindeR; Table II and Fig. 21).  None of those designs is
available to run, so each is modelled analytically from the quantities that
the paper argues actually determine FM-Index search performance:

* how many DNA symbols one iteration consumes (k),
* how many random memory accesses an iteration issues,
* how many sequential bytes the learned-index error forces it to scan,
* how much concurrency the device can keep in flight,
* the DRAM page policy / chip parallelism / address-bus behaviour.

The CPU model takes its error statistics from *measured* learned-index
errors on the scaled datasets, so the shapes of Figs. 6(d) and 10(b)
emerge from the data rather than being hard-coded.  The absolute constants
(DRAM latency, streaming bandwidth, TLB penalties, device concurrency) are
calibration assumptions recorded here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.dram import DDR4Config
from ..hw.energy import DRAM_SYSTEM_POWER_W
from .metrics import SearchThroughput

#: Bytes of one IP-BWT entry (k-mer + paired row) used for scan traffic.
IPBWT_ENTRY_BYTES = 16

#: Bytes of one EXMA increment entry.
INCREMENT_ENTRY_BYTES = 4


# --------------------------------------------------------------------------- #
# CPU software model
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CpuMemoryParameters:
    """Calibration constants of the CPU memory system."""

    random_access_ns: float = 95.0
    streaming_bandwidth_gbs: float = 12.0
    memory_level_parallelism: float = 4.0
    cores: int = 16
    tlb_walk_ns: float = 80.0
    #: Data-structure size (GB) at which TLB misses start to hurt; the
    #: penalty grows with log2(size / threshold).
    tlb_threshold_gb: float = 8.0
    index_node_access_ns: float = 40.0


@dataclass(frozen=True)
class SoftwareAlgorithm:
    """One software search algorithm running on the CPU baseline.

    Attributes:
        name: scheme name (``FM-1``, ``LISA-21``, ``EXMA-15M`` ...).
        symbols_per_iteration: DNA symbols consumed per backward-search
            iteration (the step number k).
        random_accesses_per_iteration: DRAM accesses with no locality
            (Occ bucket / IP-BWT / increment lookups; 2 per iteration).
        index_node_accesses_per_lookup: pointer-chasing accesses through a
            learned-index hierarchy per Occ lookup (0 when there is none,
            or when a perfect cache holds the index).
        scan_entries_per_lookup: entries linearly scanned per lookup due to
            learned-index error (0 for exact search structures).
        scan_entry_bytes: bytes per scanned entry.
        structure_size_gb: paper-scale data-structure size, which drives
            the TLB penalty.
    """

    name: str
    symbols_per_iteration: int
    random_accesses_per_iteration: float = 2.0
    index_node_accesses_per_lookup: float = 0.0
    scan_entries_per_lookup: float = 0.0
    scan_entry_bytes: int = IPBWT_ENTRY_BYTES
    structure_size_gb: float = 16.0


class CpuThroughputModel:
    """Throughput of a software algorithm on the 16-core CPU baseline."""

    def __init__(self, parameters: CpuMemoryParameters | None = None) -> None:
        self._params = parameters or CpuMemoryParameters()

    def _tlb_penalty_ns(self, structure_size_gb: float) -> float:
        """Extra nanoseconds per random access due to TLB misses."""
        params = self._params
        if structure_size_gb <= params.tlb_threshold_gb:
            return 0.0
        import math

        return params.tlb_walk_ns * math.log2(structure_size_gb / params.tlb_threshold_gb)

    def iteration_time_ns(self, algorithm: SoftwareAlgorithm) -> float:
        """Time one core spends on one backward-search iteration."""
        params = self._params
        penalty = self._tlb_penalty_ns(algorithm.structure_size_gb)
        random_ns = (
            algorithm.random_accesses_per_iteration
            * (params.random_access_ns + penalty)
            / params.memory_level_parallelism
        )
        index_ns = (
            algorithm.random_accesses_per_iteration
            * algorithm.index_node_accesses_per_lookup
            * params.index_node_access_ns
        )
        scan_bytes = (
            algorithm.random_accesses_per_iteration
            * algorithm.scan_entries_per_lookup
            * algorithm.scan_entry_bytes
        )
        scan_ns = scan_bytes / params.streaming_bandwidth_gbs if scan_bytes else 0.0
        return random_ns + index_ns + scan_ns

    def bases_per_second(self, algorithm: SoftwareAlgorithm) -> float:
        """Aggregate search throughput of the CPU in bases per second."""
        iteration_ns = self.iteration_time_ns(algorithm)
        if iteration_ns <= 0:
            raise ValueError("iteration time must be positive")
        per_core = algorithm.symbols_per_iteration / (iteration_ns * 1e-9)
        return per_core * self._params.cores


# --------------------------------------------------------------------------- #
# Hardware accelerator models
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AcceleratorModel:
    """Analytic model of one prior FM-Index accelerator.

    Attributes:
        name: device name.
        algorithm: search algorithm the device runs (Table II row 1).
        symbols_per_iteration: DNA symbols per backward-search iteration.
        useful_bytes_per_lookup: bytes the device actually needs per Occ
            lookup (a 64 B bucket for FM-1, a partial-row slice for MEDAL,
            predicted increments for EXMA).
        scan_bytes_per_lookup: additional sequential bytes scanned per
            lookup (learned-index error traffic).
        outstanding_lookups: concurrent lookups the device sustains.
        commands_per_lookup: DDR4 command-bus slots per lookup (3 for
            close-page PRE/ACT/RD, more for chip-level parallelism).
        bus_conflict_factor: multiplier on command slots that accounts for
            the Fig. 7 address-bus bubbles under chip-level parallelism.
        row_cycle_cycles: bank occupancy per lookup in DRAM cycles
            (tRCD + tCAS + burst + tRP for close page).
        device_power_w: accelerator power (Table II "Acc Power").
        internal_memory_gb: on-accelerator memory (FindeR's 2.6 GB ReRAM);
            lookups that miss it pay an extra external access.
        fetched_bytes_per_lookup: bytes the memory system actually moves
            per lookup (defaults to useful + scan); used for the Fig. 21
            bandwidth-utilisation metric.
    """

    name: str
    algorithm: str
    symbols_per_iteration: int
    useful_bytes_per_lookup: float
    scan_bytes_per_lookup: float = 0.0
    outstanding_lookups: int = 64
    commands_per_lookup: float = 3.0
    bus_conflict_factor: float = 1.0
    row_cycle_cycles: int = 52
    device_power_w: float = 10.0
    internal_memory_gb: float = 0.0
    fetched_bytes_per_lookup: float | None = None

    def lookups_per_iteration(self) -> float:
        """Occ lookups per backward-search iteration (low and high)."""
        return 2.0

    def throughput(
        self,
        dram: DDR4Config | None = None,
        dataset_size_gb: float = 128.0,
        coalescing_factor: float = 1.0,
    ) -> SearchThroughput:
        """Search throughput under the shared DDR4 main memory.

        The rate is the minimum of three per-channel bounds, scaled by the
        channel count:

        * data-bus bound: peak bytes/cycle divided by bytes moved per base;
        * command-bus bound: one command per cycle divided by commands per
          base (this is what throttles MEDAL);
        * latency bound: outstanding lookups overlapping ``row_cycle``
          bank occupancy.

        *coalescing_factor* (>= 1) models a scheduling-window merge in
        front of the device: every bound serves ``1 / factor`` as many
        lookups per base, because duplicate requests inside a window are
        resolved once.
        """
        if coalescing_factor < 1.0:
            raise ValueError("coalescing_factor must be >= 1")
        dram = dram or DDR4Config()
        lookups_per_base = (
            self.lookups_per_iteration() / self.symbols_per_iteration / coalescing_factor
        )
        bytes_per_lookup = self.useful_bytes_per_lookup + self.scan_bytes_per_lookup
        # Internal-memory misses force a second external access (FindeR).
        external_factor = 1.0
        if self.internal_memory_gb > 0 and dataset_size_gb > self.internal_memory_gb:
            external_factor = 1.0 + (1.0 - self.internal_memory_gb / dataset_size_gb)

        bytes_per_base = bytes_per_lookup * lookups_per_base * external_factor
        commands_per_base = (
            self.commands_per_lookup
            * self.bus_conflict_factor
            * lookups_per_base
            * external_factor
        )

        # System-wide bounds in bases per DRAM cycle.
        data_bound = dram.channels * dram.bus_bytes_per_cycle / max(bytes_per_base, 1e-9)
        command_bound = dram.channels / max(commands_per_base, 1e-9)
        latency_bound = (
            self.outstanding_lookups
            / max(self.row_cycle_cycles, 1)
            / max(lookups_per_base * external_factor, 1e-9)
        )

        bases_per_cycle = min(data_bound, command_bound, latency_bound)
        bases_per_second = bases_per_cycle * dram.clock_mhz * 1e6
        fetched = self.fetched_bytes_per_lookup
        if fetched is None:
            fetched = bytes_per_lookup
        fetched_per_base = fetched * lookups_per_base * external_factor
        utilization = min(
            1.0,
            bases_per_cycle * fetched_per_base / (dram.channels * dram.bus_bytes_per_cycle),
        )
        return SearchThroughput(
            name=self.name,
            bases_processed=int(bases_per_second),
            seconds=1.0,
            accelerator_power_w=self.device_power_w,
            dram_power_w=DRAM_SYSTEM_POWER_W,
            bandwidth_utilization=utilization,
        )


def gpu_model(scan_entries_per_lookup: float = 300.0) -> AcceleratorModel:
    """Tesla P100 running LISA-21.

    The GPU keeps thousands of lookups in flight and streams whole rows, so
    it is data-bus bound; its learned-index error forces it to scan extra
    IP-BWT entries per lookup, which is the traffic that caps it well below
    the multi-symbol ideal.
    """
    scan_bytes = scan_entries_per_lookup * IPBWT_ENTRY_BYTES
    return AcceleratorModel(
        name="GPU",
        algorithm="LISA-21",
        symbols_per_iteration=21,
        useful_bytes_per_lookup=64.0,
        scan_bytes_per_lookup=scan_bytes,
        outstanding_lookups=2048,
        commands_per_lookup=2.0,
        row_cycle_cycles=52,
        device_power_w=182.0,
        fetched_bytes_per_lookup=scan_bytes + 64.0,
    )


def fpga_model() -> AcceleratorModel:
    """Stratix-V FPGA running conventional 2-step FM-Index.

    A handful of pipelined search engines; latency-bound on dependent
    close-page accesses.
    """
    return AcceleratorModel(
        name="FPGA",
        algorithm="FM-2",
        symbols_per_iteration=2,
        useful_bytes_per_lookup=64.0,
        outstanding_lookups=4,
        commands_per_lookup=3.0,
        row_cycle_cycles=52,
        device_power_w=11.0,
    )


def asic_model() -> AcceleratorModel:
    """28 nm ASIC running conventional 1-step FM-Index.

    Few search engines and pointer-chasing FM-1 accesses leave it
    latency-bound with the lowest bandwidth utilisation of the line-up.
    """
    return AcceleratorModel(
        name="ASIC",
        algorithm="FM-1",
        symbols_per_iteration=1,
        useful_bytes_per_lookup=64.0,
        outstanding_lookups=3,
        commands_per_lookup=3.0,
        row_cycle_cycles=52,
        device_power_w=9.4,
    )


def medal_model() -> AcceleratorModel:
    """MEDAL DIMM PIM: chip-level parallelism, shared address bus.

    Each chip independently activates a 1/16 partial row, so MEDAL has
    plenty of concurrency and small per-lookup payloads; what limits it is
    the shared 17-bit address bus, modelled with a bus-conflict factor that
    inflates the command slots each lookup effectively occupies (Fig. 7).
    The fetched bytes count the partial row each chip opens and reads
    near-data.
    """
    return AcceleratorModel(
        name="MEDAL",
        algorithm="FM-1",
        symbols_per_iteration=1,
        useful_bytes_per_lookup=8.0,
        outstanding_lookups=512,
        commands_per_lookup=3.0,
        bus_conflict_factor=7.85,
        row_cycle_cycles=52,
        device_power_w=0.011,
        fetched_bytes_per_lookup=128.0,
    )


def finder_model() -> AcceleratorModel:
    """FindeR ReRAM PIM: FM-1 compute in 2.6 GB internal arrays.

    Buckets that do not fit the internal ReRAM arrays are fetched from
    external DRAM, which roughly doubles the external traffic per lookup
    on the large conifer genomes.
    """
    return AcceleratorModel(
        name="FindeR",
        algorithm="FM-1",
        symbols_per_iteration=1,
        useful_bytes_per_lookup=64.0,
        outstanding_lookups=16,
        commands_per_lookup=3.0,
        row_cycle_cycles=52,
        device_power_w=0.28,
        internal_memory_gb=2.6,
    )


def exma_analytic_model(
    mean_error_entries: float = 182.0, symbols_per_iteration: int = 15
) -> AcceleratorModel:
    """EXMA as an analytic model, for Table II / Fig. 21 comparisons.

    The detailed trace-driven model lives in
    :class:`repro.accel.exma_accelerator.ExmaAccelerator`; this analytic
    twin exists so the cross-accelerator table can be produced with one
    consistent methodology.  Each lookup streams the predicted increment
    line plus the MTL-error linear-search traffic out of open rows, which
    makes EXMA data-bus bound at high utilisation — pass the *measured*
    MTL error to couple the table to the scaled experiments.
    """
    scan_bytes = mean_error_entries * INCREMENT_ENTRY_BYTES
    return AcceleratorModel(
        name="EXMA",
        algorithm=f"EXMA-{symbols_per_iteration}",
        symbols_per_iteration=symbols_per_iteration,
        useful_bytes_per_lookup=192.0,
        scan_bytes_per_lookup=scan_bytes,
        outstanding_lookups=512,
        commands_per_lookup=2.0,
        row_cycle_cycles=24,
        device_power_w=0.89,
        fetched_bytes_per_lookup=scan_bytes + 192.0,
    )


def standard_accelerator_suite(mean_exma_error: float = 182.0) -> list[AcceleratorModel]:
    """The Table II line-up: GPU, FPGA, ASIC, MEDAL, FindeR and EXMA."""
    return [
        gpu_model(),
        fpga_model(),
        asic_model(),
        medal_model(),
        finder_model(),
        exma_analytic_model(mean_error_entries=mean_exma_error),
    ]
