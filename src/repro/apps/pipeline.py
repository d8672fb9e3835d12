"""Genome-analysis pipeline model: time breakdown, speedup and energy.

This module ties the application substrates (alignment, assembly,
annotation, compression) to the performance models:

* :func:`run_application` executes one application at reproduction scale
  and collects its *work counters* (bases pushed through FM-Index searches,
  Smith-Waterman cells, auxiliary work).
* :class:`BreakdownModel` converts those counters into CPU execution-time
  components — the Fig. 1 stacked bars (FM-Index vs dynamic programming vs
  other).
* :meth:`~repro.accel.metrics.ApplicationRun.speedup_with_search_speedup`
  applies Amdahl's law with a measured FM-Index search speedup to produce
  the Fig. 19 bars.
* :func:`application_energy` produces the Fig. 20 energy comparison from
  the same time components plus the power/energy constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.metrics import ApplicationRun
from ..genome.reads import ErrorProfile, ReadSimulator
from ..genome.sequence import Reference
from ..hw.energy import CPU_POWER_W, DRAM_SYSTEM_POWER_W, EXMA_ACCELERATOR_LEAKAGE_W, SystemEnergyBreakdown
from ..index.fmindex import FMIndex
from .alignment import AlignerCounters, ReadAligner
from .annotation import AnnotationCounters, ExactWordAnnotator, words_from_reference
from .assembly import AssemblyCounters, OverlapAssembler
from .compression import CompressionCounters, ReferenceCompressor

#: Applications evaluated in Figs. 1, 19 and 20.
APPLICATIONS = ("alignment", "assembly", "annotate", "compress")


@dataclass(frozen=True)
class WorkCounters:
    """Technology-independent work extracted from one application run."""

    fm_bases_searched: int
    dp_cells: int
    other_units: int


@dataclass(frozen=True)
class BreakdownModel:
    """Cost model converting work counters into CPU seconds.

    The FM-Index search rate comes from the CPU software model (LISA-21 by
    default, matching the paper's CPU scheme); dynamic-programming and
    auxiliary costs use fixed per-unit rates typical of a 16-core server.
    """

    cpu_search_bases_per_second: float
    dp_cells_per_second: float = 1.0e9
    other_units_per_second: float = 2.0e6

    def breakdown(self, application: str, dataset: str, work: WorkCounters) -> ApplicationRun:
        """Convert *work* into an :class:`ApplicationRun` time breakdown."""
        if self.cpu_search_bases_per_second <= 0:
            raise ValueError("cpu_search_bases_per_second must be positive")
        return ApplicationRun(
            application=application,
            dataset=dataset,
            fm_index_seconds=work.fm_bases_searched / self.cpu_search_bases_per_second,
            dynamic_programming_seconds=work.dp_cells / self.dp_cells_per_second,
            other_seconds=work.other_units / self.other_units_per_second,
        )


#: CPU FM-Index search rate used by the breakdown model, in bases/second.
#: Calibrated to the paper's measured CPU LISA-21 rate (tens of Mbase/s for
#: the whole 16-core machine once software overheads are included) rather
#: than the latency-bound analytic optimum.
PAPER_CPU_SEARCH_BASES_PER_SECOND = 15e6


def default_breakdown_model(
    cpu_search_bases_per_second: float = PAPER_CPU_SEARCH_BASES_PER_SECOND,
) -> BreakdownModel:
    """Breakdown model with the paper-calibrated CPU search rate."""
    return BreakdownModel(cpu_search_bases_per_second=cpu_search_bases_per_second)


def run_application(
    application: str,
    reference: Reference,
    profile: ErrorProfile,
    read_count: int = 30,
    read_length: int = 101,
    seed: int = 0,
) -> WorkCounters:
    """Run one application at reproduction scale and return its work.

    Annotation and compression do not depend on the read error profile (the
    paper evaluates them once per dataset); alignment and assembly use
    reads simulated with *profile*.
    """
    if application not in APPLICATIONS:
        raise ValueError(f"unknown application {application!r}")
    fm = FMIndex(reference.sequence)

    if application == "alignment":
        reads = ReadSimulator(reference.sequence, profile, seed=seed).simulate(
            read_length=min(read_length, len(reference.sequence)), count=read_count
        )
        # Long, error-rich reads are seeded with shorter exact matches and
        # extended with a wider band, as long-read aligners do.
        long_read_profile = profile.total > 0.05
        aligner = ReadAligner(
            reference.sequence,
            fm_index=fm,
            min_seed_length=12 if long_read_profile else 15,
            extension_band=24 if long_read_profile else 16,
        )
        _, counters = aligner.align_batch(reads)
        return _alignment_work(counters)

    if application == "assembly":
        reads = ReadSimulator(reference.sequence, profile, seed=seed).simulate(
            read_length=min(read_length, len(reference.sequence)),
            count=read_count,
            both_strands=False,
        )
        assembler = OverlapAssembler(min_overlap=max(10, read_length // 5))
        counters = AssemblyCounters()
        assembler.assemble([r.sequence for r in reads], counters)
        # Error correction before assembly costs extra FM-Index searches
        # proportional to total read bases (the FM-Index-based corrector).
        correction_bases = sum(len(r.sequence) for r in reads)
        # Graph construction, transitive reduction and consensus are the
        # assembler's non-search work; account them per read base.
        return WorkCounters(
            fm_bases_searched=counters.bases_searched + correction_bases,
            dp_cells=read_count * read_length * 64,
            other_units=counters.reads + counters.contigs + correction_bases // 4,
        )

    if application == "annotate":
        words = words_from_reference(reference.sequence, word_length=24, stride=max(64, len(reference.sequence) // max(read_count, 1)))
        # Annotation's word set routes through the batched engine in one
        # lockstep pass; alignment's seeding is batched inside ReadAligner.
        annotator = ExactWordAnnotator(fm)
        counters = AnnotationCounters()
        annotator.annotate(words, counters)
        return WorkCounters(
            fm_bases_searched=counters.bases_searched,
            dp_cells=0,
            other_units=counters.words,
        )

    # compress
    simulator = ReadSimulator(reference.sequence, profile, seed=seed)
    sequences = [
        r.sequence
        for r in simulator.simulate(
            read_length=min(1000, len(reference.sequence)), count=max(2, read_count // 10), both_strands=False
        )
    ]
    compressor = ReferenceCompressor(fm, reference.sequence)
    counters = CompressionCounters()
    for sequence in sequences:
        compressor.compress(sequence, counters)
    # Token encoding and output I/O scale with the input size.
    return WorkCounters(
        fm_bases_searched=counters.bases_searched,
        dp_cells=0,
        other_units=counters.match_tokens
        + counters.literal_tokens
        + counters.sequences
        + counters.input_bytes // 4,
    )


def _alignment_work(counters: AlignerCounters) -> WorkCounters:
    """Convert aligner counters into technology-independent work."""
    return WorkCounters(
        fm_bases_searched=counters.seeding_bases_searched,
        dp_cells=counters.extension_cells,
        other_units=counters.reads * 4 + counters.seeds,
    )


def application_energy(
    run: ApplicationRun,
    search_speedup: float,
    accelerator_dynamic_power_w: float = 0.6,
    dram_power_w: float = DRAM_SYSTEM_POWER_W,
    dram_io_fraction: float = 0.3,
    cpu_power_w: float = CPU_POWER_W,
) -> tuple[SystemEnergyBreakdown, SystemEnergyBreakdown]:
    """Fig. 20: energy of the CPU baseline vs the EXMA-accelerated system.

    Returns ``(cpu_baseline, exma_system)`` breakdowns.  On the baseline
    the CPU burns power for the whole run; with EXMA the FM-Index portion
    runs ``search_speedup`` times faster on the accelerator while the CPU
    only handles the remaining work.
    """
    if search_speedup <= 0:
        raise ValueError("search_speedup must be positive")
    non_fm_seconds = run.dynamic_programming_seconds + run.other_seconds
    baseline_seconds = run.total_seconds
    accel_fm_seconds = run.fm_index_seconds / search_speedup
    accel_total_seconds = non_fm_seconds + accel_fm_seconds

    baseline = SystemEnergyBreakdown(
        dram_chip_j=dram_power_w * (1.0 - dram_io_fraction) * baseline_seconds,
        dram_io_j=dram_power_w * dram_io_fraction * baseline_seconds,
        accelerator_dynamic_j=0.0,
        accelerator_leakage_j=0.0,
        cpu_j=cpu_power_w * baseline_seconds,
    )
    exma = SystemEnergyBreakdown(
        dram_chip_j=dram_power_w * (1.0 - dram_io_fraction) * accel_total_seconds,
        dram_io_j=dram_power_w * dram_io_fraction * accel_total_seconds,
        accelerator_dynamic_j=accelerator_dynamic_power_w * accel_fm_seconds,
        accelerator_leakage_j=EXMA_ACCELERATOR_LEAKAGE_W * accel_fm_seconds,
        cpu_j=cpu_power_w * non_fm_seconds,
    )
    return baseline, exma
