#!/usr/bin/env python3
"""Short-read alignment: seed-and-extend with FM-Index seeding.

Reproduces the workload that motivates the paper's Fig. 1: simulate Illumina
and PacBio reads against a synthetic reference, align them with the
seed-and-extend aligner, and report mapping accuracy plus the execution-time
breakdown (FM-Index seeding vs Smith-Waterman extension vs other work) under
the CPU cost model — the fraction EXMA accelerates.

Run with:  python examples/read_alignment.py
"""

from __future__ import annotations

from repro.apps import ReadAligner, WorkCounters, alignment_accuracy, default_breakdown_model
from repro.genome import ILLUMINA, PACBIO, ReadSimulator, build_dataset


def align_and_report(reference_sequence: str, profile, read_length: int, count: int) -> None:
    simulator = ReadSimulator(reference_sequence, profile, seed=3)
    reads = simulator.simulate(read_length=read_length, count=count)
    aligner = ReadAligner(
        reference_sequence,
        min_seed_length=12 if profile.total > 0.05 else 15,
        extension_band=24 if profile.total > 0.05 else 16,
    )
    results, counters = aligner.align_batch(reads)
    accuracy = alignment_accuracy(results, reads, tolerance=25)
    mapped = sum(1 for r in results if r.mapped)

    model = default_breakdown_model()
    work = WorkCounters(
        fm_bases_searched=counters.seeding_bases_searched,
        dp_cells=counters.extension_cells,
        other_units=counters.reads * 4 + counters.seeds,
    )
    run = model.breakdown("alignment", "example", work)
    total = run.total_seconds

    print(f"\n-- {profile.name} reads ({read_length} bp x {count}) --")
    print(f"mapped reads        : {mapped}/{len(reads)}")
    print(f"placement accuracy  : {accuracy * 100:.1f}% within 25 bp of the true origin")
    print(f"seeds per read      : {counters.seeds / max(1, counters.reads):.1f}")
    print("modelled CPU time breakdown:")
    print(f"  FM-Index seeding  : {run.fm_index_seconds / total * 100:5.1f}%")
    print(f"  Smith-Waterman    : {run.dynamic_programming_seconds / total * 100:5.1f}%")
    print(f"  other             : {run.other_seconds / total * 100:5.1f}%")
    speedup = run.speedup_with_search_speedup(23.6)
    print(f"EXMA application speedup (Amdahl, 23.6x search speedup): {speedup:.2f}x")


def main() -> None:
    print("== seed-and-extend read alignment ==")
    reference = build_dataset("human", simulated_length=20_000, seed=0)
    print(f"reference: scaled human stand-in, {len(reference):,} bp")

    align_and_report(reference.sequence, ILLUMINA, read_length=101, count=30)
    align_and_report(reference.sequence, PACBIO, read_length=400, count=10)


if __name__ == "__main__":
    main()
