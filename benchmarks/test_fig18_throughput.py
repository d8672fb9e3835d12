"""Benchmark: Fig. 18 — search throughput of the EXMA variants vs CPU."""

from __future__ import annotations

from repro.experiments import format_fig18, run_fig18
from repro.testing import run_once


def test_fig18_search_throughput(benchmark, report):
    result = run_once(benchmark, run_fig18, genome_length=30_000, seed=0)
    report.append("")
    report.append(format_fig18(result))
    report.append(
        "paper: EXMA-15 1.8x, EX-acc 7.25x, EX-2stage 15x, EXMA 23.6x over the CPU (gmean)"
    )
    for row in result.rows:
        assert row.exma15_software > 1.0
        assert row.ex_acc > row.exma15_software
        assert row.exma >= row.ex_acc
        assert row.coalescing_factor >= 1.0

