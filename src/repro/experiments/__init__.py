"""Experiment harnesses: one entry point per table/figure of the paper.

:mod:`~repro.experiments.registry` lists them (the CLI derives its
sub-commands from it) and :mod:`~repro.experiments.record` is the one
writer every ``BENCH_*.json`` goes through.
"""

from .common import build_workload
from .fig01_breakdown import format_fig1, run_fig1
from .fig06_prior import run_fig6
from .fig10_exma_tradeoff import run_fig10
from .fig11_12_increments import run_fig11_12
from .fig13_index_error import format_fig13, run_fig13
from .fig15_window import format_fig15, run_fig15_window
from .fig18_throughput import format_fig18, format_fig18_batching, run_fig18, run_fig18_batching
from .fig18_window import format_fig18_window, run_fig18_window
from .fig19_20_apps import format_fig19, format_fig20, run_fig19_20
from .fig21_23_memory import run_fig21, run_fig22, run_fig23
from .record import write_record
from .tables import format_table2, run_table1, run_table2

__all__ = [
    "build_workload",
    "format_fig1",
    "format_fig13",
    "format_fig15",
    "format_fig18",
    "format_fig18_batching",
    "format_fig18_window",
    "format_fig19",
    "format_fig20",
    "format_table2",
    "run_fig1",
    "run_fig6",
    "run_fig10",
    "run_fig11_12",
    "run_fig13",
    "run_fig15_window",
    "run_fig18",
    "run_fig18_batching",
    "run_fig18_window",
    "run_fig19_20",
    "run_fig21",
    "run_fig22",
    "run_fig23",
    "run_table1",
    "run_table2",
    "write_record",
]
