"""Experiment harnesses: one entry point per table/figure of the paper.

:mod:`~repro.experiments.registry` lists them (the CLI derives its
sub-commands from it) and :mod:`~repro.experiments.record` is the one
writer every ``BENCH_*.json`` goes through.
"""

from .accel_replay import (
    AccelReplayResult,
    AccelReplayRow,
    ReplayScalingRow,
    format_accel_replay,
    run_accel_replay,
)
from .chaos import (
    ChaosResult,
    ChaosRow,
    format_chaos,
    run_chaos,
)
from .common import (
    Workload,
    build_serving_stack,
    build_workload,
    sample_queries,
    scaled_config,
)
from .dse import (
    DseResult,
    DseRow,
    DseWorkload,
    FrontierPoint,
    format_dse,
    parse_grid,
    run_dse,
    run_dse_job,
)
from .fig01_breakdown import BreakdownRow, format_fig1, run_fig1
from .fig06_prior import Fig6Result, run_fig6
from .fig10_exma_tradeoff import ExmaSizeRow, Fig10Result, exma_size_sweep, run_fig10
from .fig11_12_increments import Fig11_12Result, run_fig11_12
from .fig13_index_error import ErrorComparison, Fig13Result, format_fig13, run_fig13
from .fig15_window import (
    Fig15Result,
    Fig15Row,
    ShardScalingResult,
    ShardScalingRow,
    format_fig15,
    format_shard_scaling,
    run_fig15_window,
    run_shard_scaling,
)
from .fig18_window import (
    Fig18WindowResult,
    Fig18WindowRow,
    format_fig18_window,
    run_fig18_window,
)
from .fig18_throughput import (
    BatchingRow,
    Fig18Result,
    Fig18Row,
    format_fig18,
    format_fig18_batching,
    run_fig18,
    run_fig18_batching,
)
from .fig19_20_apps import ApplicationOutcome, Fig19_20Result, format_fig19, format_fig20, run_fig19_20
from .serving import (
    SaturationCurve,
    SaturationRung,
    SaturationStudy,
    ServingBenchResult,
    ServingBenchRow,
    format_saturation,
    format_serving,
    run_serving_bench,
)
from .fig21_23_memory import (
    CompressionComparison,
    DsePoint,
    run_fig21,
    run_fig22,
    run_fig23,
)
from .record import Record, row_dict, write_record
from .registry import EXPERIMENTS, Experiment, experiment_named
from .tables import (
    Table1Result,
    Table2Row,
    format_table2,
    run_table1,
    run_table2,
)

__all__ = [
    "AccelReplayResult",
    "AccelReplayRow",
    "ReplayScalingRow",
    "format_accel_replay",
    "run_accel_replay",
    "ChaosResult",
    "ChaosRow",
    "format_chaos",
    "run_chaos",
    "Workload",
    "build_serving_stack",
    "build_workload",
    "sample_queries",
    "scaled_config",
    "DseResult",
    "DseRow",
    "DseWorkload",
    "FrontierPoint",
    "format_dse",
    "parse_grid",
    "run_dse",
    "run_dse_job",
    "BreakdownRow",
    "format_fig1",
    "run_fig1",
    "Fig6Result",
    "run_fig6",
    "ExmaSizeRow",
    "Fig10Result",
    "exma_size_sweep",
    "run_fig10",
    "Fig11_12Result",
    "run_fig11_12",
    "ErrorComparison",
    "Fig13Result",
    "format_fig13",
    "run_fig13",
    "Fig15Result",
    "Fig15Row",
    "ShardScalingResult",
    "ShardScalingRow",
    "format_fig15",
    "format_shard_scaling",
    "run_fig15_window",
    "run_shard_scaling",
    "Fig18Result",
    "Fig18Row",
    "BatchingRow",
    "format_fig18",
    "format_fig18_batching",
    "run_fig18",
    "run_fig18_batching",
    "Fig18WindowResult",
    "Fig18WindowRow",
    "format_fig18_window",
    "run_fig18_window",
    "ApplicationOutcome",
    "Fig19_20Result",
    "format_fig19",
    "format_fig20",
    "run_fig19_20",
    "SaturationCurve",
    "SaturationRung",
    "SaturationStudy",
    "ServingBenchResult",
    "ServingBenchRow",
    "format_saturation",
    "format_serving",
    "run_serving_bench",
    "CompressionComparison",
    "DsePoint",
    "run_fig21",
    "run_fig22",
    "run_fig23",
    "Record",
    "row_dict",
    "write_record",
    "EXPERIMENTS",
    "Experiment",
    "experiment_named",
    "Table1Result",
    "Table2Row",
    "format_table2",
    "run_table1",
    "run_table2",
]
