"""Fig. 18 (windowed) — accelerator throughput per window capacity W.

Fig. 18 measures the accelerator variants on one batch's post-coalescing
request stream; the paper's throughput story, however, hinges on the
*scheduling window* — duplicate requests coalesced across consecutive
batches change what the accelerator actually executes.  This harness
closes that loop: a stream of consecutive query batches runs through the
batched engine, the per-batch columnar request streams pass through a
:class:`~repro.engine.window.CoalescingWindow` at each sweep capacity
W ∈ {1, 2, 4, 8, 16}, and :meth:`repro.accel.exma_accelerator
.ExmaAccelerator.run_windowed` replays every flush end-to-end — cycles
and energy accounted per flush, throughput aggregated over the stream.

Two invariants anchor the sweep (asserted by the test suite and the CI
bench-smoke job via the recorded ``BENCH_window_capacity.json``):

* the **W=1 row matches the unwindowed path exactly** — every flush's
  :class:`~repro.accel.exma_accelerator.AcceleratorRunResult` is
  byte-identical to :meth:`~repro.accel.exma_accelerator.ExmaAccelerator
  .run_reference` on that batch's per-batch-coalesced request list (the
  request-at-a-time object pipeline), so the columnar replay cannot
  drift;
* the **scheduled request count is monotone non-increasing in W** over
  the aligned power-of-two capacities, because every 2W-window merges at
  least as many duplicates as its two aligned W-windows — and cycles
  follow that trend (strictly fewer at the widest window; local steps
  may wobble within a small model-noise band as scheduling-epoch
  boundaries shift).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.config import exma_full_config
from ..accel.exma_accelerator import (
    AcceleratorRunResult,
    ExmaAccelerator,
    WindowedRunResult,
)
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow
from ..exma.table import ExmaTable
from ..genome.datasets import build_dataset
from .common import DEFAULT_STEP, sample_queries, scaled_config
from .record import Record, row_dict

__all__ = [
    "Fig18WindowResult",
    "Fig18WindowRow",
    "format_fig18_window",
    "record",
    "run_fig18_window",
]

#: Largest tolerated relative cycle increase between neighbouring capacities.
CYCLE_SLACK = 0.02


@dataclass(frozen=True)
class Fig18WindowRow:
    """One sweep point: the full accelerator run at window capacity W."""

    window: int
    windows_flushed: int
    #: Requests entering the window stage (post per-batch coalescing).
    pre_merge_requests: int
    #: Requests surviving the cross-batch merge (what the CAM schedules).
    post_merge_requests: int
    total_cycles: int
    dram_cycles: int
    inference_cycles: int
    dram_requests: int
    seconds: float
    accelerator_energy_j: float
    dram_energy_j: float
    mbase_per_second: float

    @property
    def merge_ratio(self) -> float:
        """Pre-to-post request ratio (1.0 means nothing merged)."""
        if self.post_merge_requests == 0:
            return 1.0
        return self.pre_merge_requests / self.post_merge_requests


@dataclass(frozen=True)
class Fig18WindowResult:
    """The full capacity sweep plus the unwindowed anchor."""

    rows: list[Fig18WindowRow]
    #: The per-batch path: each batch's coalesced requests replayed with
    #: :meth:`ExmaAccelerator.run`, no window stage involved.
    unwindowed: Fig18WindowRow
    #: Whether every W=1 flush was byte-identical to its unwindowed run.
    w1_matches_unwindowed: bool
    batch_count: int
    batch_size: int
    genome_length: int
    k: int
    seed: int
    query_length: int
    #: Raw streamed runs per capacity, for downstream inspection.
    runs: dict[int, WindowedRunResult]


def _row(window: int, result: WindowedRunResult) -> Fig18WindowRow:
    """Flatten one streamed run into a sweep row."""
    return Fig18WindowRow(
        window=window,
        windows_flushed=result.windows,
        pre_merge_requests=result.issued,
        post_merge_requests=result.requests,
        total_cycles=result.total_cycles,
        dram_cycles=result.dram_cycles,
        inference_cycles=result.inference_cycles,
        dram_requests=result.dram_requests,
        seconds=result.seconds,
        accelerator_energy_j=result.accelerator_energy_j,
        dram_energy_j=result.dram_energy_j,
        mbase_per_second=result.throughput.mbase_per_second,
    )


def run_fig18_window(
    genome_length: int = 20_000,
    seed: int = 0,
    windows: tuple[int, ...] = (1, 2, 4, 8, 16),
    batch_count: int = 16,
    #: Defaults match the recorded ``BENCH_window_capacity.json`` workload.
    batch_size: int = 64,
    k: int = DEFAULT_STEP,
    query_length: int = 48,
    use_index: bool = True,
    mtl_epochs: int = 60,
    replay_workers: int = 1,
    replay_executor: str = "thread",
) -> Fig18WindowResult:
    """Sweep the window capacity through the full accelerator pipeline.

    The request streams are produced once (one columnar
    :class:`~repro.engine.coalesce.RequestStream` per consecutive query
    batch) and replayed at every capacity, so the sweep isolates the
    window stage.  The unwindowed anchor replays each batch's per-batch
    coalesced request *list* through :meth:`ExmaAccelerator.run_reference`
    — the request-at-a-time object path — and the W=1 row is required to
    match it flush by flush, so the sweep doubles as an object-vs-columnar
    equivalence gate.

    *replay_workers*/*replay_executor* pass straight through to
    :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_windowed`:
    with workers > 1 every capacity's flush epochs fan across the
    persistent replay pool — and because the anchor comparison and the
    sweep rows still demand field-for-field equality, the experiment
    doubles as an end-to-end parallel-replay gate.
    """
    reference = build_dataset("human", simulated_length=genome_length, seed=seed)
    table = ExmaTable(reference.sequence, k=k)
    index = None
    if use_index:
        from ..exma.mtl_index import MTLIndex

        index = MTLIndex(
            table, model_threshold=16, samples_per_kmer=64, epochs=mtl_epochs, seed=seed
        )
    engine = QueryEngine(ExmaBackend(table=table, index=index))
    streams = []
    for batch_index in range(batch_count):
        queries = sample_queries(
            reference.sequence, count=batch_size, length=query_length, seed=seed + batch_index
        )
        requests, _stats = engine.request_stream(queries)
        streams.append(requests)

    accelerator = ExmaAccelerator(table, index, scaled_config(exma_full_config()))

    # The per-batch anchor: W=1 flushes are per-batch coalescing exactly,
    # so running each flush's materialised request list through
    # ``run_reference`` IS the unwindowed path — computed through the
    # request-at-a-time object pipeline on purpose, so columnar-vs-object
    # divergence cannot hide.
    anchor_flushes = list(CoalescingWindow(1).stream(streams))
    anchor_runs: list[AcceleratorRunResult] = [
        accelerator.run_reference(
            list(flushed.requests),
            # The same issued-based accounting run_stream applies, so the
            # anchor can only diverge on the replay path — the thing the
            # comparison is meant to catch.
            bases_processed=accelerator._bases_processed(flushed.issued),
        )
        for flushed in anchor_flushes
    ]
    unwindowed = _row(
        1,
        WindowedRunResult(
            name="EXMA",
            flushes=anchor_runs,
            capacity=1,
            batches=len(streams),
            issued=sum(flushed.issued for flushed in anchor_flushes),
        ),
    )

    rows = []
    runs: dict[int, WindowedRunResult] = {}
    w1_matches = True
    for window in windows:
        result = accelerator.run_windowed(
            streams,
            window=window,
            replay_workers=replay_workers,
            executor=replay_executor,
        )
        runs[window] = result
        rows.append(_row(window, result))
        if window == 1:
            w1_matches = result.flushes == anchor_runs
    accelerator.close()

    return Fig18WindowResult(
        rows=rows,
        unwindowed=unwindowed,
        w1_matches_unwindowed=w1_matches,
        batch_count=batch_count,
        batch_size=batch_size,
        genome_length=genome_length,
        k=table.k,
        seed=seed,
        query_length=query_length,
        runs=runs,
    )


def format_fig18_window(result: Fig18WindowResult) -> str:
    """Render the window-capacity sweep table."""
    lines = [
        "Fig. 18 (windowed) - accelerator throughput per window capacity "
        f"({result.batch_count} batches x {result.batch_size} queries, "
        f"human {result.genome_length:,} bp, k={result.k})"
    ]
    lines.append(
        f"{'W':>3s} {'flushes':>8s} {'pre':>8s} {'post':>8s} {'merge':>7s} "
        f"{'cycles':>10s} {'DRAM reqs':>10s} {'Mbase/s':>9s}"
    )

    def render(label: str, row: Fig18WindowRow) -> str:
        return (
            f"{label:>3s} {row.windows_flushed:8d} {row.pre_merge_requests:8d} "
            f"{row.post_merge_requests:8d} {row.merge_ratio:6.2f}x "
            f"{row.total_cycles:10d} {row.dram_requests:10d} {row.mbase_per_second:9.2f}"
        )

    lines.append(render("-", result.unwindowed) + "  (unwindowed per-batch path)")
    for row in result.rows:
        lines.append(render(str(row.window), row))
    lines.append(
        "W=1 matches unwindowed: " + ("yes" if result.w1_matches_unwindowed else "NO")
    )
    return "\n".join(lines)


def record(result: Fig18WindowResult) -> Record:
    """``BENCH_window_capacity.json``: the sweep, its anchor and the W=1 pin."""
    workload = row_dict(result)
    w1_matches = workload.pop("w1_matches_unwindowed")

    def row_record(row: Fig18WindowRow) -> dict:
        return row_dict(row, "merge_ratio", digits={"merge_ratio": 4, "mbase_per_second": 4})

    rows = [row_record(row) for row in result.rows]
    unwindowed = row_record(result.unwindowed)
    ordered = sorted(rows, key=lambda row: row["window"])
    posts = [row["post_merge_requests"] for row in ordered]
    cycles = [row["total_cycles"] for row in ordered]
    headlines = [
        ("w1_matches_unwindowed", w1_matches, "bool"),
        ("post_merge_requests_monotone", posts == sorted(posts, reverse=True), "bool"),
        # Local steps may wobble within the slack; the widest window must win.
        (
            "cycles_trend_holds",
            all(b <= a * (1 + CYCLE_SLACK) for a, b in zip(cycles, cycles[1:]))
            and (len(cycles) < 2 or cycles[-1] < cycles[0]),
            "bool",
        ),
    ]
    if ordered and ordered[0]["window"] == 1:
        anchored = ("post_merge_requests", "total_cycles", "dram_requests")
        headlines.append(
            (
                "W1.row_equals_unwindowed",
                all(ordered[0][key] == unwindowed[key] for key in anchored),
                "bool",
            )
        )
    for row in rows:
        window = row["window"]
        headlines.append((f"W{window}.mbase_per_second", row["mbase_per_second"], "higher"))
        headlines.append((f"W{window}.total_cycles", row["total_cycles"], "lower"))
    return Record(
        benchmark="window_capacity",
        workload=workload,
        headlines=headlines,
        rows=rows,
        sections={"w1_matches_unwindowed": w1_matches, "unwindowed": unwindowed},
    )
