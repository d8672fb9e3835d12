"""accel-replay — object vs columnar accelerator replay wall-clock.

PR 5's perf claim, measured: the columnar replay
(:meth:`repro.accel.exma_accelerator.ExmaAccelerator.run` on the engine's
packed request stream) against the request-at-a-time object reference
(:meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_reference`), on

* the **Fig. 18 workload** — scaled caches/CAM, the same config every
  Fig. 18/20/22 experiment replays through — where the recorded
  ``BENCH_accel_replay.json`` targets a ≥10× replay speedup, and
* a **megabase-scale row** — Table-I config over a 1 Mbp reference —
  the workload size the per-request Python loop kept out of reach for
  routine sweeps.

Every timed pair is also checked for field-for-field equality, so the
record doubles as an end-to-end divergence gate: it pins
``<row>.results_equal`` and ``<row>.columnar_at_least_2x``
(``scripts/ci_gates.py --gate pins=RECORD``, the CI bench-smoke leg).

PR 8 grows the record an **epoch-parallel replay sweep**: each
workload's queries split into batches whose W=1 flush epochs fan across
``run_stream(replay_workers ∈ {1, 2, 4})``, every point verified
field-for-field against the serial baseline and timed alongside the
search that produced the streams (the whole-pipeline wall-clock).  The
record's ``host`` block carries the CPU counts, so a 1-CPU container
records a truthful tie and the multicore CI leg puts a floor under the
recorded ``scaling.<row>@w<N>.speedup`` headlines.
Reproduce the committed record with::

    repro-exma experiment accel-replay --genome-length 60000 \
        --batch-size 2000 --megabase-length 1000000 \
        --json BENCH_accel_replay.json
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.config import ExmaAcceleratorConfig, exma_full_config
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow
from .common import DEFAULT_STEP, best_of, build_stack, sample_queries, scaled_config
from .record import Record, row_dict

__all__ = [
    "AccelReplayResult",
    "AccelReplayRow",
    "ReplayScalingRow",
    "format_accel_replay",
    "record",
    "run_accel_replay",
]

#: The columnar replay must beat the object reference by at least this.
MIN_COLUMNAR_SPEEDUP = 2.0


@dataclass(frozen=True)
class AccelReplayRow:
    """One workload: both replay paths timed over the same stream."""

    label: str
    genome_length: int
    queries: int
    requests: int
    dram_requests: int
    total_cycles: int
    #: Best-of-``repeats`` wall-clock of the columnar replay.
    columnar_seconds: float
    #: Best-of-``repeats`` wall-clock of the object reference replay.
    object_seconds: float
    #: Whether both paths returned field-for-field equal results.
    results_equal: bool

    @property
    def speedup(self) -> float:
        """Object-to-columnar wall-clock ratio (> 1 means columnar wins)."""
        return self.object_seconds / max(self.columnar_seconds, 1e-12)


@dataclass(frozen=True)
class ReplayScalingRow:
    """One (workload, replay_workers) point of the epoch-parallel sweep.

    Every timing is best-of-``repeats``; the serial baseline
    (``serial_seconds``) is the same ``run_stream`` with
    ``replay_workers=1``, measured on the same flush list — and
    ``results_equal`` records whether this point's
    :class:`~repro.accel.exma_accelerator.WindowedRunResult` was
    field-for-field equal to the serial baseline's, so the sweep doubles
    as the exact-equivalence pin (``scaling.<row>@w<N>.results_equal``).
    """

    label: str
    replay_workers: int
    executor: str
    flushes: int
    requests: int
    #: Best-of-repeats wall-clock of the parallel replay at this point.
    seconds: float
    #: Best-of-repeats wall-clock of the serial (workers=1) replay.
    serial_seconds: float
    #: Best-of-repeats wall-clock of the search producing the streams —
    #: the other half of the whole-pipeline number.
    search_seconds: float
    results_equal: bool

    @property
    def speedup(self) -> float:
        """Serial-to-parallel replay wall-clock ratio (> 1 = parallel wins)."""
        return self.serial_seconds / max(self.seconds, 1e-12)

    @property
    def pipeline_seconds(self) -> float:
        """Whole-pipeline (search + replay) wall-clock at this point."""
        return self.search_seconds + self.seconds

    @property
    def pipeline_speedup(self) -> float:
        """Whole-pipeline serial-to-parallel ratio (Amdahl-damped)."""
        return (self.search_seconds + self.serial_seconds) / max(
            self.pipeline_seconds, 1e-12
        )


@dataclass(frozen=True)
class AccelReplayResult:
    """The measured rows plus the workload shape that produced them."""

    rows: list[AccelReplayRow]
    k: int
    query_length: int
    seed: int
    repeats: int
    #: Epoch-parallel sweep points (one per workload × worker count).
    scaling_rows: list[ReplayScalingRow] = field(default_factory=list)
    #: Executor the sweep fanned flush epochs across.
    replay_executor: str = "thread"
    #: Query batches (= W=1 flush epochs) the sweep split each workload into.
    replay_batches: int = 0


def _measure(
    label: str,
    genome_length: int,
    query_count: int,
    query_length: int,
    k: int,
    seed: int,
    repeats: int,
    config: ExmaAcceleratorConfig,
    mtl_epochs: int,
    replay_workers: "tuple[int, ...]" = (),
    replay_executor: str = "thread",
    replay_batches: int = 8,
) -> "tuple[AccelReplayRow, list[ReplayScalingRow]]":
    """Build one workload's request stream and time both replay paths.

    With *replay_workers* non-empty the same workload also runs the
    epoch-parallel sweep: the queries split into *replay_batches* batches
    whose W=1 flush epochs replay via ``run_stream(replay_workers=...)``
    on *replay_executor* workers, each point verified field-for-field
    against the serial baseline (and the search that produced the
    streams timed alongside, for the whole-pipeline number).
    """
    stack = build_stack("human", genome_length, k, seed, mtl_epochs)
    engine = QueryEngine(ExmaBackend(table=stack.table, index=stack.index))
    queries = sample_queries(
        stack.reference.sequence, count=query_count, length=query_length, seed=seed
    )
    stream, _stats = engine.request_stream(queries)
    accelerator = ExmaAccelerator(stack.table, stack.index, config)

    materialised = list(stream)
    columnar_seconds, columnar_result = best_of(repeats, lambda: accelerator.run(stream))
    object_seconds, object_result = best_of(
        repeats, lambda: accelerator.run_reference(materialised)
    )

    row = AccelReplayRow(
        label=label,
        genome_length=genome_length,
        queries=query_count,
        requests=len(stream),
        dram_requests=columnar_result.dram_requests,
        total_cycles=columnar_result.total_cycles,
        columnar_seconds=columnar_seconds,
        object_seconds=object_seconds,
        results_equal=columnar_result == object_result,
    )

    scaling: list[ReplayScalingRow] = []
    if replay_workers:
        chunk = max(1, -(-len(queries) // replay_batches))
        batches = [queries[i : i + chunk] for i in range(0, len(queries), chunk)]
        search_seconds, streams = best_of(
            repeats, lambda: [engine.request_stream(batch)[0] for batch in batches]
        )
        flushes = list(CoalescingWindow(1).stream(iter(streams)))
        serial_seconds, serial_result = best_of(
            repeats, lambda: accelerator.run_stream(iter(flushes), replay_workers=1)
        )
        total_requests = sum(flush.requests for flush in serial_result.flushes)
        for workers in replay_workers:
            seconds, result = best_of(
                repeats,
                lambda: accelerator.run_stream(
                    iter(flushes), replay_workers=workers, executor=replay_executor
                ),
            )
            scaling.append(
                ReplayScalingRow(
                    label=label,
                    replay_workers=workers,
                    executor=replay_executor,
                    flushes=len(flushes),
                    requests=total_requests,
                    seconds=seconds,
                    serial_seconds=serial_seconds,
                    search_seconds=search_seconds,
                    results_equal=result == serial_result,
                )
            )
        accelerator.close()

    return row, scaling


def run_accel_replay(
    genome_length: int = 60_000,
    seed: int = 0,
    query_count: int = 2000,
    query_length: int = 48,
    k: int = DEFAULT_STEP,
    repeats: int = 3,
    #: 0 disables the megabase row (the CI smoke runs at toy scale).
    megabase_length: int = 0,
    megabase_query_count: int = 20_000,
    mtl_epochs: int = 60,
    replay_workers: "tuple[int, ...]" = (1, 2, 4),
    replay_executor: str = "thread",
    replay_batches: int = 8,
) -> AccelReplayResult:
    """Time object vs columnar replay on the benchmark workloads.

    The ``fig18`` row replays the scaled-cache configuration every
    Fig. 18/20/22 experiment uses; the optional ``megabase`` row replays
    the Table-I configuration over a *megabase_length* reference.  Both
    rows verify exact result equality while they time.

    Each workload additionally runs the epoch-parallel replay sweep
    (``replay_workers``, empty tuple to disable): its queries split into
    *replay_batches* batches, and the resulting W=1 flush epochs replay
    through ``run_stream`` at every worker count on *replay_executor*
    workers — each point checked field-for-field against the serial
    baseline, with the producing search timed alongside so the record
    carries the whole-pipeline (search + replay) wall-clock too.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    replay_workers = tuple(replay_workers)
    if any(workers < 1 for workers in replay_workers):
        raise ValueError("replay_workers must all be >= 1")
    if replay_workers and replay_batches < 1:
        raise ValueError("replay_batches must be >= 1")
    legs = [("fig18", genome_length, query_count, scaled_config(exma_full_config()))]
    if megabase_length:
        legs.append(("megabase", megabase_length, megabase_query_count, exma_full_config()))
    rows = []
    scaling_rows: list[ReplayScalingRow] = []
    for label, length, count, config in legs:
        row, scaling = _measure(
            label,
            length,
            count,
            query_length,
            k,
            seed,
            repeats,
            config,
            mtl_epochs,
            replay_workers=replay_workers,
            replay_executor=replay_executor,
            replay_batches=replay_batches,
        )
        rows.append(row)
        scaling_rows.extend(scaling)
    return AccelReplayResult(
        rows=rows,
        k=k,
        query_length=query_length,
        seed=seed,
        repeats=repeats,
        scaling_rows=scaling_rows,
        replay_executor=replay_executor,
        replay_batches=replay_batches if replay_workers else 0,
    )


def format_accel_replay(result: AccelReplayResult) -> str:
    """Render the replay comparison table."""
    lines = [
        f"accel-replay - object vs columnar accelerator replay (k={result.k}, "
        f"best of {result.repeats})"
    ]
    lines.append(
        f"{'row':>9s} {'genome':>10s} {'queries':>8s} {'requests':>9s} "
        f"{'object s':>9s} {'columnar s':>11s} {'speedup':>8s} {'equal':>6s}"
    )
    for row in result.rows:
        lines.append(
            f"{row.label:>9s} {row.genome_length:10,d} {row.queries:8d} "
            f"{row.requests:9d} {row.object_seconds:9.3f} "
            f"{row.columnar_seconds:11.4f} {row.speedup:7.1f}x "
            f"{'yes' if row.results_equal else 'NO':>6s}"
        )
    if result.scaling_rows:
        lines.append("")
        lines.append(
            f"epoch-parallel replay sweep ({result.replay_executor} executor, "
            f"{result.replay_batches} flush epochs, best of {result.repeats})"
        )
        lines.append(
            f"{'row':>9s} {'workers':>8s} {'serial s':>9s} {'parallel s':>11s} "
            f"{'speedup':>8s} {'pipeline s':>11s} {'pipe x':>7s} {'equal':>6s}"
        )
        for row in result.scaling_rows:
            lines.append(
                f"{row.label:>9s} {row.replay_workers:8d} {row.serial_seconds:9.4f} "
                f"{row.seconds:11.4f} {row.speedup:7.2f}x "
                f"{row.pipeline_seconds:11.4f} {row.pipeline_speedup:6.2f}x "
                f"{'yes' if row.results_equal else 'NO':>6s}"
            )
    return "\n".join(lines)


def record(result: AccelReplayResult) -> Record:
    """``BENCH_accel_replay.json``: both sweeps, every timing best-of-repeats.

    The record's ``host`` block is what keeps the epoch-parallel sweep
    honest: a 1–2 CPU container records a truthful ~1× tie while the
    multicore CI leg holds ``scaling.*@w4.speedup`` above a floor.
    """
    rows = [row_dict(row, "speedup", digits={"speedup": 2}) for row in result.rows]
    scaling = [
        row_dict(
            row,
            "speedup",
            "pipeline_seconds",
            "pipeline_speedup",
            digits={"speedup": 3, "pipeline_speedup": 3},
        )
        for row in result.scaling_rows
    ]
    headlines = []
    for row in rows:
        label = row["label"]
        headlines.append((f"{label}.results_equal", row["results_equal"], "bool"))
        headlines.append(
            (f"{label}.columnar_at_least_2x", row["speedup"] >= MIN_COLUMNAR_SPEEDUP, "bool")
        )
        headlines.append((f"{label}.speedup", row["speedup"], "higher"))
        # The speedup's denominator: the columnar replay's own
        # wall-clock, which a faster object path would otherwise hide.
        headlines.append((f"{label}.columnar_seconds", row["columnar_seconds"], "lower"))
    for row in scaling:
        label = f"scaling.{row['label']}"
        name = f"{label}@w{row['replay_workers']}"
        headlines.append((f"{name}.results_equal", row["results_equal"], "bool"))
        headlines.append((f"{name}.speedup", row["speedup"], "higher"))
        # Search + replay wall-clock is a headline (ROADMAP item B);
        # search alone is the same number on every row of a label.
        headlines.append((f"{name}.pipeline_seconds", row["pipeline_seconds"], "lower"))
        if row["replay_workers"] == 1:
            headlines.append((f"{label}.search_seconds", row["search_seconds"], "lower"))
    return Record(
        benchmark="accel_replay",
        workload=row_dict(result),
        headlines=headlines,
        rows=rows,
        sections={"replay_scaling": {"rows": scaling}},
    )

