"""scaling — the host-scaling sweep of both parallel layers, one harness.

EXMA's claims are modelled numbers; this entry times the simulator
itself.  It sweeps layer × executor × workers over one stack (with its
MTL index) and one scaled Table-I accelerator configuration, each point
against its layer's serial run:

* **search** — a forced :class:`~repro.engine.sharded.ShardedQueryEngine`
  split of one query batch against the serial ``QueryEngine``;
* **replay** — ``run_stream(replay_workers=N)`` over the same batch cut
  into :data:`REPLAY_EPOCHS` W=1 flush epochs against
  ``replay_workers=1``.

The record pins ``<layer>.<executor>@w<N>.results_equal`` (≡ serial,
field for field) and is never committed: a 2-CPU host records ties, so
the ``tests-multicore`` CI leg re-records it and puts floors under
``search.thread.best_speedup`` and ``replay.process@w4.speedup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import runtime
from ..accel.config import exma_full_config
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..engine.sharded import ShardedQueryEngine
from ..engine.window import CoalescingWindow
from .common import DEFAULT_STEP, best_of, build_stack, sample_queries, scaled_config
from .record import Record, row_dict

__all__ = ["ScalingPoint", "ScalingResult", "format_scaling", "record", "run_scaling"]

#: W=1 flush epochs the replay layer fans across its pool (the batch is
#: cut into this many consecutive query chunks, one epoch each).
REPLAY_EPOCHS = 16

#: Training epochs of the MTL index the replayed accelerator predicts with.
MTL_EPOCHS = 60


@dataclass(frozen=True)
class ScalingPoint:
    """One (layer, executor, workers) point against its layer's serial run."""

    layer: str
    executor: str
    workers: int
    #: Min-of-repeats wall-clock at this point.
    seconds: float
    #: Min-of-repeats wall-clock of the layer's serial reference.
    serial_seconds: float
    #: Whether this point's result equalled the serial one, field for field.
    results_equal: bool

    @property
    def speedup(self) -> float:
        """Serial-to-parallel wall-clock ratio (> 1 means the pool wins)."""
        return self.serial_seconds / max(self.seconds, 1e-12)


@dataclass(frozen=True)
class ScalingResult:
    """Every sweep point plus the workload shape that produced them."""

    rows: list[ScalingPoint]
    genome_length: int
    seed: int
    batch_size: int
    query_length: int
    repeats: int
    replay_epochs: int


def _points(layer: str, grid: list, calls: list, repeats: int) -> list[ScalingPoint]:
    """Warm *calls* (the serial run first, then one per *grid* point: index
    caches and persistent pools), time each min-of-*repeats* round-robin
    — round *r* starts at call *r*, so host drift lands on every call
    alike — and state each point against the serial run."""
    warm = [call() for call in calls]
    best = [math.inf] * len(calls)
    for round_index in range(repeats):
        for offset in range(len(calls)):
            index = (round_index + offset) % len(calls)
            best[index] = min(best[index], best_of(1, calls[index])[0])
    return [
        ScalingPoint(layer, executor, workers, seconds, best[0], result == warm[0])
        for (executor, workers), seconds, result in zip(grid, best[1:], warm[1:])
    ]


def run_scaling(
    genome_length: int = 20_000,
    seed: int = 0,
    batch_size: int = 256,
    query_length: int = 48,
    repeats: int = 3,
    workers: "tuple[int, ...]" = (2, 4),
    executor: "str | None" = None,
) -> ScalingResult:
    """Sweep both parallel layers over *workers* on *executor* (both
    kinds when ``None``); a count of 1 adds no point, being the serial run."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    counts = sorted({runtime.check_workers(count) for count in workers} - {1})
    executors = (runtime.check_executor(executor),) if executor else runtime.EXECUTORS
    grid = [(kind, count) for kind in executors for count in counts]
    stack = build_stack("human", genome_length, DEFAULT_STEP, seed, MTL_EPOCHS)
    queries = sample_queries(
        stack.reference.sequence, count=batch_size, length=query_length, seed=seed
    )

    backend = ExmaBackend(table=stack.table)
    engines = [QueryEngine(backend)] + [
        ShardedQueryEngine(backend, shards=count, executor=kind) for kind, count in grid
    ]
    try:
        rows = _points(
            "search", grid, [lambda e=engine: e.search_batch(queries) for engine in engines],
            repeats,
        )
    finally:
        for engine in engines:
            engine.close()

    chunk = -(-len(queries) // REPLAY_EPOCHS)
    streams = [
        engines[0].request_stream(queries[start : start + chunk])[0]
        for start in range(0, len(queries), chunk)
    ]
    flushes = list(CoalescingWindow(1).stream(iter(streams)))
    # One accelerator per point, all of one configuration: each owns
    # one persistent pool, so the round-robin never rebuilds a pool.
    config = scaled_config(exma_full_config())
    settings = [("thread", 1), *grid]
    accelerators = [ExmaAccelerator(stack.table, stack.index, config) for _ in settings]
    try:
        rows += _points(
            "replay",
            grid,
            [
                lambda a=accelerator, kind=kind, count=count: a.run_stream(
                    iter(flushes), replay_workers=count, executor=kind
                )
                for accelerator, (kind, count) in zip(accelerators, settings)
            ],
            repeats,
        )
    finally:
        for accelerator in accelerators:
            accelerator.close()
    return ScalingResult(
        rows=rows,
        genome_length=genome_length,
        seed=seed,
        batch_size=batch_size,
        query_length=query_length,
        repeats=repeats,
        replay_epochs=len(flushes),
    )


def format_scaling(result: ScalingResult) -> str:
    """Render the sweep table."""
    lines = [
        f"scaling - each parallel layer vs its serial run ({result.batch_size} queries, "
        f"{result.replay_epochs} replay epochs, best of {result.repeats}, "
        f"{runtime.available_parallelism()} CPUs available)",
        f"{'layer':>7s} {'executor':>9s} {'workers':>8s} {'serial ms':>10s} "
        f"{'ms':>9s} {'speedup':>8s} {'equal':>6s}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.layer:>7s} {row.executor:>9s} {row.workers:8d} "
            f"{row.serial_seconds * 1e3:10.2f} {row.seconds * 1e3:9.2f} "
            f"{row.speedup:7.2f}x {'yes' if row.results_equal else 'NO':>6s}"
        )
    return "\n".join(lines)


def record(result: ScalingResult) -> Record:
    """The scaling record (``BENCH_scaling_multicore.json`` on the
    multicore CI leg).  ``best_speedup`` is taken over the worker counts
    the host can run in parallel (``available_cpus`` of the ``host``
    block), or over every count when none fits."""
    rows = [row_dict(row, "speedup", digits={"speedup": 3}) for row in result.rows]
    headlines = []
    for row in rows:
        name = f"{row['layer']}.{row['executor']}@w{row['workers']}"
        headlines.append((f"{name}.results_equal", row["results_equal"], "bool"))
        headlines.append((f"{name}.speedup", row["speedup"], "higher"))
    cpus = runtime.available_parallelism()
    for group in dict.fromkeys((row["layer"], row["executor"]) for row in rows):
        points = [row for row in rows if (row["layer"], row["executor"]) == group]
        eligible = [row for row in points if row["workers"] <= cpus] or points
        best = max(row["speedup"] for row in eligible)
        headlines.append((f"{group[0]}.{group[1]}.best_speedup", best, "higher"))
    return Record(
        benchmark="scaling", workload=row_dict(result), headlines=headlines, rows=rows
    )
