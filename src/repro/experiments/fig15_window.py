"""Fig. 15 — scheduling-window sweep: coalescing across consecutive batches.

The paper's Fig. 15 sweeps the size of the scheduling window within which
the accelerator may merge duplicate ``(k-mer, pos)`` requests: the wider
the window, the longer the replayed stream and the more duplicates fall
inside one merge.  At reproduction scale we generate a stream of
consecutive query batches (consecutive read batches off one reference),
run each through the batched engine and replay the per-batch request
streams through a
:class:`~repro.engine.window.CoalescingWindow` at each sweep point.

Window capacities are swept in powers of two because aligned
divide-each-other capacities make the post-merge request count provably
monotone non-increasing in W (every 2W-window is the union of two aligned
W-windows); the benchmark suite asserts exactly that.

A second harness, :func:`run_shard_scaling`, times the sharded engine
against the serial baseline on the same workload — the strong-scaling
companion the sweep rows are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import runtime
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow
from .common import DEFAULT_STEP, batch_streams, best_of, build_stack, sample_queries
from .record import Record, row_dict

__all__ = [
    "Fig15Result",
    "Fig15Row",
    "ShardScalingResult",
    "ShardScalingRow",
    "format_fig15",
    "format_shard_scaling",
    "record",
    "run_fig15_window",
    "run_shard_scaling",
]


@dataclass(frozen=True)
class Fig15Row:
    """One sweep point: the stream after a window of W batches."""

    window: int
    windows_flushed: int
    #: Requests entering the window stage (post per-batch coalescing).
    pre_merge_requests: int
    #: Requests surviving the cross-batch merge.
    post_merge_requests: int
    #: CAM batches the 2-stage scheduler cuts the merged stream into.
    scheduled_batches: int

    @property
    def merge_ratio(self) -> float:
        """Pre-to-post request ratio (1.0 means nothing merged)."""
        if self.post_merge_requests == 0:
            return 1.0
        return self.pre_merge_requests / self.post_merge_requests


@dataclass(frozen=True)
class Fig15Result:
    """The full sweep plus the workload shape it ran on."""

    rows: list[Fig15Row]
    batch_count: int
    batch_size: int


def run_fig15_window(
    genome_length: int = 20_000,
    seed: int = 0,
    windows: tuple[int, ...] = (1, 2, 4, 8),
    batch_count: int = 8,
    batch_size: int = 32,
    k: int = DEFAULT_STEP,
    query_length: int = 48,
    cam_entries: int = 64,
) -> Fig15Result:
    """Sweep the coalescing window over a stream of consecutive batches."""
    stack = build_stack("human", genome_length, k, seed)
    engine = QueryEngine(ExmaBackend(table=stack.table))
    streams = batch_streams(
        engine, stack.reference.sequence, seed, batch_count, batch_size, query_length
    )
    pre_merge = sum(len(stream) for stream in streams)
    rows = []
    for window in windows:
        flushes = list(CoalescingWindow(window).stream(streams))
        post_merge = sum(flushed.unique for flushed in flushes)
        # Scheduling the merged stream through a cam_entries-deep CAM
        # issues consecutive full batches (the queue refills completely
        # between drains), so the batch count is a ceiling division — no
        # need to materialise request objects just to count batches.
        scheduled = -(-post_merge // cam_entries) if post_merge else 0
        rows.append(
            Fig15Row(
                window=window,
                windows_flushed=len(flushes),
                pre_merge_requests=pre_merge,
                post_merge_requests=post_merge,
                scheduled_batches=scheduled,
            )
        )
    return Fig15Result(rows=rows, batch_count=batch_count, batch_size=batch_size)


def format_fig15(result: Fig15Result) -> str:
    """Render the window sweep table."""
    lines = [
        "Fig. 15 - coalescing-window sweep "
        f"({result.batch_count} batches x {result.batch_size} queries)"
    ]
    lines.append(
        f"{'W':>3s} {'windows':>8s} {'pre':>8s} {'post':>8s} {'merge':>7s} {'CAM batches':>12s}"
    )
    for row in result.rows:
        lines.append(
            f"{row.window:3d} {row.windows_flushed:8d} {row.pre_merge_requests:8d} "
            f"{row.post_merge_requests:8d} {row.merge_ratio:6.2f}x {row.scheduled_batches:12d}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Shard scaling (serial baseline vs worker pools)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardScalingRow:
    """Wall-clock of one shard count vs the serial baseline.

    ``shards`` is the *requested* count; ``effective_shards`` what the
    engine actually ran (the adaptive engine clamps to the hardware,
    degenerating to serial on a single-core host).  ``forced`` rows come
    from :class:`~repro.engine.sharded.ShardedQueryEngine`, which always
    runs the full split — they expose the split/merge overhead even when
    the hardware cannot parallelise it.
    """

    shards: int
    executor: str
    seconds: float
    serial_seconds: float
    effective_shards: int = 0
    forced: bool = False
    #: Whether the warm-up batch's result (intervals, counters, request
    #: stream) equalled the serial engine's — sharded ≡ serial at bench scale.
    results_equal: bool = True

    @property
    def speedup(self) -> float:
        """Serial-to-sharded wall-clock ratio (> 1 means sharding wins)."""
        return self.serial_seconds / max(self.seconds, 1e-12)


@dataclass(frozen=True)
class ShardScalingResult:
    """The timed rows plus the workload shape that produced them."""

    rows: list[ShardScalingRow]
    genome_length: int
    batch_size: int
    query_length: int
    seed: int
    repeats: int


def run_shard_scaling(
    genome_length: int = 20_000,
    seed: int = 0,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    executors: tuple[str, ...] = ("thread", "process"),
    batch_size: int = 256,
    k: int = DEFAULT_STEP,
    query_length: int = 48,
    repeats: int = 3,
    include_forced: bool = False,
) -> ShardScalingResult:
    """Time sharded search against the serial engine on one batch.

    Wall-clock is best-of-*repeats*.  Each engine's persistent worker
    pool is warmed by an untimed first batch — the steady state the pools
    exist for — so the rows compare the replay-free contribution merge
    against the serial path, not pool spin-up; that warm-up result is
    compared with the serial engine's (``results_equal``).

    The default rows use the adaptive :class:`QueryEngine` applications
    use, which clamps the shard count to the available CPUs (never
    slower than serial by more than noise).  ``include_forced`` adds
    :class:`~repro.engine.sharded.ShardedQueryEngine` rows that run the
    full requested split regardless of hardware — on a single-core host
    (CI containers; the record's ``host`` block says so) those measure
    the pure split/merge overhead, the quantity this harness exists to
    keep honest, as the SPEChpc single-rank sanity rows do.
    """
    from ..engine.sharded import ShardedQueryEngine

    stack = build_stack("human", genome_length, k, seed)
    backend = ExmaBackend(table=stack.table)
    queries = sample_queries(
        stack.reference.sequence, count=batch_size, length=query_length, seed=seed
    )

    # One engine per configuration, all warmed up front (index caches +
    # persistent pools), then timed round-robin with a rotating start:
    # every repeat visits every configuration once, and each
    # configuration is measured at every position in the round across
    # repeats, so clock-frequency / allocator drift and
    # previous-measurement side effects land on all rows equally instead
    # of biasing whichever config always ran first or last.
    configs: list[tuple[ShardScalingRow, QueryEngine]] = []
    serial_engine = QueryEngine(backend, shards=1)
    configs.append(
        (
            ShardScalingRow(
                shards=1, executor="serial", seconds=0.0, serial_seconds=0.0,
                effective_shards=1,
            ),
            serial_engine,
        )
    )
    engine_kinds = [(QueryEngine, False)]
    if include_forced:
        engine_kinds.append((ShardedQueryEngine, True))
    for engine_cls, forced in engine_kinds:
        for executor in executors:
            for shards in shard_counts:
                if shards <= 1:
                    continue
                engine = engine_cls(backend, shards=shards, executor=executor)
                configs.append(
                    (
                        ShardScalingRow(
                            shards=shards, executor=executor, seconds=0.0,
                            serial_seconds=0.0,
                            effective_shards=engine.effective_shards, forced=forced,
                        ),
                        engine,
                    )
                )
    try:
        # Warm caches and persistent pools; configs[0] is the serial engine.
        warm = [engine.search_batch(queries) for _, engine in configs]
        best = [float("inf")] * len(configs)
        for round_index in range(repeats):
            for offset in range(len(configs)):
                index = (round_index + offset) % len(configs)
                engine = configs[index][1]
                seconds, _ = best_of(1, lambda: engine.search_batch(queries))
                best[index] = min(best[index], seconds)
    finally:
        for _, engine in configs:
            engine.close()
    serial_seconds = best[0]
    rows = [
        replace(
            row,
            seconds=seconds,
            serial_seconds=serial_seconds,
            results_equal=result == warm[0],
        )
        for (row, _), seconds, result in zip(configs, best, warm)
    ]
    return ShardScalingResult(
        rows=rows,
        genome_length=genome_length,
        batch_size=batch_size,
        query_length=query_length,
        seed=seed,
        repeats=repeats,
    )


def format_shard_scaling(result: ShardScalingResult) -> str:
    """Render the shard-scaling table."""
    lines = ["Shard scaling - sharded vs serial engine (identical results)"]
    lines.append(
        f"{'shards':>7s} {'effective':>10s} {'executor':>9s} {'ms':>9s} {'speedup':>8s}"
    )
    for row in result.rows:
        executor = f"{row.executor}!" if row.forced else row.executor
        effective = row.effective_shards or row.shards
        lines.append(
            f"{row.shards:7d} {effective:10d} {executor:>9s} "
            f"{row.seconds * 1e3:9.2f} {row.speedup:7.2f}x"
        )
    lines.append("(! = forced full split via ShardedQueryEngine)")
    return "\n".join(lines)


def record(result: ShardScalingResult) -> Record:
    """The shard-scaling record (``BENCH_shard_scaling_multicore.json`` on
    the multicore CI leg).

    The record's ``host`` block says how much hardware parallelism the
    rows could possibly have seen (``available_cpus`` is affinity/cgroup
    aware — the number the adaptive clamp actually used), so a 1-CPU
    container's numbers are not mistaken for a scaling ceiling.
    """
    rows = [
        row_dict(
            row,
            "speedup",
            digits={"speedup": 3},
            effective_shards=row.effective_shards or row.shards,
            ms=round(row.seconds * 1e3, 3),
            serial_ms=round(row.serial_seconds * 1e3, 3),
        )
        for row in result.rows
    ]
    headlines = [
        (
            f"{row['executor']}-{row['shards']}{'!' if row['forced'] else ''}.results_equal",
            row["results_equal"],
            "bool",
        )
        for row in rows
        if row["executor"] != "serial"
    ]
    forced = [row for row in rows if row["forced"] and row["executor"] == "thread"]
    if forced:
        for row in forced:
            headlines.append((f"forced-thread-{row['shards']}.speedup", row["speedup"], "higher"))
        # Only splits the hardware can parallelise are held to a floor.
        cpus = runtime.available_parallelism()
        eligible = [row for row in forced if row["shards"] <= cpus] or forced
        best = max(row["speedup"] for row in eligible)
        headlines.append(("forced-thread.best_speedup", best, "higher"))
    return Record(
        benchmark="shard_scaling", workload=row_dict(result), headlines=headlines, rows=rows
    )
