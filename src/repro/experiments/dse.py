"""dse — design-space exploration over the accelerator's own knobs.

The lumos-style sweep the ROADMAP names: the columnar replay (PR 5) plus
the persistent worker pools (PR 8) make whole-configuration sweeps
affordable, and the order-deterministic :class:`~repro.hw.energy
.EnergyLedger` makes every point reproducible bit-for-bit.  The harness
enumerates :class:`~repro.accel.configspace.ConfigPoint` grids over CAM
width, both cache geometries, the DRAM page policy, the MTL index shape
and the coalescing window W, prices each point for throughput (Mbase/s),
energy-per-base and a first-order area proxy, and reduces the sweep to a
Pareto frontier (``BENCH_dse.json``).

The sweep is a job queue over PR 8's :class:`~repro.runtime
.BackendWorkerPool`: the workload context (table, MTL indexes, the
per-batch request streams) ships to the pool **once** as the bound
payload — process pools install it via the pool initializer — and each
job submits only its :class:`ConfigPoint` coordinate.  A job builds a
fresh accelerator at its point, windows the shared batch streams with
its own W and replays the flush epochs serially (the parallelism is
*across* configurations, not within one).

Correctness contract, pinned by the record's ``bool`` headlines
(:func:`record`; CI checks them with ``scripts/ci_gates.py --gate pins``):

* the baseline point (Table-I defaults, W=1) reproduces today's
  :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run` field for
  field, flush by flush (``baseline_matches_run``);
* every metric is modelled (cycles, joules), so re-running any frontier
  point yields the bit-identical row (``rederived_equal`` — checked by
  actually re-running each one after the sweep);
* Pareto membership is recomputable from the recorded rows alone
  (``frontier.is_pareto_set``).

Reproduce the committed record with::

    repro-exma experiment dse --genome-length 20000 \
        --grid "cam=64,128;base_ways=4,8;page=close,dynamic;window=1,2;mtl=16,64" \
        --json BENCH_dse.json
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..accel.configspace import (
    ConfigPoint,
    baseline_point,
    enumerate_grid,
    pareto_frontier,
    parse_grid,
    point_to_dict,
)
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..engine.coalesce import RequestStream
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow
from ..exma.table import ExmaTable
from ..runtime import BackendWorkerPool, check_executor, check_workers
from .common import DEFAULT_STEP, build_stack, sample_queries
from .record import Record, finite_positive, row_dict

__all__ = [
    "DEFAULT_GRID",
    "DseResult",
    "DseRow",
    "DseWorkload",
    "FrontierPoint",
    "format_dse",
    "parse_grid",
    "record",
    "run_dse",
    "run_dse_job",
]

#: The default sweep: CAM width × base-cache ways × page policy × window,
#: crossed over the reproduction-scale anchor point (16 grid points).
DEFAULT_GRID: dict[str, tuple] = {
    "cam": (64, 128),
    "base_ways": (4, 8),
    "page": ("close", "dynamic"),
    "window": (1, 2),
}


@dataclass(frozen=True)
class DseWorkload:
    """The per-sweep context shipped to the worker pool exactly once.

    Plays the pool's *payload* role: thread workers share it in-process,
    process workers receive it through the pool initializer, and every
    job afterwards only carries its :class:`ConfigPoint` across the
    pipe.  All members are picklable (the PR 8 contract).
    """

    table: ExmaTable
    #: MTL indexes keyed by split threshold; ``None`` is the workload's
    #: default index (every threshold a sweep point needs is pre-built).
    indexes: dict
    #: Per-batch request streams (post per-batch coalescing) every
    #: configuration windows with its own W.
    streams: list[RequestStream]


@dataclass(frozen=True)
class DseRow:
    """One priced design point (all metrics modelled, hence re-derivable)."""

    label: str
    point: ConfigPoint
    baseline: bool
    flushes: int
    #: Requests entering the window stage (post per-batch coalescing).
    issued: int
    #: Requests surviving the cross-batch merge (scheduled on the CAM).
    requests: int
    bases_processed: int
    total_cycles: int
    dram_cycles: int
    dram_requests: int
    #: Modelled run time (cycles over the DRAM clock), not wall-clock.
    seconds: float
    mbase_per_second: float
    accelerator_energy_j: float
    dram_energy_j: float
    energy_per_base_nj: float
    area_mm2: float
    base_cache_hit_rate: float
    index_cache_hit_rate: float
    row_hit_rate: float
    bandwidth_utilization: float

    def objectives(self) -> tuple[float, float, float]:
        """The maximised objective vector Pareto extraction runs on."""
        return (self.mbase_per_second, -self.energy_per_base_nj, -self.area_mm2)


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal design with its re-derivation verdict."""

    label: str
    mbase_per_second: float
    energy_per_base_nj: float
    area_mm2: float
    #: Whether re-running the point reproduced the row bit-for-bit.
    rederived_equal: bool


@dataclass(frozen=True)
class DseResult:
    """The priced sweep, its frontier and the workload that produced it."""

    rows: list[DseRow]
    frontier: list[FrontierPoint]
    grid: dict
    baseline_matches_run: bool
    workers: int
    executor: str
    genome_length: int
    seed: int
    queries: int
    query_length: int
    k: int
    batches: int
    mtl_epochs: int
    #: Wall-clock of the whole sweep (the only non-modelled number here).
    elapsed_seconds: float = 0.0
    frontier_labels: list = field(default_factory=list)


def _cache_hit_rate(flushes, attribute: str) -> float:
    hits = sum(getattr(flush, attribute).hits for flush in flushes)
    misses = sum(getattr(flush, attribute).misses for flush in flushes)
    return hits / max(hits + misses, 1)


def run_dse_job(workload: DseWorkload, point: ConfigPoint) -> DseRow:
    """Price one design point on the shared workload (a pool job).

    Module-level so process pools pick it up by reference; the workload
    arrives as the pool's payload.  The replay inside a job is
    serial (``replay_workers=1``) — the DSE's parallelism is across
    configurations, one job per :class:`ConfigPoint`.
    """
    index = workload.indexes[point.mtl_threshold]
    accelerator = point.build_accelerator(workload.table, index)
    flushes = list(CoalescingWindow(point.window).stream(iter(workload.streams)))
    result = accelerator.run_stream(iter(flushes), replay_workers=1)
    bases = result.bases_processed
    energy_j = result.accelerator_energy_j + result.dram_energy_j
    seconds = max(result.seconds, 1e-12)
    return DseRow(
        label=point.label,
        point=point,
        baseline=point == baseline_point(),
        flushes=result.windows,
        issued=result.issued,
        requests=result.requests,
        bases_processed=bases,
        total_cycles=result.total_cycles,
        dram_cycles=result.dram_cycles,
        dram_requests=result.dram_requests,
        seconds=result.seconds,
        mbase_per_second=bases / seconds / 1e6,
        accelerator_energy_j=result.accelerator_energy_j,
        dram_energy_j=result.dram_energy_j,
        energy_per_base_nj=energy_j * 1e9 / max(bases, 1),
        area_mm2=point.area_proxy_mm2(),
        base_cache_hit_rate=_cache_hit_rate(result.flushes, "base_cache"),
        index_cache_hit_rate=_cache_hit_rate(result.flushes, "index_cache"),
        row_hit_rate=result.row_hit_rate,
        bandwidth_utilization=result.bandwidth_utilization,
    )


def _check_baseline(
    workload: DseWorkload, pooled_row: DseRow
) -> bool:
    """Field-for-field: the baseline job against today's ``run`` paths.

    Replays the workload's W=1 flush epochs through a *plain*,
    default-constructed Table-I :class:`ExmaAccelerator` — both the
    columnar :meth:`~ExmaAccelerator.run` unit every existing consumer
    calls (via ``replay_flush``) and the request-at-a-time
    :meth:`~ExmaAccelerator.run_reference` object path (the
    fig18-window anchor convention, so columnar-vs-object divergence
    cannot hide) — and compares each flush with dataclass equality
    (every field) against the ConfigPoint clone's replay.  The pooled
    baseline row's aggregates must agree exactly too, which closes the
    loop over the pool shipping itself.
    """
    base = baseline_point()
    index = workload.indexes[None]
    flushes = list(CoalescingWindow(1).stream(iter(workload.streams)))
    direct = ExmaAccelerator(workload.table, index)
    direct_runs = [direct.replay_flush(flushed) for flushed in flushes]
    reference_runs = [
        direct.run_reference(
            flushed.materialize(),
            bases_processed=direct._bases_processed(flushed.issued),
        )
        for flushed in flushes
    ]
    clone = base.build_accelerator(workload.table, index)
    windowed = clone.run_stream(iter(flushes), replay_workers=1)
    if len(windowed.flushes) != len(flushes):
        return False
    if any(a != b for a, b in zip(windowed.flushes, direct_runs)):
        return False
    if any(a != b for a, b in zip(windowed.flushes, reference_runs)):
        return False
    return (
        pooled_row.requests == windowed.requests
        and pooled_row.total_cycles == windowed.total_cycles
        and pooled_row.accelerator_energy_j == windowed.accelerator_energy_j
        and pooled_row.dram_energy_j == windowed.dram_energy_j
    )


def run_dse(
    genome_length: int = 20_000,
    seed: int = 0,
    query_count: int = 800,
    query_length: int = 48,
    k: int = DEFAULT_STEP,
    batches: int = 8,
    mtl_epochs: int = 40,
    grid: "dict | str | None" = None,
    anchor: ConfigPoint | None = None,
    workers: int = 1,
    executor: str = "thread",
) -> DseResult:
    """Sweep the configuration grid over one shared workload.

    *grid* is an axes mapping (``{"cam": (64, 128), ...}``), a CLI-style
    spec string, or ``None`` for :data:`DEFAULT_GRID`; the axes cross
    over *anchor* (the reproduction-scale point by default) and the
    Table-I baseline point is always prepended as job zero.  The jobs
    fan across a :class:`~repro.runtime.BackendWorkerPool` of *workers*
    workers of the given *executor* kind (inline at 1), the workload
    shipping once as the pool's payload; results are collected in
    submission order and a dead pool degrades to the serial sweep, so
    the record is identical at every worker count.
    """
    if batches < 1:
        raise ValueError("batches must be >= 1")
    workers = check_workers(workers)
    executor = check_executor(executor)
    started = time.perf_counter()
    if isinstance(grid, str):
        grid = parse_grid(grid)
    grid = dict(DEFAULT_GRID) if grid is None else dict(grid)
    base = baseline_point()
    points = [p for p in enumerate_grid(grid, anchor) if p != base]
    jobs = [base, *points]

    # Every threshold variant shares the default stack's table.
    stack = build_stack("human", genome_length, k, seed, mtl_epochs)
    indexes: dict = {None: stack.index}
    for threshold in sorted({p.mtl_threshold for p in jobs} - {None}):
        indexes[threshold] = build_stack(
            "human", genome_length, k, seed, mtl_epochs, mtl_threshold=threshold
        ).index

    engine = QueryEngine(ExmaBackend(table=stack.table, index=stack.index))
    queries = sample_queries(
        stack.reference.sequence, count=query_count, length=query_length, seed=seed
    )
    chunk = max(1, -(-len(queries) // batches))
    batch_lists = [queries[i : i + chunk] for i in range(0, len(queries), chunk)]
    streams = [engine.request_stream(batch)[0] for batch in batch_lists]
    workload = DseWorkload(table=stack.table, indexes=indexes, streams=streams)

    with BackendWorkerPool(workload, executor, max_workers=workers) as pool:
        rows = pool.map_shards(run_dse_job, jobs)

    baseline_matches_run = _check_baseline(workload, rows[0])

    frontier_indices = pareto_frontier([row.objectives() for row in rows])
    frontier: list[FrontierPoint] = []
    for i in frontier_indices:
        row = rows[i]
        rerun = run_dse_job(workload, row.point)
        frontier.append(
            FrontierPoint(
                label=row.label,
                mbase_per_second=row.mbase_per_second,
                energy_per_base_nj=row.energy_per_base_nj,
                area_mm2=row.area_mm2,
                rederived_equal=rerun == row,
            )
        )

    return DseResult(
        rows=rows,
        frontier=frontier,
        grid=grid,
        baseline_matches_run=baseline_matches_run,
        workers=workers,
        executor=executor,
        genome_length=genome_length,
        seed=seed,
        queries=len(queries),
        query_length=query_length,
        k=k,
        batches=len(batch_lists),
        mtl_epochs=mtl_epochs,
        elapsed_seconds=time.perf_counter() - started,
        frontier_labels=[point.label for point in frontier],
    )


def format_dse(result: DseResult) -> str:
    """Render the sweep table and the frontier summary."""
    on_frontier = set(result.frontier_labels)
    lines = [
        f"dse - {len(result.rows)} design points over "
        f"{result.queries} queries x {result.batches} batches "
        f"(genome {result.genome_length:,} bp, k={result.k}, "
        f"workers={result.workers} {result.executor}, "
        f"{result.elapsed_seconds:.1f} s)"
    ]
    lines.append(
        f"{'point':>34s} {'W':>2s} {'Mbase/s':>9s} {'nJ/base':>9s} "
        f"{'area mm2':>9s} {'rowhit':>7s} {'frontier':>8s}"
    )
    for row in result.rows:
        marker = "*" if row.label in on_frontier else ""
        base = " (baseline)" if row.baseline else ""
        lines.append(
            f"{row.label:>34s} {row.point.window:2d} {row.mbase_per_second:9.2f} "
            f"{row.energy_per_base_nj:9.3f} {row.area_mm2:9.3f} "
            f"{row.row_hit_rate:6.1%} {marker:>8s}{base}"
        )
    lines.append("")
    lines.append(
        f"pareto frontier: {len(result.frontier)} of {len(result.rows)} points; "
        f"baseline matches run: {'yes' if result.baseline_matches_run else 'NO'}"
    )
    for point in result.frontier:
        lines.append(
            f"  * {point.label:32s} {point.mbase_per_second:9.2f} Mbase/s  "
            f"{point.energy_per_base_nj:8.3f} nJ/base  {point.area_mm2:7.3f} mm2  "
            f"rederived {'ok' if point.rederived_equal else 'DIVERGED'}"
        )
    return "\n".join(lines)


def _grid_json(grid: dict) -> dict:
    """Grid axes with JSON-safe values (policies as strings)."""
    encoded: dict = {}
    for axis, values in grid.items():
        encoded[axis] = [
            value.value
            if hasattr(value, "value")
            else ("default" if value is None else value)
            for value in values
        ]
    return encoded


#: The three objectives of a row / frontier point, as recorded.
OBJECTIVES = ("mbase_per_second", "energy_per_base_nj", "area_mm2")

#: Decimals the record keeps for a row's rates (the objectives stay exact).
_RATE_DIGITS = {
    "base_cache_hit_rate": 6,
    "index_cache_hit_rate": 6,
    "row_hit_rate": 6,
    "bandwidth_utilization": 6,
}


def record(result: DseResult) -> Record:
    """``BENCH_dse.json``: the figure harness for the trade-off surface.

    Every row carries its full config coordinate plus the three
    objectives (so the frontier is recomputable from the record alone)
    and the frontier section carries the re-derivation verdicts.
    Objective floats are recorded at full precision — the
    ``frontier.is_pareto_set`` pin recomputes Pareto dominance from the
    serialised rows and must see the exact values.
    """
    workload = row_dict(result, digits={"elapsed_seconds": 3})
    matches_run = workload.pop("baseline_matches_run")
    elapsed_seconds = workload.pop("elapsed_seconds")
    on_frontier = set(result.frontier_labels)
    frontier = [row_dict(point) for point in result.frontier]
    rows = [
        row_dict(
            row,
            digits=_RATE_DIGITS,
            config=point_to_dict(row.point),
            on_frontier=row.label in on_frontier,
        )
        for row in result.rows
    ]
    grid = _grid_json(result.grid)
    baseline = baseline_point().label

    def member(entry: dict) -> tuple:
        return (entry["label"], *(entry[key] for key in OBJECTIVES))

    labels = [row["label"] for row in rows]
    pareto = pareto_frontier(
        (row["mbase_per_second"], -row["energy_per_base_nj"], -row["area_mm2"]) for row in rows
    )
    headlines = [
        ("baseline.matches_run", matches_run, "bool"),
        (
            "baseline.row_unique",
            [row["label"] for row in rows if row["baseline"]] == [baseline],
            "bool",
        ),
        ("grid.sweeps_two_knobs", sum(len(v) >= 2 for v in grid.values()) >= 2, "bool"),
        ("rows.labels_unique", len(set(labels)) == len(labels), "bool"),
        (
            "objectives_finite",
            all(finite_positive(*(row[key] for key in OBJECTIVES)) for row in rows),
            "bool",
        ),
        # The recomputed Pareto set, the frontier section and the per-row
        # flags must be one set of (label, objectives).
        (
            "frontier.is_pareto_set",
            {member(rows[i]) for i in pareto}
            == {member(point) for point in frontier}
            == {member(row) for row in rows if row["on_frontier"]},
            "bool",
        ),
        ("frontier.size", len(frontier), "higher"),
    ]
    for point in frontier:
        label = point["label"]
        headlines.append((f"{label}.rederived_equal", point["rederived_equal"], "bool"))
        headlines.append((f"{label}.mbase_per_second", point["mbase_per_second"], "higher"))
        headlines.append((f"{label}.energy_per_base_nj", point["energy_per_base_nj"], "lower"))
        headlines.append((f"{label}.area_mm2", point["area_mm2"], "lower"))
    return Record(
        benchmark="dse",
        workload=workload,
        headlines=headlines,
        rows=rows,
        sections={
            "grid": grid,
            "elapsed_seconds": elapsed_seconds,
            "baseline": {"label": baseline, "matches_run": matches_run},
            "frontier": frontier,
        },
    )
