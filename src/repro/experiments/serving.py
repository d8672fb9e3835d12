"""Serving benchmark — sustained throughput *and* tail latency under
open-loop load, plus the offered-load saturation sweep.

The batch-harness figures measure how fast the accelerator model chews
through a pre-materialised stream; a serving system is judged on what it
*sustains* while clients keep arriving: throughput, p50/p99 latency and
backpressure behaviour, reported together the way the SPEChpc benchmarking
papers record sustained rates next to their scaling trajectories.
:func:`run_serving_bench` measures two things over one stack (index,
accelerator, Zipf query pool):

* the headline rows: one :class:`~repro.serving.service.QueryService`
  per (workers, arrival process) cell driven by the open-loop generator
  (:mod:`repro.serving.loadgen`) at a fixed offered rate, recording
  sustained Mbase/s, p50/p95/p99/max latency and admission accounting;
* with ``rate_sweep``, the knee study: for each worker count and
  arrival process, walk a **multiplicative rate ladder**
  (:func:`~repro.serving.loadgen.rate_ladder`) and record the
  rejection-rate and latency-vs-load curve.  The **knee** is the last
  rung the service absorbs with its rejection rate under the threshold;
  the sweep only proves saturation was *reached* when the top rung
  actually rejects — the ``sweep.<curve>.saturated`` pin: a ladder that
  never overloads the service measures nothing.

Both land in ``BENCH_serving.json`` (rows + ``sweep``) with every
invariant a ``bool`` headline (:func:`record`), checked at toy scale by
``scripts/ci_gates.py --gate pins=RECORD`` in the CI bench-smoke leg and
at multicore scale — where a floor holds ``sweep.*.knee_w2_over_w1``
above 1 — in the tests-multicore leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine.engine import QueryEngine
from ..serving import (
    QueryService,
    ServingConfig,
    bursty_schedule,
    make_schedule,
    percentile,
    poisson_schedule,
    rate_ladder,
    run_open_loop,
)
from .common import DEFAULT_STEP, build_serving_stack
from .record import Record, finite_positive, row_dict

__all__ = [
    "SaturationCurve",
    "SaturationRung",
    "SaturationStudy",
    "ServingBenchResult",
    "ServingBenchRow",
    "format_saturation",
    "format_serving",
    "record",
    "run_serving_bench",
]

#: Arrival processes the benchmark sweeps, in recording order.
ARRIVALS = ("poisson", "bursty")

#: A rung whose rejection rate stays under this fraction counts as
#: absorbed; the knee is the last absorbed rung of the ladder.
KNEE_REJECTION_THRESHOLD = 0.01

#: Sustained throughput below this is a stalled service, not a slow host.
MIN_MBASE_PER_SECOND = 0.001


@dataclass(frozen=True)
class ServingBenchRow:
    """One (workers, arrival process) sustained-load measurement."""

    arrival: str
    workers: int
    #: Offered load: arrivals/s × queries per arrival.
    offered_qps: float
    duration_s: float
    submitted: int
    accepted: int
    rejected: int
    completed: int
    batches: int
    flushes: int
    #: Issued-to-scheduled ratio across all flushes (window merge win).
    merge_ratio: float
    scheduled_requests: int
    bases_processed: int
    #: First submit → last completion, wall clock.
    wall_seconds: float
    #: Sustained throughput: bases processed / wall seconds.
    mbase_per_second: float
    #: The accelerator model's own throughput over the same stream.
    model_mbase_per_second: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_retry_after_s: float


@dataclass(frozen=True)
class ServingBenchResult:
    """All (workers × arrival) rows plus the workload shape."""

    rows: list[ServingBenchRow]
    genome_length: int
    k: int
    rate: float
    duration: float
    tenants: int
    queries_per_arrival: int
    query_length: int
    pool_size: int
    zipf_s: float
    max_batch: int
    max_delay: float
    window: int
    queue_capacity: int
    workers: tuple[int, ...]
    #: The offered-load knee study, when the run also swept the ladder.
    saturation: SaturationStudy | None = None


@dataclass(frozen=True)
class SaturationRung:
    """One rung of the offered-load ladder for one (workers, arrival)."""

    rate: float
    offered_qps: float
    submitted: int
    accepted: int
    rejected: int
    completed: int
    wall_seconds: float
    mbase_per_second: float
    p50_ms: float
    p99_ms: float
    mean_retry_after_s: float

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered queries bounced by backpressure."""
        return self.rejected / self.submitted if self.submitted else 0.0


@dataclass(frozen=True)
class SaturationCurve:
    """One (workers, arrival) rejection/latency-vs-load curve."""

    arrival: str
    workers: int
    rungs: list[SaturationRung]
    #: Rung index of the knee: the last rung whose rejection rate stays
    #: under the threshold (0 when even the first rung rejects more).
    knee_index: int

    @property
    def knee(self) -> SaturationRung:
        """The knee rung — the highest absorbed offered load."""
        return self.rungs[self.knee_index]

    @property
    def saturated(self) -> bool:
        """Whether the ladder actually drove the service past the knee
        (the top rung rejected work); False means the sweep never reached
        saturation and the knee is a lower bound only."""
        return self.rungs[-1].rejected > 0


@dataclass(frozen=True)
class SaturationStudy:
    """The full sweep: curves for every (workers, arrival) pair."""

    curves: list[SaturationCurve]
    base_rate: float
    multipliers: tuple[float, ...]
    duration: float
    queue_capacity: int
    knee_rejection_threshold: float


def _schedule(arrival, rate, duration, seed, pool, tenants, queries_per_arrival, zipf_s):
    if arrival == "poisson":
        offsets = poisson_schedule(rate, duration, seed=seed)
    elif arrival == "bursty":
        offsets = bursty_schedule(rate, duration, seed=seed)
    else:
        raise ValueError(f"unknown arrival process {arrival!r}; known: {ARRIVALS}")
    return make_schedule(
        offsets,
        pool,
        tenants=tenants,
        queries_per_arrival=queries_per_arrival,
        zipf_s=zipf_s,
        seed=seed,
    )


def run_serving_bench(
    genome_length: int = 20_000,
    seed: int = 0,
    rate: float = 500.0,
    duration: float = 1.0,
    tenants: int = 4,
    queries_per_arrival: int = 4,
    query_length: int = 28,
    pool_size: int = 512,
    zipf_s: float = 1.1,
    k: int = DEFAULT_STEP,
    max_batch: int = 64,
    max_delay: float = 0.005,
    window: int = 2,
    queue_capacity: int = 4096,
    arrivals: tuple[str, ...] = ARRIVALS,
    workers: Sequence[int] | int = (1,),
    rate_sweep: Sequence[float] | None = None,
    sweep_duration: float = 0.5,
    sweep_queue_capacity: int = 512,
    knee_rejection_threshold: float = KNEE_REJECTION_THRESHOLD,
) -> ServingBenchResult:
    """Measure the serving layer under open-loop Poisson and bursty load.

    One index, one accelerator model, one query pool; a fresh
    :class:`~repro.serving.service.QueryService` per cell so the stats
    and latencies are per-row.  Rejected arrivals are counted, not
    retried — open loop.

    With *rate_sweep* (multipliers of *rate*) the same stack also walks
    the offered-load ladder to the knee for every (workers, arrival)
    pair, *sweep_duration* seconds per rung.  The schedule of a given
    (arrival, rung) is identical across worker counts, so the curves are
    directly comparable.  *sweep_queue_capacity* is deliberately tighter
    than the headline bench's — the sweep must drive the queue past its
    bound at the top rung (``SaturationCurve.saturated``) or the knee was
    never reached and the sweep is reported as inconclusive.
    """
    if isinstance(workers, int):
        workers = (workers,)
    workers = tuple(int(count) for count in workers)
    backend, accelerator, pool = build_serving_stack(
        genome_length, seed, k, query_length, pool_size
    )

    def measure(worker_count, arrival, cell_rate, cell_duration, capacity, cell_seed):
        """Drive one fresh service open-loop: the measurements every cell
        records (as row keywords), then what the headline rows add."""
        config = ServingConfig(
            max_batch=max_batch,
            max_delay=max_delay,
            queue_capacity=capacity,
            window=window,
            workers=worker_count,
        )
        schedule = _schedule(
            arrival, cell_rate, cell_duration, cell_seed, pool,
            tenants, queries_per_arrival, zipf_s,
        )
        service = QueryService(QueryEngine(backend), accelerator, config)
        with service:
            loop = run_open_loop(service, schedule)
        stats = service.stats
        replay = service.result()
        latencies_ms = [latency * 1e3 for latency in stats.latencies]
        retry_afters = loop.retry_afters
        cell = dict(
            offered_qps=cell_rate * queries_per_arrival,
            submitted=loop.offered,
            accepted=loop.accepted,
            rejected=loop.rejected,
            completed=stats.completed,
            wall_seconds=loop.wall_seconds,
            mbase_per_second=replay.bases_processed / max(loop.wall_seconds, 1e-12) / 1e6,
            p50_ms=percentile(latencies_ms, 50.0),
            p99_ms=percentile(latencies_ms, 99.0),
            mean_retry_after_s=(
                sum(retry_afters) / len(retry_afters) if retry_afters else 0.0
            ),
        )
        return cell, stats, replay, latencies_ms

    pairs = [
        (worker_count, index, arrival)
        for worker_count in workers
        for index, arrival in enumerate(arrivals)
    ]
    rows = []
    for worker_count, index, arrival in pairs:
        cell, stats, replay, latencies_ms = measure(
            worker_count, arrival, rate, duration, queue_capacity, seed + index
        )
        rows.append(
            ServingBenchRow(
                arrival=arrival,
                workers=worker_count,
                duration_s=duration,
                batches=stats.batches,
                flushes=stats.flushes,
                merge_ratio=replay.merge_ratio,
                scheduled_requests=replay.requests,
                bases_processed=replay.bases_processed,
                model_mbase_per_second=replay.throughput.mbase_per_second,
                p95_ms=percentile(latencies_ms, 95.0),
                max_ms=max(latencies_ms) if latencies_ms else float("nan"),
                **cell,
            )
        )

    saturation = None
    if rate_sweep:
        rates = rate_ladder(rate, rate_sweep)
        curves = []
        for worker_count, index, arrival in pairs:
            rungs = []
            for rung_index, rung_rate in enumerate(rates):
                cell, _, _, _ = measure(
                    worker_count, arrival, rung_rate, sweep_duration,
                    sweep_queue_capacity, seed + index + 101 * rung_index,
                )
                rungs.append(SaturationRung(rate=rung_rate, **cell))
            knee_index = 0
            for rung_index, rung in enumerate(rungs):
                if rung.rejection_rate <= knee_rejection_threshold:
                    knee_index = rung_index
            curves.append(
                SaturationCurve(
                    arrival=arrival,
                    workers=worker_count,
                    rungs=rungs,
                    knee_index=knee_index,
                )
            )
        saturation = SaturationStudy(
            curves=curves,
            base_rate=rate,
            multipliers=tuple(float(multiplier) for multiplier in rate_sweep),
            duration=sweep_duration,
            queue_capacity=sweep_queue_capacity,
            knee_rejection_threshold=knee_rejection_threshold,
        )

    return ServingBenchResult(
        rows=rows,
        genome_length=genome_length,
        k=DEFAULT_STEP if k is None else k,
        rate=rate,
        duration=duration,
        tenants=tenants,
        queries_per_arrival=queries_per_arrival,
        query_length=query_length,
        pool_size=pool_size,
        zipf_s=zipf_s,
        max_batch=max_batch,
        max_delay=max_delay,
        window=window,
        queue_capacity=queue_capacity,
        workers=workers,
        saturation=saturation,
    )


def format_serving(result: ServingBenchResult) -> str:
    """Render the serving benchmark table (and the knee study, if swept)."""
    lines = [
        "Serving - sustained open-loop load through the always-on service "
        f"(human {result.genome_length:,} bp, k={result.k}, "
        f"{result.rate:.0f} arrivals/s x {result.queries_per_arrival} queries, "
        f"{result.tenants} tenants, W={result.window}, "
        f"batch<={result.max_batch} @ {result.max_delay * 1e3:.1f} ms, "
        f"workers {list(result.workers)})"
    ]
    lines.append(
        f"{'arrival':>8s} {'wrk':>4s} {'offered':>8s} {'accept':>7s} {'reject':>7s} "
        f"{'batches':>8s} {'flushes':>8s} {'merge':>6s} {'Mbase/s':>8s} "
        f"{'p50 ms':>7s} {'p99 ms':>7s} {'max ms':>7s}"
    )
    for row in result.rows:
        lines.append(
            f"{row.arrival:>8s} {row.workers:4d} {row.submitted:8d} {row.accepted:7d} "
            f"{row.rejected:7d} {row.batches:8d} {row.flushes:8d} {row.merge_ratio:5.2f}x "
            f"{row.mbase_per_second:8.3f} {row.p50_ms:7.2f} {row.p99_ms:7.2f} "
            f"{row.max_ms:7.2f}"
        )
    if result.saturation is not None:
        lines.append(format_saturation(result.saturation))
    return "\n".join(lines)


def format_saturation(study: SaturationStudy) -> str:
    """Render the saturation sweep: one block per (arrival, workers)."""
    lines = [
        "Saturation - offered-load ladder to the knee "
        f"(base {study.base_rate:.0f} arrivals/s x {list(study.multipliers)}, "
        f"{study.duration:.2f}s per rung, queue<={study.queue_capacity}, "
        f"knee at <={study.knee_rejection_threshold:.0%} rejected)"
    ]
    for curve in study.curves:
        knee = curve.knee
        lines.append(
            f"  {curve.arrival} x {curve.workers} worker(s): knee "
            f"{knee.offered_qps:.0f} qps @ {knee.mbase_per_second:.3f} Mbase/s"
            + ("" if curve.saturated else "  [top rung never rejected]")
        )
        lines.append(
            f"    {'offered':>8s} {'accept':>7s} {'reject':>7s} {'rej%':>6s} "
            f"{'Mbase/s':>8s} {'p50 ms':>7s} {'p99 ms':>7s} {'retry s':>8s}"
        )
        for rung_index, rung in enumerate(curve.rungs):
            marker = " <- knee" if rung_index == curve.knee_index else ""
            lines.append(
                f"    {rung.offered_qps:8.0f} {rung.accepted:7d} {rung.rejected:7d} "
                f"{rung.rejection_rate:6.1%} {rung.mbase_per_second:8.3f} "
                f"{rung.p50_ms:7.2f} {rung.p99_ms:7.2f} "
                f"{rung.mean_retry_after_s:8.4f}{marker}"
            )
    return "\n".join(lines)


#: Decimals the record keeps for host-side latency/throughput floats.
_ROW_DIGITS = {
    "merge_ratio": 4,
    "wall_seconds": 6,
    "mbase_per_second": 6,
    "model_mbase_per_second": 4,
    "p50_ms": 4,
    "p95_ms": 4,
    "p99_ms": 4,
    "max_ms": 4,
    "mean_retry_after_s": 6,
    "rejection_rate": 6,
}


def _backpressure_coherent(cell: dict) -> bool:
    """Rejections never exceed arrivals and always carry a retry hint."""
    return cell["rejected"] <= cell["submitted"] and (
        cell["rejected"] == 0 or cell["mean_retry_after_s"] > 0
    )


def record(result: ServingBenchResult) -> Record:
    """``BENCH_serving.json``: the sustained-load rows, plus the
    saturation ``sweep`` section when the run walked the rate ladder.
    Every pin is computed over the serialised rows and curves."""
    rows = [row_dict(row, digits=_ROW_DIGITS) for row in result.rows]
    cells = {(row["arrival"], row["workers"]) for row in rows}
    complete = bool(rows) and all(
        (arrival, workers) in cells for _, workers in cells for arrival in ARRIVALS
    )
    headlines = []
    for row in rows:
        name = f"{row['arrival']}x{row['workers']}"
        headlines.append((f"{name}.mbase_per_second", row["mbase_per_second"], "higher"))
        headlines.append((f"{name}.completed_all", row["completed"] == row["accepted"], "bool"))
        measured = ("accepted", "p50_ms", "p99_ms", "max_ms", "mbase_per_second")
        tails = (
            finite_positive(*(row[key] for key in measured))
            and row["mbase_per_second"] >= MIN_MBASE_PER_SECOND
        )
        headlines.append((f"{name}.tails_finite", tails, "bool"))
        headlines.append((f"{name}.backpressure_coherent", _backpressure_coherent(row), "bool"))
    sections = {}
    study = result.saturation
    if study is not None:
        sweep = sections["sweep"] = row_dict(
            study,
            multipliers=list(study.multipliers),
            curves=[
                row_dict(
                    curve,
                    "saturated",
                    knee_offered_qps=curve.knee.offered_qps,
                    knee_mbase_per_second=round(curve.knee.mbase_per_second, 6),
                    rungs=[
                        row_dict(rung, "rejection_rate", digits=_ROW_DIGITS)
                        for rung in curve.rungs
                    ],
                )
                for curve in study.curves
            ],
        )
        knees = {}
        for curve in sweep["curves"]:
            name = f"sweep.{curve['arrival']}x{curve['workers']}"
            knee = curve["rungs"][curve["knee_index"]]
            knees[curve["arrival"], curve["workers"]] = knee["mbase_per_second"]
            headlines.append((f"{name}.saturated", curve["saturated"], "bool"))
            knee_finite = finite_positive(knee["mbase_per_second"], knee["p50_ms"], knee["p99_ms"])
            headlines.append((f"{name}.knee_finite", knee_finite, "bool"))
            coherent = all(
                rung["completed"] == rung["accepted"] and _backpressure_coherent(rung)
                for rung in curve["rungs"]
            )
            headlines.append((f"{name}.rungs_coherent", coherent, "bool"))
        complete = complete and set(knees) == cells
        for arrival in ARRIVALS:
            one, two = knees.get((arrival, 1)), knees.get((arrival, 2))
            if finite_positive(one) and two is not None:
                ratio = round(two / one, 4)
                headlines.append((f"sweep.{arrival}.knee_w2_over_w1", ratio, "higher"))
    headlines.append(("arrivals_complete", complete, "bool"))
    return Record(
        benchmark="serving",
        workload=row_dict(result, workers=list(result.workers)),
        headlines=headlines,
        rows=rows,
        sections=sections,
    )
