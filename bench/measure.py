"""Drivers, estimators and metric definitions.

Two drivers — :func:`run_closed_loop` (``offline-*``: passes repeat for the
measured period, one thread) and :func:`run_open_loop` (``serve-*``: the
benchmark's own schedule walker plus the service's one batcher thread) —
and the functions that turn their logs, and a :class:`trace.Tracer`'s spans,
into the named metrics.

The gated host timings are reported in *reference-host* seconds: both
drivers sample :func:`calibrate.kernel_seconds` around pieces of the work
(between the steps of a closed-loop pass; before and after each open-loop
phase, while no service thread exists), and a duration counts as its wall
seconds over the host's speed factor while it ran (see ``README.md`` for
why).  ``serve-steady`` is not scaled: its throughput is the offered rate
and its latency is mostly timer waits.  Per-layer times are wall-clock as
measured; ``host.speed_factor`` converts them.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .calibrate import kernel_seconds, speed_factor
from .trace import Tracer, clock

#: The measured period of an open-loop run is cut into phases of about this
#: many seconds, each a fresh service with the host's speed sampled on
#: either side of it.
PHASE_S = 1.0

#: A query answered correctly within this many ms of its due time meets
#: the service-level objective; refused, failed or wrong answers miss it.
SLO_MS = 50.0

#: Dynamic-batching knobs of the served stack (``ServingConfig`` defaults,
#: written out so a changed default cannot move the benchmark).
MAX_BATCH = 64
MAX_DELAY_S = 0.005

#: Host-speed samples taken before, and again after, each open-loop phase.
SPEED_SAMPLES = 25


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); nan when empty."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def describe(values) -> dict:
    """Median, quartiles and count — printed beside each estimator."""
    values = [value for value in values if not math.isnan(value)]
    if len(values) < 2:
        only = values[0] if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------- #
# Modelled numbers (deterministic; never mixed with host time)
# --------------------------------------------------------------------- #


def model_metrics(flushes) -> dict[str, float]:
    """Modelled totals of a list of per-flush ``AcceleratorRunResult``\\ s."""
    from repro.accel.exma_accelerator import WindowedRunResult

    run = WindowedRunResult(name="bench", flushes=list(flushes))
    bases = max(1, run.bases_processed)
    base_hits = sum(f.base_cache.hits for f in flushes)
    base_accesses = sum(f.base_cache.accesses for f in flushes)
    index_hits = sum(f.index_cache.hits for f in flushes)
    index_accesses = sum(f.index_cache.accesses for f in flushes)
    return {
        "model_mbase_per_s": run.throughput.mbase_per_second if flushes else 0.0,
        "model_nj_per_base": (run.accelerator_energy_j + run.dram_energy_j) / bases * 1e9,
        "accel.model_total_cycles": run.total_cycles,
        "hw.dram.model_cycles": run.dram_cycles,
        "hw.pe_array.model_cycles": run.inference_cycles,
        "hw.cache.model_base_hit_rate": base_hits / max(1, base_accesses),
        "hw.cache.model_index_hit_rate": index_hits / max(1, index_accesses),
        "hw.dram.model_row_hit_rate": run.row_hit_rate,
        "hw.dram.model_bandwidth_utilization": run.bandwidth_utilization,
        "exma.model_increment_entries": run.increment_entries_read,
        "accel.model_energy_uj": run.accelerator_energy_j * 1e6,
        "hw.dram.model_energy_uj": run.dram_energy_j * 1e6,
    }


# --------------------------------------------------------------------- #
# Closed loop (offline-search, offline-replay)
# --------------------------------------------------------------------- #


class _PassTimer:
    """Sums the seconds a pass spends in its steps and samples host speed
    between them, so a pass is timed without the samples and normalised by
    the speed the host had during that very pass."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = [kernel_seconds()]

    def step(self, call, *args):
        started = clock()
        result = call(*args)
        self.seconds += clock() - started
        self.samples.append(kernel_seconds())
        return result


def _search_pass(stack, timer: _PassTimer):
    """search_batch -> CoalescingWindow -> replay_flush over one pass's reads."""
    from repro.engine.window import CoalescingWindow

    workload = stack.workload
    window = CoalescingWindow(workload.window)
    counts: list[int] = []
    flushes = []

    def search(queries):
        result = stack.engine.search_batch(queries)
        return result.counts, result.stats.requests

    def merge(requests):
        flushed = window.push(requests) if requests is not None else window.flush()
        return None if flushed is None else stack.accelerator.replay_flush(flushed)

    for begin in range(0, len(stack.queries), workload.batch_size):
        found, requests = timer.step(search, stack.queries[begin : begin + workload.batch_size])
        counts.extend(found)
        replayed = timer.step(merge, requests)
        if replayed is not None:
            flushes.append(replayed)
    replayed = timer.step(merge, None)
    if replayed is not None:
        flushes.append(replayed)
    return counts, flushes


def _replay_pass(stack, timer: _PassTimer):
    """The windowed replay of the streams searched during set-up: what
    ``run_windowed(streams, window=W, replay_workers=1)`` does, driven flush
    by flush so host speed can be sampled in between (the warm-up checks
    that the two give identical flushes)."""
    from repro.engine.window import CoalescingWindow

    merged = CoalescingWindow(stack.workload.window).stream(stack.streams)
    flushes = []
    while True:
        flushed = timer.step(next, merged, None)
        if flushed is None:
            return None, flushes
        flushes.append(timer.step(stack.accelerator.replay_flush, flushed))


@dataclass
class ClosedLoopLog:
    """What a run of repeated passes produced."""

    #: Wall seconds each pass spent in its steps, and the host's speed
    #: factor during it.
    wall_seconds: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    #: Per-flush modelled results of the first pass; every later pass must
    #: reproduce them field for field.
    flushes: list = field(default_factory=list)
    model_mismatches: int = 0
    #: Answers checked against the oracle, and how many were wrong.
    answers: int = 0
    wrong: int = 0

    @property
    def seconds(self) -> list[float]:
        """Reference-host seconds of each pass."""
        return [wall / factor for wall, factor in zip(self.wall_seconds, self.speed)]


def run_closed_loop(
    stack, seconds: float, expected: list[int], tracer: Tracer | None = None
) -> ClosedLoopLog:
    """Repeat passes for *seconds* (at least three), checking each one.

    Only the steps of a pass are timed; host-speed samples, the answer
    check and the model check run between them.
    """
    one_pass = _search_pass if stack.workload.kind == "search" else _replay_pass
    log = ClosedLoopLog()
    origin = clock()
    while True:
        timer = _PassTimer()
        if tracer is None:
            counts, flushes = one_pass(stack, timer)
        else:
            with tracer.span("pipeline.pass"):
                counts, flushes = one_pass(stack, timer)
        log.wall_seconds.append(timer.seconds)
        log.speed.append(speed_factor(timer.samples))
        if not log.flushes:
            log.flushes = flushes
        elif flushes != log.flushes:
            log.model_mismatches += 1
        if counts is not None:
            log.answers += len(counts)
            log.wrong += sum(1 for got, want in zip(counts, expected) if got != want)
            log.wrong += abs(len(counts) - len(expected))
        if clock() - origin >= seconds and len(log.wall_seconds) >= 3:
            return log


def closed_loop_end_to_end(stack, log: ClosedLoopLog) -> tuple[dict, dict]:
    """(metrics, detail) of an untraced closed-loop run.

    The unit of work is one pass, so a pass's reference-host seconds are
    both the throughput sample and the latency sample.
    """
    bases = sum(len(query) for query in stack.queries)
    pass_ms = [seconds * 1e3 for seconds in log.seconds]
    model = model_metrics(log.flushes)
    metrics = {
        "host_kbase_per_s": bases / statistics.median(pass_ms),  # bases per ms
        "latency_ms_p50": statistics.median(pass_ms),
        "latency_ms_p90": percentile(pass_ms, 90),
        "model_mbase_per_s": model["model_mbase_per_s"],
        "model_nj_per_base": model["model_nj_per_base"],
    }
    detail = {
        "bases_per_pass": bases,
        "pass_ms": describe(pass_ms),
        "pass_ms_wall_clock": describe([seconds * 1e3 for seconds in log.wall_seconds]),
        "host_speed_factor": describe(log.speed),
    }
    return metrics, detail


# --------------------------------------------------------------------- #
# Open loop (serve-steady, serve-saturated)
# --------------------------------------------------------------------- #


@dataclass
class OpenLoopLog:
    """What one open-loop phase offered and what came back."""

    duration: float
    start: float = 0.0
    end: float = 0.0
    #: Per arrival group: due time, submit time, queries, tickets (``None``
    #: when refused) and the ``retry_after`` hints of the refusals.
    due: list[float] = field(default_factory=list)
    submitted: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    tickets: list = field(default_factory=list)
    retry_after: list[float] = field(default_factory=list)
    #: Host speed factor, from kernel samples taken on this thread just
    #: before the service started and just after it stopped.
    speed: float = 1.0
    stats: object = None
    flushes: list = field(default_factory=list)
    config: object = None
    stranded: int = 0


def serving_config(workload):
    """The resolved ``ServingConfig`` of an open-loop workload."""
    from repro.serving.service import ServingConfig

    return ServingConfig(
        max_batch=MAX_BATCH,
        max_delay=MAX_DELAY_S,
        queue_capacity=workload.queue_capacity,
        window=workload.window,
        workers=1,
        replay_workers=1,
        replay_executor="thread",
    )


def run_open_loop(stack, begin_s: float, duration: float) -> OpenLoopLog:
    """Walk the schedule slice ``[begin_s, begin_s + duration)`` against a
    fresh ``QueryService`` and drain it.

    Open loop: every group is submitted at its due time whether or not
    earlier ones completed; a refusal is recorded, never retried.  Due and
    submit times are kept per group, so latency can be counted from when a
    query *should* have been sent and generator lateness is reported.

    Host speed is sampled while no service thread exists, before and after
    the phase: a sample taken beside a busy batcher thread reads the
    contention between the two threads (1.3-2x, and it depends on what the
    batcher is executing), not the host.
    """
    from repro.serving.service import AdmissionRejected, QueryService

    workload = stack.workload
    first, last = np.searchsorted(stack.offsets, [begin_s, begin_s + duration])
    offsets = (stack.offsets[first:last] - begin_s).tolist()
    tenants = [f"tenant-{tenant}" for tenant in stack.tenants[first:last].tolist()]
    pool = stack.queries
    groups = [tuple(pool[pick] for pick in row) for row in stack.picks[first:last].tolist()]

    log = OpenLoopLog(duration=duration, config=serving_config(workload))
    samples = [kernel_seconds() for _ in range(SPEED_SAMPLES)]
    service = QueryService(stack.engine, stack.accelerator, log.config, clock=clock)
    service.start()
    try:
        log.start = start = clock()
        for offset, tenant, group in zip(offsets, tenants, groups):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            log.due.append(due)
            log.sizes.append(len(group))
            log.submitted.append(clock())
            try:
                log.tickets.append(service.submit(group, tenant=tenant))
            except AdmissionRejected as refusal:
                log.tickets.append(None)
                log.retry_after.append(refusal.retry_after)
    finally:
        service.stop(drain=True)
    log.end = clock()
    samples += [kernel_seconds() for _ in range(SPEED_SAMPLES)]
    log.speed = speed_factor(samples)
    log.stats = service.stats
    log.flushes = service.result().flushes
    log.stranded = sum(1 for ticket in log.tickets if ticket is not None and not ticket.done())
    return log


def run_phases(stack, begin_s: float, seconds: float):
    """Back-to-back slices of the schedule (at least three), each its own
    service; yields each phase's log as it ends."""
    phases = max(3, round(seconds / PHASE_S))
    width = seconds / phases
    for index in range(phases):
        yield run_open_loop(stack, begin_s + index * width, width)


@dataclass
class ServedQueries:
    """Per accepted query columns of one open-loop phase."""

    due: np.ndarray
    submitted: np.ndarray
    completion: np.ndarray
    correct: np.ndarray
    bases: np.ndarray
    batch: np.ndarray
    flush: np.ndarray


def served_queries(log: OpenLoopLog, oracle: dict[str, int]) -> ServedQueries:
    """Flatten the resolved tickets; an answer is correct when it completed
    and its ``Interval.count`` equals the oracle's."""
    rows = []
    for due, submitted, ticket in zip(log.due, log.submitted, log.tickets):
        if ticket is None or not ticket.done():
            continue
        for outcome in ticket.result(timeout=0):
            correct = (
                outcome.ok
                and outcome.interval is not None
                and outcome.interval.count == oracle[outcome.query]
            )
            rows.append(
                (
                    due,
                    submitted,
                    outcome.completion,
                    correct,
                    len(outcome.query),
                    outcome.batch_index,
                    outcome.flush_index,
                )
            )
    columns = list(zip(*rows)) if rows else [[]] * 7
    return ServedQueries(
        due=np.array(columns[0], dtype=np.float64),
        submitted=np.array(columns[1], dtype=np.float64),
        completion=np.array(columns[2], dtype=np.float64),
        correct=np.array(columns[3], dtype=bool),
        bases=np.array(columns[4], dtype=np.int64),
        batch=np.array(columns[5], dtype=np.int64),
        flush=np.array(columns[6], dtype=np.int64),
    )


def open_loop_end_to_end(stack, phases: list[tuple[OpenLoopLog, ServedQueries]]) -> tuple[dict, dict]:
    """(metrics, detail) of the phases of an open-loop run, traced or not.

    Latency runs from the instant a query was due to its completion.
    Each phase gives a p50, a p90, a goodput (correct completions over the
    seconds until the service had drained) and an objective share, put on
    the reference host by that phase's speed factor; the metric is the
    median over phases.

    A paced workload (``serve-steady``) is not scaled: it completes what it
    is offered, and at the host's usual speeds its latency is mostly waits
    for the batch deadline and the window's next batch, timers a slow host
    does not stretch (measured: latency moves with the 0.3rd power of the
    speed factor, so dividing by it adds more host noise than it removes).
    What disturbs it is the host slowing by 2x or more for some seconds:
    45 % of capacity becomes 100 %, queues form and p50 doubles.  That only
    ever adds latency, so its latency metrics are the *lowest* phase's, the
    quietest second of the run (over 20 runs of 15 phases: range 20 %
    against 90 % for the median over phases).
    """
    paced = stack.workload.paced
    p50s, p90s, p50s_wall, p90s_wall, slo, goodput, goodput_wall = [], [], [], [], [], [], []
    latencies, late_ms, retry_after, flushes = [], [], [], []
    offered_total = rejected = accepted = correct = bases = 0
    for log, served in phases:
        good = served.correct
        latency_ms = (served.completion - served.due)[good] * 1e3
        offered = sum(log.sizes)
        for q, into, into_wall in ((50, p50s, p50s_wall), (90, p90s, p90s_wall)):
            wall = percentile(latency_ms.tolist(), q)
            into_wall.append(wall)
            into.append(wall if paced else wall / log.speed)
        slo.append(int((latency_ms <= SLO_MS).sum()) / max(1, offered))
        done = int(good.sum()) / max(log.duration, log.end - log.start)
        goodput_wall.append(done)
        goodput.append(done if paced else done * log.speed)
        latencies.extend(latency_ms.tolist())
        late_ms.extend(((np.asarray(log.submitted) - np.asarray(log.due)) * 1e3).tolist())
        retry_after.extend(log.retry_after)
        flushes.extend(log.flushes)
        offered_total += offered
        rejected += log.stats.rejected
        accepted += log.stats.accepted
        correct += int(good.sum())
        bases += int(served.bases[good].sum())
    model = model_metrics(flushes)
    goodput_qps = statistics.median(goodput)
    metrics = {
        "host_kbase_per_s": goodput_qps * bases / max(1, correct) / 1e3,
        "latency_ms_p50": min(p50s) if paced else statistics.median(p50s),
        "latency_ms_p90": min(p90s) if paced else statistics.median(p90s),
        "model_mbase_per_s": model["model_mbase_per_s"],
        "model_nj_per_base": model["model_nj_per_base"],
        "serving.goodput_qps": goodput_qps,
        "serving.slo_share": statistics.median(slo),
        "serving.reject_share": rejected / max(1, offered_total),
        "serving.retry_after_ms_mean": statistics.fmean(retry_after) * 1e3 if retry_after else 0.0,
        "serving.latency_ms_p99": percentile(latencies, 99),
        "serving.latency_ms_max": max(latencies, default=0.0),
        "loadgen.late_ms_p99": percentile(late_ms, 99),
    }
    detail = {
        "phases": len(phases),
        "offered_queries": offered_total,
        "accepted_queries": accepted,
        "rejected_queries": rejected,
        "correct_queries": correct,
        "latency_ms_wall_clock": describe(latencies),
        "latency_ms_p50_phases": describe(p50s),
        "latency_ms_p50_phases_wall_clock": describe(p50s_wall),
        "latency_ms_p90_phases": describe(p90s),
        "latency_ms_p90_phases_wall_clock": describe(p90s_wall),
        "goodput_qps_phases": describe(goodput),
        "goodput_qps_phases_wall_clock": describe(goodput_wall),
        "slo_share_phases": describe(slo),
        "host_speed_factor": describe([log.speed for log, _ in phases]),
    }
    return metrics, detail


def ledger_problems(log: OpenLoopLog) -> list[str]:
    """Violations of the every-accepted-query-resolves contract."""
    stats = log.stats
    problems = []
    resolved = stats.completed + stats.failed + stats.cancelled
    if stats.accepted != resolved:
        problems.append(f"accepted {stats.accepted} != resolved {resolved}")
    if log.stranded:
        problems.append(f"{log.stranded} tickets unresolved after stop(drain=True)")
    accepted = sum(size for size, ticket in zip(log.sizes, log.tickets) if ticket is not None)
    if accepted != stats.accepted:
        problems.append(f"driver saw {accepted} accepted, service {stats.accepted}")
    return problems


# --------------------------------------------------------------------- #
# Per-layer numbers from spans
# --------------------------------------------------------------------- #

#: Spans recorded inside ``replay_flush`` and the count each one carries.
_REPLAY_STAGES = {
    "hw.scheduler": None,
    "hw.cache": "hw.cache.accesses",
    "exma.occ": "exma.occ.lookups",
    "exma.mtl": "exma.mtl.predictions",
    "hw.dram": "hw.dram.requests",
}


def layer_totals(spans, children) -> dict[str, float]:
    """Calls, busy seconds, self seconds and work counts per layer over
    *spans* (one pass, or one whole served phase)."""
    totals: dict[str, float] = defaultdict(float)
    # ``push`` calls ``flush`` when the window fills; such a flush's time
    # is already inside its push span.
    pushes = {span.id for span in spans if span.name == "engine.window.push"}
    for span in spans:
        seconds = span.seconds
        own = seconds - sum(child.seconds for child in children.get(span.id, ()))
        if span.name == "engine.search":
            totals["engine.search.calls"] += 1
            totals["engine.search.busy_s"] += seconds
            for count in ("queries", "lockstep_iterations", "requests_issued", "requests_unique"):
                totals[f"engine.search.{count}"] += span.counts[count]
        elif span.name == "engine.window.push":
            totals["engine.window.calls"] += 1
            totals["engine.window.busy_s"] += seconds
        elif span.name == "engine.window.flush":
            if span.counts:
                totals["engine.window.flushes"] += 1
                totals["engine.window.issued"] += span.counts["issued"]
                totals["engine.window.unique"] += span.counts["unique"]
            if span.parent not in pushes:
                totals["engine.window.calls"] += 1
                totals["engine.window.busy_s"] += seconds
        elif span.name == "accel.replay":
            totals["accel.replay.calls"] += 1
            totals["accel.replay.busy_s"] += seconds
            totals["accel.replay.self_s"] += own
            totals["accel.replay.requests"] += span.counts["requests"]
            totals["accel.replay.dram_requests"] += span.counts["dram_requests"]
        elif span.name in _REPLAY_STAGES:
            totals[f"{span.name}.busy_s"] += seconds
            if _REPLAY_STAGES[span.name]:
                totals[_REPLAY_STAGES[span.name]] += span.counts["items"]
        elif span.name == "serving.run_batch":
            totals["serving.batches"] += 1
            totals["serving.worker.self_s"] += own
            totals["serving.run_batch.queries"] += span.counts["queries"]
        elif span.name == "serving.submit":
            totals["serving.submit.calls"] += 1
            totals["serving.submit.busy_s"] += seconds
    return totals


def _ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    return numerator / denominator if denominator else default


def _derived(totals: dict[str, float], search_ms: list[float]) -> dict[str, float]:
    """The ratios defined on top of :func:`layer_totals`."""
    return {
        "engine.search.ms_per_call_p50": percentile(search_ms, 50) if search_ms else 0.0,
        "engine.search.us_per_query": _ratio(
            totals["engine.search.busy_s"] * 1e6, totals["engine.search.queries"]
        ),
        "engine.search.coalescing_factor": _ratio(
            totals["engine.search.requests_issued"], totals["engine.search.requests_unique"], 1.0
        ),
        "engine.window.merge_ratio": _ratio(
            totals["engine.window.issued"], totals["engine.window.unique"], 1.0
        ),
        "accel.replay.us_per_request": _ratio(
            totals["accel.replay.busy_s"] * 1e6, totals["accel.replay.requests"]
        ),
    }


def replay_accounting_gap(totals: dict[str, float]) -> float:
    """|children + self − busy| / busy of ``accel.replay`` (0 when exact)."""
    children = sum(totals[f"{name}.busy_s"] for name in _REPLAY_STAGES)
    busy = totals["accel.replay.busy_s"]
    return abs(children + totals["accel.replay.self_s"] - busy) / busy if busy else 0.0


def closed_loop_layers(log: ClosedLoopLog, tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced closed-loop run, per pass.

    Times are the median over passes of the layer's summed span seconds in
    a pass (wall clock); counts are per pass and must repeat exactly on
    every pass.
    """
    children = tracer.children()
    by_id = {span.id: span for span in tracer.spans}
    passes: dict[int, list] = {root.id: [] for root in tracer.named("pipeline.pass")}
    for span in tracer.spans:
        root = span
        while root.parent:
            root = by_id[root.parent]
        if root.id in passes and span is not root:
            passes[root.id].append(span)
    per_pass = [layer_totals(spans, children) for spans in passes.values()]
    problems = []
    totals: dict[str, float] = {}
    for key in sorted({key for one in per_pass for key in one}):
        values = [one.get(key, 0.0) for one in per_pass]
        if key.endswith("_s"):
            totals[key] = statistics.median(values)
        else:
            totals[key] = values[0]
            if any(value != values[0] for value in values):
                problems.append(f"{key} differs between passes")
    totals = defaultdict(float, totals)
    gap = max(replay_accounting_gap(defaultdict(float, one)) for one in per_pass)
    if gap > 0.01:
        problems.append(f"accel.replay children + self differ from busy by {gap:.2%}")
    search_ms = [
        span.seconds * 1e3
        for spans in passes.values()
        for span in spans
        if span.name == "engine.search"
    ]
    pass_ms = [seconds * 1e3 for seconds in log.wall_seconds]
    metrics = dict(totals)
    metrics.update(_derived(totals, search_ms))
    metrics.update(model_metrics(log.flushes))
    metrics.update(
        {
            "pipeline.passes": len(pass_ms),
            "pipeline.pass_ms_p50": percentile(pass_ms, 50),
            "pipeline.pass_ms_p90": percentile(pass_ms, 90),
            "host.speed_factor": statistics.median(log.speed),
        }
    )
    return metrics, problems


def open_loop_layers(
    log: OpenLoopLog, served: ServedQueries, tracer: Tracer
) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced open-loop phase, over the whole phase.

    Stage times per query come from outside: with one fault-free worker
    the k-th ``run_batch``/``search_batch`` span is batch ``k`` and the
    k-th ``replay_flush`` span is flush ``k``, so each query's
    due -> submit -> batch start -> search end -> replay start -> replay
    end -> completion chain is read off the spans its outcome points at.
    """
    totals = defaultdict(float, layer_totals(tracer.spans, tracer.children()))
    problems = []
    gap = replay_accounting_gap(totals)
    if gap > 0.01:
        problems.append(f"accel.replay children + self differ from busy by {gap:.2%}")

    batches = tracer.named("serving.run_batch")
    searches = tracer.named("engine.search")
    replays = tracer.named("accel.replay")
    stats = log.stats
    if not (len(batches) == len(searches) == stats.batches and len(replays) == stats.flushes):
        problems.append(
            f"spans do not map to batches/flushes: {len(batches)} run_batch, "
            f"{len(searches)} search, {len(replays)} replay vs "
            f"{stats.batches} batches, {stats.flushes} flushes"
        )
        stages = {}
    else:
        batch_start = np.array([span.start for span in batches])
        search_end = np.array([span.end for span in searches])
        replay_start = np.array([span.start for span in replays])
        replay_end = np.array([span.end for span in replays])
        done = served.correct
        batch, flush = served.batch[done], served.flush[done]
        stages = {
            "late": served.submitted[done] - served.due[done],
            "queue_wait": batch_start[batch] - served.submitted[done],
            "search": search_end[batch] - batch_start[batch],
            "window_wait": replay_start[flush] - search_end[batch],
            "replay": replay_end[flush] - replay_start[flush],
            "resolve": served.completion[done] - replay_end[flush],
        }
        total = sum(stages.values())
        latency = served.completion[done] - served.due[done]
        if total.size:
            if float(np.abs(total - latency).max()) > 0.01 * float(latency.min()):
                problems.append("stage times do not sum to completion - due within 1%")
            lowest = min(float(stage.min()) for stage in stages.values())
            if lowest < -1e-6:
                problems.append(f"a stage time is negative ({lowest * 1e3:.3f} ms)")

    def stage_ms(name: str, q: float) -> float:
        values = stages.get(name)
        if values is None or not values.size:
            return 0.0
        return percentile((values * 1e3).tolist(), q)

    submit_us = [span.seconds * 1e6 for span in tracer.named("serving.submit")]
    search_ms = [span.seconds * 1e3 for span in searches]
    worker_busy = sum(
        span.seconds
        for span in tracer.spans
        if span.parent == 0 and span.name != "serving.submit"
    )
    metrics = dict(totals)
    metrics.update(_derived(totals, search_ms))
    metrics.update(model_metrics(log.flushes))
    metrics.update(
        {
            "serving.submit.us_per_call_p50": percentile(submit_us, 50) if submit_us else 0.0,
            "serving.submit.us_per_call_p99": percentile(submit_us, 99) if submit_us else 0.0,
            "serving.queue_wait_ms_p50": stage_ms("queue_wait", 50),
            "serving.queue_wait_ms_p90": stage_ms("queue_wait", 90),
            "serving.search_ms_p50": stage_ms("search", 50),
            "serving.window_wait_ms_p50": stage_ms("window_wait", 50),
            "serving.replay_ms_p50": stage_ms("replay", 50),
            "serving.resolve_ms_p50": stage_ms("resolve", 50),
            "serving.worker.busy_share": worker_busy / (log.end - log.start),
            "serving.batch_size_mean": _ratio(
                totals["serving.run_batch.queries"], totals["serving.batches"]
            ),
            "serving.flushes": stats.flushes,
            "serving.idle_timeouts": stats.idle_timeouts,
            "serving.merge_ratio": _ratio(stats.issued_requests, stats.scheduled_requests, 1.0),
            "host.speed_factor": log.speed,
        }
    )
    del metrics["serving.run_batch.queries"]
    return metrics, problems
