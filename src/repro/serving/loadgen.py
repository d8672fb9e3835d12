"""Open-loop load generation for the serving layer.

Open-loop means the arrival process is fixed *before* the run and never
waits on the service: every submit happens at its scheduled offset
whether or not earlier queries have completed, so queueing delay shows up
as latency (and, past saturation, as backpressure rejections) instead of
silently throttling the offered load — the methodology the SPEChpc-style
sustained-throughput studies insist on, and the only way a p99 means
anything.

Three ingredients, all deterministic under a seed:

* **arrival processes** — :func:`poisson_schedule` (exponential
  inter-arrival gaps at a constant rate) and :func:`bursty_schedule`
  (on/off-modulated Poisson: the same *mean* rate compressed into on-
  windows of each period, so bursts hit the admission queue at
  ``1/on_fraction`` times the nominal rate);
* **key skew** — :func:`zipfian_picks` draws query-pool ranks with
  ``P(rank r) ∝ 1/r^s``, the classic production-traffic skew (a handful
  of hot queries dominate), which is exactly what the cross-batch
  coalescing window monetises;
* **the driver** — :func:`run_open_loop` walks a schedule against a
  running :class:`~repro.serving.service.QueryService`, counts
  rejections without retrying (open loop), and gathers every accepted
  ticket at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .service import AdmissionRejected, QueryService, Ticket

__all__ = [
    "Arrival",
    "OpenLoopResult",
    "bursty_schedule",
    "make_schedule",
    "poisson_schedule",
    "rate_ladder",
    "run_open_loop",
    "sample_query_pool",
    "zipfian_picks",
]


def rate_ladder(base_rate: float, multipliers: Sequence[float]) -> list[float]:
    """The offered-load ladder of a saturation sweep: ``base_rate`` scaled
    by each multiplier, ascending.

    A *multiplicative* ladder (1, 2, 4, ... × the base rate) is how the
    sustained-throughput studies walk to the knee: each rung doubles the
    pressure, so the sweep brackets the saturation point in a handful of
    runs where a linear ladder would need dozens — and the knee reads off
    as the last rung the service absorbs without rejecting.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be > 0")
    if not multipliers:
        raise ValueError("at least one multiplier is required")
    if any(multiplier <= 0 for multiplier in multipliers):
        raise ValueError("multipliers must be > 0")
    return sorted(base_rate * multiplier for multiplier in multipliers)


@dataclass(frozen=True)
class Arrival:
    """One scheduled client submit: *queries* for *tenant* at *offset*."""

    offset: float
    tenant: str
    queries: tuple[str, ...]


def poisson_schedule(rate: float, duration: float, seed: int = 0) -> list[float]:
    """Poisson arrival offsets in ``[0, duration)`` at *rate* arrivals/s."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if duration <= 0:
        raise ValueError("duration must be > 0")
    rng = np.random.default_rng(seed)
    # Draw enough exponential gaps in one shot, then trim to the horizon.
    expected = max(8, int(rate * duration * 2))
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets.size and offsets[-1] < duration:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + offsets[-1]
        offsets = np.concatenate([offsets, extra])
    return offsets[offsets < duration].tolist()


def bursty_schedule(
    rate: float,
    duration: float,
    seed: int = 0,
    period: float = 0.2,
    on_fraction: float = 0.25,
) -> list[float]:
    """On/off bursty arrivals with mean *rate* arrivals/s.

    Each *period* opens with an on-window of ``period * on_fraction``
    seconds during which arrivals are Poisson at ``rate / on_fraction``
    (so the long-run mean stays *rate*), followed by silence — the
    admission queue sees ``1/on_fraction``× overload at the front of
    every period, which is what exercises backpressure and tail latency.
    """
    if not 0.0 < on_fraction <= 1.0:
        raise ValueError("on_fraction must be in (0, 1]")
    if period <= 0:
        raise ValueError("period must be > 0")
    offsets: list[float] = []
    start = 0.0
    seed_step = 0
    while start < duration:
        on_seconds = min(period * on_fraction, duration - start)
        burst = poisson_schedule(rate / on_fraction, on_seconds, seed=seed + seed_step)
        offsets.extend(start + offset for offset in burst)
        start += period
        seed_step += 1
    return offsets


def zipfian_picks(count: int, pool_size: int, s: float = 1.1, seed: int = 0) -> np.ndarray:
    """*count* pool indices drawn with ``P(rank r) ∝ 1/r^s`` (0-based)."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(pool_size, size=count, p=weights)


def sample_query_pool(
    reference: str, pool_size: int, length: int, seed: int = 0
) -> list[str]:
    """A pool of *pool_size* reference substrings to draw skewed traffic from."""
    if len(reference) <= length:
        raise ValueError("reference shorter than the query length")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(reference) - length, size=pool_size)
    return [reference[start : start + length] for start in starts.tolist()]


def make_schedule(
    offsets: Sequence[float],
    pool: Sequence[str],
    tenants: int = 1,
    queries_per_arrival: int = 4,
    zipf_s: float = 1.1,
    seed: int = 0,
) -> list[Arrival]:
    """Assemble arrivals: Zipf-skewed pool picks, tenants round-robin.

    Tenants take turns in arrival order, so every tenant offers the same
    share of the load — what the fairness test of the batcher expects.
    """
    picks = zipfian_picks(
        max(1, len(offsets)) * queries_per_arrival, len(pool), s=zipf_s, seed=seed
    )
    arrivals = []
    for index, offset in enumerate(offsets):
        chosen = picks[index * queries_per_arrival : (index + 1) * queries_per_arrival]
        arrivals.append(
            Arrival(
                offset=float(offset),
                tenant=f"tenant-{index % max(1, tenants)}",
                queries=tuple(pool[pick] for pick in chosen.tolist()),
            )
        )
    return arrivals


@dataclass
class OpenLoopResult:
    """What one open-loop run offered and what came back."""

    #: Queries offered / admitted / bounced by backpressure.
    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    #: Tickets of the accepted groups, in submission order.
    tickets: list[Ticket] = field(default_factory=list)
    #: ``retry_after`` hints collected from rejections.
    retry_afters: list[float] = field(default_factory=list)
    #: Wall-clock seconds from first submit to all tickets resolved.
    wall_seconds: float = 0.0


def run_open_loop(
    service: QueryService,
    schedule: Sequence[Arrival],
    result_timeout: float = 60.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Drive *service* with *schedule*, open-loop, and gather every ticket.

    Submits never wait on completions; a rejected submit is recorded (with
    its ``retry_after``) and the driver moves on to the next arrival.
    Returns once every accepted ticket has resolved.

    Raises:
        TimeoutError: an accepted ticket did not resolve within
            *result_timeout* — the service wedged, which the caller should
            treat as a failed run rather than report fabricated latencies.
    """
    result = OpenLoopResult()
    start = clock()
    for arrival in schedule:
        delay = start + arrival.offset - clock()
        if delay > 0:
            sleep(delay)
        result.offered += len(arrival.queries)
        try:
            result.tickets.append(service.submit(arrival.queries, tenant=arrival.tenant))
            result.accepted += len(arrival.queries)
        except AdmissionRejected as rejection:
            result.rejected += len(arrival.queries)
            result.retry_afters.append(rejection.retry_after)
    deadline = clock() + result_timeout
    for ticket in result.tickets:
        if not ticket.wait(max(0.0, deadline - clock())):
            raise TimeoutError("accepted ticket did not resolve within result_timeout")
    result.wall_seconds = clock() - start
    return result
