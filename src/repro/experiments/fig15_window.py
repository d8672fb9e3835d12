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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..engine.window import CoalescingWindow
from .common import DEFAULT_STEP, batch_streams, build_stack

__all__ = ["Fig15Result", "Fig15Row", "format_fig15", "run_fig15_window"]


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
