"""Outside-in tracing: spans around the public callable at each layer boundary.

Nothing under ``src/`` is edited.  While a :class:`Tracer` is installed the
callables below are replaced by thin wrappers that record one span per call
(name, start, end, parent, thread) plus the work counts visible in the
call's arguments and result, and are restored afterwards:

    serving.submit      QueryService.submit
    serving.run_batch   BatcherWorker.run_batch
    engine.search       QueryEngine.search_batch
    engine.window.push  CoalescingWindow.push
    engine.window.flush CoalescingWindow.flush
    accel.replay        ExmaAccelerator.replay_flush
    hw.scheduler        scheduled_orders, keep_open_flags   (names bound in
    hw.cache            simulate_lru_hits                    repro.accel.exma_accelerator)
    exma.occ            ExmaTable.occ_batch
    exma.mtl            MTLIndex.predict_many
    hw.dram             DRAMModel.process_columns

A span's parent is the span open on the same thread when it started, so a
layer's self time is its duration minus its children's.  Spans stay in
memory (one tuple each) and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Span", "Tracer"]

clock = time.perf_counter


class Span:
    """One recorded call: ``[start, end)`` on *thread*, caused by *parent*."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "counts")

    def __init__(self, id: int, name: str, start: float, parent: int, thread: str) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        #: Work counts read off the call's arguments/result at the boundary.
        self.counts: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _search_counts(args, result) -> dict:
    stats = result.stats
    return {
        "queries": stats.queries,
        "lockstep_iterations": stats.lockstep_iterations,
        "requests_issued": stats.occ_requests_issued,
        "requests_unique": stats.occ_requests_unique,
    }


def _flush_counts(args, result) -> dict:
    if result is None:
        return {}
    return {"issued": result.issued, "unique": result.unique}


def _replay_counts(args, result) -> dict:
    return {"requests": result.requests, "dram_requests": result.dram_requests}


def _first_array_size(index: int):
    return lambda args, result: {"items": int(args[index].size)}


class Tracer:
    """Records spans while installed; summaries are computed afterwards."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            next(self._ids),
            name,
            clock(),
            stack[-1].id if stack else 0,
            threading.current_thread().name,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._local.stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per offline pass)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, owner, attr: str, name: str, counts=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result
            finally:
                self._close(span)

        traced.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Replace the boundary callables by recording wrappers."""
        from repro.accel import exma_accelerator as accel_module
        from repro.accel.exma_accelerator import ExmaAccelerator
        from repro.engine.engine import QueryEngine
        from repro.engine.window import CoalescingWindow
        from repro.exma.mtl_index import MTLIndex
        from repro.exma.table import ExmaTable
        from repro.hw.dram import DRAMModel
        from repro.serving.service import QueryService
        from repro.serving.workers import BatcherWorker

        wrap = self._wrap
        wrap(QueryService, "submit", "serving.submit")
        wrap(
            BatcherWorker,
            "run_batch",
            "serving.run_batch",
            lambda args, result: {"queries": len(args[1])},
        )
        wrap(QueryEngine, "search_batch", "engine.search", _search_counts)
        wrap(CoalescingWindow, "push", "engine.window.push")
        wrap(CoalescingWindow, "flush", "engine.window.flush", _flush_counts)
        wrap(ExmaAccelerator, "replay_flush", "accel.replay", _replay_counts)
        wrap(accel_module, "scheduled_orders", "hw.scheduler")
        wrap(accel_module, "keep_open_flags", "hw.scheduler")
        wrap(accel_module, "simulate_lru_hits", "hw.cache", _first_array_size(0))
        wrap(ExmaTable, "occ_batch", "exma.occ", _first_array_size(1))
        wrap(MTLIndex, "predict_many", "exma.mtl", _first_array_size(1))
        wrap(
            DRAMModel,
            "process_columns",
            "hw.dram",
            lambda args, result: {"items": len(args[1])},
        )

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def named(self, name: str) -> list[Span]:
        """Spans called *name*, in start order."""
        return sorted(
            (span for span in self.spans if span.name == name), key=lambda s: s.start
        )

    def children(self) -> dict[int, list[Span]]:
        """Spans grouped by the id of the span that caused them."""
        grouped: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.parent].append(span)
        return grouped

    def write(self, path, **header) -> None:
        """Dump every span (times relative to the first) as one JSON file."""
        origin = min((span.start for span in self.spans), default=0.0)
        spans = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["id", "name", "start_s", "end_s", "parent", "thread", "counts"],
                    "spans": [
                        [
                            span.id,
                            span.name,
                            round(span.start - origin, 7),
                            round(span.end - origin, 7),
                            span.parent,
                            span.thread,
                            span.counts,
                        ]
                        for span in spans
                    ],
                },
                handle,
            )
