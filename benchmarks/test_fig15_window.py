"""Benchmark: Fig. 15 — coalescing-window sweep + the host-scaling record."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import format_fig15, run_fig15_window, scaling, write_record
from repro.testing import run_once


def test_fig15_window_sweep(benchmark, report):
    result = run_once(
        benchmark,
        run_fig15_window,
        genome_length=20_000,
        seed=0,
        windows=(1, 2, 4, 8),
        batch_count=8,
        batch_size=64,
    )
    report.append("")
    report.append(format_fig15(result))
    report.append("paper: Fig. 15 merge ratio grows with the scheduling window")
    posts = [row.post_merge_requests for row in result.rows]
    # Power-of-two windows align, so every 2W-window is the union of two
    # W-windows: the post-merge count must be monotone non-increasing.
    assert posts == sorted(posts, reverse=True)
    for row in result.rows:
        assert row.post_merge_requests <= row.pre_merge_requests
        assert row.merge_ratio >= 1.0
    # A wider window can only help: the widest sweep point must strictly
    # merge something on this workload (consecutive read batches share
    # k-mer working sets).
    assert posts[-1] < result.rows[0].pre_merge_requests


def test_scaling_recorded(report):
    """Record each parallel layer against its serial run (no speedup
    assertion: wall-clock wins additionally need hardware parallelism,
    which CI containers may not have; the multicore CI leg holds the
    floors).  Every point is a forced split, and equals serial."""
    result = scaling.run_scaling(genome_length=20_000, seed=0, batch_size=256, repeats=3)
    rows = result.rows
    report.append("")
    report.append(scaling.format_scaling(result))
    assert all(row.seconds > 0 and row.serial_seconds > 0 for row in rows)
    assert all(row.results_equal for row in rows)
    assert [(row.layer, row.executor, row.workers) for row in rows] == [
        (layer, executor, workers)
        for layer in ("search", "replay")
        for executor in ("thread", "process")
        for workers in (2, 4)
    ]
    assert result.replay_epochs == 16


def test_scaling_json_record(tmp_path, report):
    """The scaling record round-trips through the one writer with the
    workload, the host block and one entry per point."""
    result = scaling.run_scaling(
        genome_length=12_000, seed=0, batch_size=64, repeats=1, workers=(2,), executor="thread"
    )
    rows = result.rows
    path = tmp_path / "scaling.json"
    record = write_record(str(path), scaling.record(result))
    loaded = json.loads(path.read_text())
    assert loaded == record
    assert loaded["benchmark"] == "scaling"
    assert loaded["workload"] == {
        "genome_length": 12_000, "seed": 0, "batch_size": 64, "query_length": 48,
        "repeats": 1, "replay_epochs": 16,
    }
    assert loaded["host"]["host_cpus"] == os.cpu_count()
    assert loaded["host"]["available_cpus"] >= 1
    assert len(loaded["rows"]) == len(rows) == 2
    for entry, row in zip(loaded["rows"], rows):
        assert entry["layer"] == row.layer
        assert entry["workers"] == row.workers
        assert entry["executor"] == row.executor
        assert entry["speedup"] == pytest.approx(row.speedup, abs=5e-3)
