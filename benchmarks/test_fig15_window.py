"""Benchmark: Fig. 15 — coalescing-window sweep + shard scaling record."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    fig15_window,
    format_fig15,
    format_shard_scaling,
    run_fig15_window,
    run_shard_scaling,
    write_record,
)
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


def test_fig15_sweep_identical_under_sharded_engine(report):
    """Strong-scaling check: the sharded engine feeds the window stage the
    exact same per-batch streams, so every sweep row matches serial."""
    serial = run_fig15_window(genome_length=12_000, seed=0, batch_count=4, batch_size=32)
    sharded = run_fig15_window(
        genome_length=12_000, seed=0, batch_count=4, batch_size=32, shards=4
    )
    assert [
        (r.window, r.pre_merge_requests, r.post_merge_requests, r.scheduled_batches)
        for r in serial.rows
    ] == [
        (r.window, r.pre_merge_requests, r.post_merge_requests, r.scheduled_batches)
        for r in sharded.rows
    ]


def test_shard_scaling_recorded(report):
    """Record sharded-vs-serial wall clock (no speedup assertion for the
    forced rows: wall-clock wins additionally need hardware parallelism,
    which CI containers may not have; equivalence is asserted elsewhere)."""
    result = run_shard_scaling(
        genome_length=20_000,
        seed=0,
        shard_counts=(1, 2, 4),
        batch_size=256,
        repeats=3,
        include_forced=True,
    )
    rows = result.rows
    report.append("")
    report.append(format_shard_scaling(result))
    assert all(row.seconds > 0 for row in rows)
    assert {row.executor for row in rows} == {"serial", "thread", "process"}
    assert {row.forced for row in rows} == {False, True}
    # The adaptive engine clamps to the hardware; the forced rows always
    # run the full requested split.
    from repro.runtime import available_parallelism

    for row in rows:
        if row.forced:
            assert row.effective_shards == row.shards
        elif row.executor != "serial":
            assert row.effective_shards == min(row.shards, available_parallelism())


def test_shard_scaling_json_record(tmp_path, report):
    """The shard-scaling record round-trips through the one writer with
    the workload, the host block and one entry per row."""
    result = run_shard_scaling(
        genome_length=12_000, seed=0, shard_counts=(1, 2), batch_size=64, repeats=1
    )
    rows = result.rows
    path = tmp_path / "shard_scaling.json"
    record = write_record(str(path), fig15_window.record(result))
    loaded = json.loads(path.read_text())
    assert loaded == record
    assert loaded["benchmark"] == "shard_scaling"
    assert loaded["workload"] == {
        "genome_length": 12_000, "batch_size": 64, "query_length": 48, "seed": 0, "repeats": 1
    }
    assert loaded["host"]["host_cpus"] == os.cpu_count()
    assert loaded["host"]["available_cpus"] >= 1
    assert len(loaded["rows"]) == len(rows)
    for entry, row in zip(loaded["rows"], rows):
        assert entry["shards"] == row.shards
        assert entry["executor"] == row.executor
        assert entry["speedup"] == pytest.approx(row.speedup, abs=5e-3)
