#!/usr/bin/env python
"""One runner for every recorded-benchmark CI gate.

The five ad-hoc ``check_*.py`` scripts this consolidates each loaded a
JSON record, printed its rows and failed on broken invariants; the only
thing that differed was the invariant list.  Here every gate is a
registration — a function plus a default record path — sharing the
loading/printing/failure plumbing, so a CI leg calls one entrypoint and
a new benchmark gate is ~one function, not a new script.

Gate specs take the form ``NAME[=RECORD][:OPT[=VALUE]...]``::

    ci_gates.py --gate window=bench_smoke_window_capacity.json
    ci_gates.py --gate serving=B.json:min-mbase=0.01:require-worker-scaling
    ci_gates.py --gate replay-scaling=B.json:require-speedup:min-speedup=1.0

Bare comma-separated names run against each gate's committed default
record (``--gate replay,serving,dse``).  ``--list`` prints the registry.

Every record is the one envelope ``repro.experiments.record`` writes;
:func:`load_record` refuses anything else, so each gate is also the
schema gate.  ``bench-diff`` compares the ``headlines`` the writer
declared — this script knows no benchmark's row shape for that.

Exit codes: 0 when every requested gate holds, 1 on any violation, 2 on
malformed input (unknown gate, unreadable or envelope-less record, bad
option).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

#: Arrival processes every serving record must carry.
REQUIRED_ARRIVALS = ("poisson", "bursty")

#: Largest tolerated relative cycle increase within the window sweep.
CYCLE_SLACK = 0.02

#: What every record must carry (the ``repro.experiments.record`` envelope).
ENVELOPE_KEYS = ("benchmark", "host", "workload", "headlines")

#: Largest tolerated relative drop of a committed numeric headline in
#: ``bench-diff`` (wall-clock numbers re-recorded on another host move;
#: a one-third collapse is a regression, not noise).
DIFF_TOLERANCE = 0.30


class GateInputError(Exception):
    """Malformed record or options — exit 2, not a gate violation."""


@dataclass
class GateRun:
    """Shared context of one gate invocation: output plus its verdict."""

    gate: str
    record_path: "str | None"
    options: dict
    failures: list = field(default_factory=list)

    def emit(self, line: str) -> None:
        print(line)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def ok(self, message: str) -> None:
        if not self.failures:
            print(f"OK [{self.gate}]: {message}")

    # ---------------- option parsing helpers ---------------- #

    def flag(self, name: str) -> bool:
        return name in self.options

    def number(self, name: str, default: float) -> float:
        value = self.options.get(name)
        if value in (None, ""):
            return default
        try:
            return float(value)
        except ValueError:
            raise GateInputError(f"option {name!r} needs a number, got {value!r}")

    def text(self, name: str, default: "str | None" = None) -> "str | None":
        value = self.options.get(name)
        return default if value in (None, "") else value


def load_record(path: "str | None") -> dict:
    """Load a benchmark record, mapping any I/O, JSON or envelope error
    (a record that does not say which benchmark, host and workload
    produced it, or declares no headlines) to exit 2."""
    if not path:
        raise GateInputError("this gate needs a record path (NAME=RECORD)")
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as error:
        raise GateInputError(f"cannot read {path}: {error}") from None
    if not isinstance(record, dict):
        raise GateInputError(f"{path}: expected a JSON object record")
    missing = [key for key in ENVELOPE_KEYS if key not in record]
    if missing:
        raise GateInputError(f"{path}: not a benchmark record, missing {missing}")
    return record


def require_rows(record: dict, key: str, what: str) -> list:
    rows = record.get(key, [])
    if not rows:
        raise GateInputError(f"no {what} recorded")
    return rows


def _finite_positive(value) -> bool:
    return value is not None and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Gate:
    """One registered gate: the check plus its committed default record."""

    name: str
    run: Callable[[GateRun], None]
    default_record: "str | None"
    description: str


GATES: "dict[str, Gate]" = {}

#: Short names accepted in ``--gate`` specs for convenience.
ALIASES = {"replay": "accel-replay", "scaling": "replay-scaling"}


def register(name: str, default_record: "str | None", description: str):
    def wrap(fn: Callable[[GateRun], None]):
        GATES[name] = Gate(name, fn, default_record, description)
        return fn

    return wrap


# --------------------------------------------------------------------- #
# The gates
# --------------------------------------------------------------------- #


@register(
    "accel-replay",
    "BENCH_accel_replay.json",
    "columnar replay equals the object reference and clears min-speedup "
    "(options: min-speedup=2.0)",
)
def gate_accel_replay(run: GateRun) -> None:
    record = load_record(run.record_path)
    min_speedup = run.number("min-speedup", 2.0)
    rows = require_rows(record, "rows", "replay rows")
    for row in rows:
        label = row.get("label", "?")
        speedup = row.get("speedup", 0.0)
        run.emit(
            f"{label:>9s}  requests={row.get('requests', 0):>8d}  "
            f"object={row.get('object_seconds', 0.0):8.3f}s  "
            f"columnar={row.get('columnar_seconds', 0.0):8.4f}s  "
            f"{speedup:6.1f}x"
        )
        if not row.get("results_equal", False):
            run.fail(f"row {label!r}: columnar replay diverged from the object reference")
        if speedup < min_speedup:
            run.fail(
                f"row {label!r}: speedup {speedup:.2f}x below the {min_speedup:.1f}x gate"
            )
    run.ok(
        f"columnar replay matches the object reference on every row "
        f"and clears {min_speedup:.1f}x"
    )


@register(
    "replay-scaling",
    "BENCH_accel_replay.json",
    "epoch-parallel sweep matches the serial order "
    "(options: require-speedup, min-speedup=1.0)",
)
def gate_replay_scaling(run: GateRun) -> None:
    record = load_record(run.record_path)
    require_speedup = run.flag("require-speedup")
    min_speedup = run.number("min-speedup", 1.0)
    host = record["host"]
    for key in ("host_cpus", "available_cpus"):
        if not isinstance(host.get(key), int) or host[key] < 1:
            run.fail(f"record's host block is missing a positive {key!r}")
    scaling = record.get("replay_scaling")
    rows = scaling.get("rows", []) if isinstance(scaling, dict) else []
    if not rows:
        raise GateInputError("no replay_scaling rows recorded")

    widest: dict = {}
    for row in rows:
        label = row.get("label", "?")
        workers = row.get("replay_workers", 0)
        run.emit(
            f"{label:>9s}  workers={workers:>2d} ({row.get('executor', '?')})  "
            f"serial={row.get('serial_seconds', 0.0):8.4f}s  "
            f"parallel={row.get('seconds', 0.0):8.4f}s  "
            f"{row.get('speedup', 0.0):5.2f}x  "
            f"pipeline {row.get('pipeline_speedup', 0.0):5.2f}x"
        )
        if not row.get("results_equal", False):
            run.fail(
                f"row {label!r} @ {workers} workers: parallel replay "
                "diverged from the serial epoch order"
            )
        best = widest.get(label)
        if best is None or workers > best.get("replay_workers", 0):
            widest[label] = row

    if require_speedup:
        for label, row in sorted(widest.items()):
            workers = row.get("replay_workers", 0)
            if workers < 2:
                run.fail(
                    f"row {label!r}: require-speedup needs a multi-worker "
                    f"sweep point (widest recorded: {workers})"
                )
                continue
            speedup = row.get("speedup", 0.0)
            if speedup <= min_speedup:
                run.fail(
                    f"row {label!r} @ {workers} workers: speedup "
                    f"{speedup:.2f}x does not beat the {min_speedup:.2f}x gate"
                )
    verdict = "every sweep row matches the serial epoch order"
    if require_speedup:
        verdict += f" and the widest sweep beats {min_speedup:.2f}x"
    run.ok(
        f"{verdict} (host_cpus={host.get('host_cpus')}, "
        f"available_cpus={host.get('available_cpus')})"
    )


@register(
    "window",
    "BENCH_window_capacity.json",
    "W=1 equals the unwindowed path; requests/cycles trend holds with W",
)
def gate_window(run: GateRun) -> None:
    record = load_record(run.record_path)
    rows = sorted(require_rows(record, "rows", "sweep rows"), key=lambda row: row["window"])
    for row in rows:
        run.emit(
            f"W={row['window']:>2d}  post={row['post_merge_requests']:>8d}  "
            f"cycles={row['total_cycles']:>10d}  {row['mbase_per_second']:9.2f} Mbase/s"
        )
    if not record.get("w1_matches_unwindowed", False):
        run.fail("W=1 flushes diverged from the unwindowed per-batch path")
    unwindowed = record.get("unwindowed", {})
    if rows[0]["window"] == 1 and unwindowed:
        for key in ("post_merge_requests", "total_cycles", "dram_requests"):
            if rows[0].get(key) != unwindowed.get(key):
                run.fail(
                    f"W=1 row {key}={rows[0].get(key)} != unwindowed {unwindowed.get(key)}"
                )
    posts = [row["post_merge_requests"] for row in rows]
    if posts != sorted(posts, reverse=True):
        run.fail(f"post_merge_requests not monotone non-increasing in W: {posts}")
    cycles = [row["total_cycles"] for row in rows]
    for previous, current in zip(cycles, cycles[1:]):
        if current > previous * (1 + CYCLE_SLACK):
            run.fail(
                f"total_cycles rose by more than {CYCLE_SLACK:.0%} within the sweep: "
                f"{cycles}"
            )
            break
    if len(cycles) > 1 and cycles[-1] >= cycles[0]:
        run.fail(
            f"widest window did not reduce cycles: W={rows[-1]['window']} has "
            f"{cycles[-1]} vs W={rows[0]['window']}'s {cycles[0]}"
        )
    run.ok("W=1 matches the unwindowed path and the sweep trend holds")


@register(
    "shard-speedup",
    None,
    "a forced thread-shard split beats serial wall-clock on a multicore host "
    "(no committed record: pass shard-speedup=RECORD, as the multicore CI leg does)",
)
def gate_shard_speedup(run: GateRun) -> None:
    record = load_record(run.record_path)
    cpus = record["host"].get("available_cpus") or record["host"].get("host_cpus") or 1
    rows = [
        row
        for row in record.get("rows", [])
        if row.get("forced") and row.get("executor") == "thread"
    ]
    if not rows:
        raise GateInputError("no forced thread rows recorded — run with include_forced")
    for row in rows:
        run.emit(
            f"forced thread shards={row['shards']:>2d} "
            f"{row['ms']:9.2f} ms  speedup {row['speedup']:.3f}x"
        )
    if cpus < 2:
        run.ok(
            f"only {cpus} CPU available: a forced split cannot win wall-clock "
            "here; skipping the speedup assertion (recorded for the trajectory)"
        )
        return
    # Only splits the hardware can actually parallelise are held to the bar.
    eligible = [row for row in rows if row["shards"] <= cpus] or rows
    best = max(eligible, key=lambda row: row["speedup"])
    if best["speedup"] > 1.0:
        run.ok(
            f"forced {best['shards']}-thread split is {best['speedup']:.3f}x "
            f"serial on {cpus} CPUs"
        )
        return
    run.fail(
        f"best forced thread split ({best['shards']} shards) reached only "
        f"{best['speedup']:.3f}x serial on {cpus} CPUs — the sharded path "
        "regressed past its split overhead"
    )


@register(
    "serving",
    "BENCH_serving.json",
    "serving sustained load with finite tails and coherent backpressure "
    "(options: min-mbase=0.001, require-worker-scaling)",
)
def gate_serving(run: GateRun) -> None:
    record = load_record(run.record_path)
    floor = run.number("min-mbase", 0.001)
    require_worker_scaling = run.flag("require-worker-scaling")
    rows = require_rows(record, "rows", "serving rows")

    seen = {(row.get("arrival"), row.get("workers", 1)) for row in rows}
    for workers in sorted({workers for _, workers in seen}):
        for arrival in REQUIRED_ARRIVALS:
            if (arrival, workers) not in seen:
                run.fail(f"workers={workers}: missing required arrival process {arrival!r}")
    for row in rows:
        label = f"{row.get('arrival')} x{row.get('workers', 1)}"
        run.emit(
            f"{label:>12s}  accepted={row.get('accepted', 0):>6d}  "
            f"rejected={row.get('rejected', 0):>5d}  "
            f"sustained={row.get('mbase_per_second', float('nan')):8.4f} Mbase/s  "
            f"p50={row.get('p50_ms', float('nan')):7.2f} ms  "
            f"p99={row.get('p99_ms', float('nan')):7.2f} ms"
        )
        if row.get("accepted", 0) <= 0:
            run.fail(f"{label}: no queries accepted")
            continue
        if row.get("completed", 0) != row.get("accepted", 0):
            run.fail(
                f"{label}: completed {row.get('completed')} != accepted "
                f"{row.get('accepted')} (service dropped admitted work)"
            )
        for key in ("p50_ms", "p99_ms", "max_ms"):
            if not _finite_positive(row.get(key)):
                run.fail(f"{label}: {key}={row.get(key)!r} is not finite and positive")
        sustained = row.get("mbase_per_second")
        if sustained is None or not math.isfinite(sustained) or sustained < floor:
            run.fail(
                f"{label}: sustained throughput {sustained!r} Mbase/s below the "
                f"{floor} floor"
            )
        if row.get("rejected", 0) > row.get("submitted", 0):
            run.fail(
                f"{label}: rejected {row.get('rejected')} exceeds submitted "
                f"{row.get('submitted')}"
            )
        if row.get("rejected", 0) > 0 and row.get("mean_retry_after_s", 0.0) <= 0:
            run.fail(f"{label}: rejections recorded without a positive retry_after hint")

    sweep = record.get("sweep")
    if sweep is not None:
        _check_serving_sweep(run, sweep, require_worker_scaling)
    elif require_worker_scaling:
        run.fail("require-worker-scaling set but the record has no sweep")
    run.ok("serving sustained the load with finite tails and coherent backpressure")


def _check_serving_sweep(run: GateRun, sweep: dict, require_worker_scaling: bool) -> None:
    """The saturation-sweep invariants (knee reached, coherent rungs)."""
    curves = sweep.get("curves", [])
    if not curves:
        run.fail("sweep recorded with no curves")
        return
    knees: dict = {}
    for curve in curves:
        arrival = curve.get("arrival")
        workers = curve.get("workers", 1)
        label = f"sweep {arrival} x{workers}"
        rungs = curve.get("rungs", [])
        if not rungs:
            run.fail(f"{label}: no rungs recorded")
            continue
        knee_index = curve.get("knee_index", 0)
        if not 0 <= knee_index < len(rungs):
            run.fail(f"{label}: knee_index {knee_index} out of range")
            continue
        knee = rungs[knee_index]
        knees[(arrival, workers)] = knee.get("mbase_per_second", float("nan"))
        run.emit(
            f"{label:>20s}  knee={knee.get('offered_qps', float('nan')):8.0f} qps  "
            f"sustained={knee.get('mbase_per_second', float('nan')):8.4f} Mbase/s  "
            f"top-rung rejected={rungs[-1].get('rejected', 0)}"
        )
        if rungs[-1].get("rejected", 0) <= 0:
            run.fail(
                f"{label}: top rung never rejected — the ladder did not reach "
                "saturation, so the knee is unproven (raise the multipliers or "
                "tighten the sweep queue capacity)"
            )
        if not _finite_positive(knee.get("mbase_per_second")):
            run.fail(
                f"{label}: knee sustained throughput "
                f"{knee.get('mbase_per_second')!r} is not finite and positive"
            )
        for key in ("p50_ms", "p99_ms"):
            if not _finite_positive(knee.get(key)):
                run.fail(f"{label}: knee {key}={knee.get(key)!r} is not finite and positive")
        for rung in rungs:
            rung_label = f"{label} @ {rung.get('offered_qps', float('nan')):.0f} qps"
            if rung.get("completed", 0) != rung.get("accepted", 0):
                run.fail(
                    f"{rung_label}: completed {rung.get('completed')} != accepted "
                    f"{rung.get('accepted')}"
                )
            if rung.get("rejected", 0) > rung.get("submitted", 0):
                run.fail(
                    f"{rung_label}: rejected {rung.get('rejected')} exceeds "
                    f"submitted {rung.get('submitted')}"
                )
            if rung.get("rejected", 0) > 0 and rung.get("mean_retry_after_s", 0.0) <= 0:
                run.fail(f"{rung_label}: rejections without a positive retry_after hint")

    if require_worker_scaling:
        for arrival in REQUIRED_ARRIVALS:
            one = knees.get((arrival, 1))
            two = knees.get((arrival, 2))
            if one is None or two is None:
                run.fail(
                    f"sweep {arrival}: require-worker-scaling needs both the "
                    "workers=1 and workers=2 curves"
                )
                continue
            if not (math.isfinite(one) and math.isfinite(two) and two > one):
                run.fail(
                    f"sweep {arrival}: workers=2 knee sustained {two!r} Mbase/s "
                    f"is not strictly above workers=1 ({one!r}) — the worker "
                    "pool did not scale the saturation point"
                )


def _pareto_indices(vectors: "list[tuple]") -> "list[int]":
    """Non-dominated indices, every objective maximised (ties never
    dominate) — mirrors ``repro.accel.configspace.pareto_frontier`` so
    the gate recomputes membership without importing the package."""
    frontier = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if j == i or other == candidate:
                continue
            if all(o >= c for o, c in zip(other, candidate)):
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    return frontier


@register(
    "dse",
    "BENCH_dse.json",
    "DSE record: baseline equals run, frontier non-empty/dominant/re-derivable, "
    ">= 2 swept knobs",
)
def gate_dse(run: GateRun) -> None:
    record = load_record(run.record_path)
    rows = require_rows(record, "rows", "design-point rows")
    frontier = record.get("frontier", [])

    grid = record.get("grid") or {}
    swept = [axis for axis, values in grid.items() if len(values) >= 2]
    run.emit(
        f"grid: {len(grid)} axes, swept {swept} -> {len(rows)} rows, "
        f"{len(frontier)} on the frontier"
    )
    if len(swept) < 2:
        run.fail(
            f"the sweep must move at least two knobs (>= 2 values each); "
            f"swept axes: {swept}"
        )

    baseline = record.get("baseline", {})
    if not baseline.get("matches_run", False):
        run.fail("baseline design point diverged from ExmaAccelerator.run")
    baseline_rows = [row for row in rows if row.get("baseline")]
    if len(baseline_rows) != 1:
        run.fail(f"expected exactly one baseline row, found {len(baseline_rows)}")
    elif baseline.get("label") and baseline_rows[0].get("label") != baseline["label"]:
        run.fail(
            f"baseline row label {baseline_rows[0].get('label')!r} != "
            f"recorded baseline {baseline['label']!r}"
        )

    labels = [row.get("label") for row in rows]
    if len(set(labels)) != len(labels):
        run.fail("duplicate design-point labels in the record")
    by_label = {row.get("label"): row for row in rows}
    for row in rows:
        marker = "*" if row.get("on_frontier") else " "
        run.emit(
            f" {marker} {row.get('label', '?'):>36s}  "
            f"{row.get('mbase_per_second', float('nan')):9.2f} Mbase/s  "
            f"{row.get('energy_per_base_nj', float('nan')):8.3f} nJ/base  "
            f"{row.get('area_mm2', float('nan')):7.3f} mm2"
        )
        for key in ("mbase_per_second", "energy_per_base_nj", "area_mm2"):
            if not _finite_positive(row.get(key)):
                run.fail(f"row {row.get('label')!r}: {key}={row.get(key)!r} is not "
                         "finite and positive")

    if not frontier:
        run.fail("empty Pareto frontier")
    for point in frontier:
        label = point.get("label")
        if label not in by_label:
            run.fail(f"frontier point {label!r} has no matching row")
            continue
        if not point.get("rederived_equal", False):
            run.fail(f"frontier point {label!r} did not re-derive bit-identically")
        row = by_label[label]
        for key in ("mbase_per_second", "energy_per_base_nj", "area_mm2"):
            if point.get(key) != row.get(key):
                run.fail(
                    f"frontier point {label!r}: {key} {point.get(key)!r} != "
                    f"row value {row.get(key)!r}"
                )

    # Pareto dominance recomputed from the recorded rows alone: the
    # stored membership (frontier list and per-row flags) must match.
    vectors = [
        (
            row.get("mbase_per_second", float("nan")),
            -row.get("energy_per_base_nj", float("nan")),
            -row.get("area_mm2", float("nan")),
        )
        for row in rows
    ]
    recomputed = {rows[i].get("label") for i in _pareto_indices(vectors)}
    recorded = {point.get("label") for point in frontier}
    if recomputed != recorded:
        run.fail(
            f"recorded frontier {sorted(recorded)} != recomputed Pareto set "
            f"{sorted(recomputed)}"
        )
    flagged = {row.get("label") for row in rows if row.get("on_frontier")}
    if flagged != recorded:
        run.fail(
            f"per-row on_frontier flags {sorted(flagged)} disagree with the "
            f"frontier section {sorted(recorded)}"
        )
    run.ok(
        f"baseline equals run, {len(frontier)} frontier points all re-derivable, "
        "and Pareto membership recomputes from the record"
    )


@register(
    "chaos",
    "BENCH_chaos.json",
    "zero stranded tickets under injected faults, availability floor, "
    "fault-free row clean (options: min-availability=0.95)",
)
def gate_chaos(run: GateRun) -> None:
    record = load_record(run.record_path)
    floor = run.number("min-availability", 0.95)
    rows = require_rows(record, "rows", "chaos rows")

    labels = [row.get("label") for row in rows]
    if len(set(labels)) != len(labels):
        run.fail("duplicate scenario labels in the record")
    fault_free_rows = [row for row in rows if not row.get("faulted", True)]
    if not fault_free_rows:
        run.fail("no fault-free control scenario recorded")
    if len(rows) - len(fault_free_rows) < 1:
        run.fail("no faulted scenario recorded — the harness injected nothing")

    for row in rows:
        label = row.get("label", "?")
        run.emit(
            f"{label:>12s}  accepted={row.get('accepted', 0):>6d}  "
            f"done={row.get('completed', 0):>6d}  failed={row.get('failed', 0):>4d}  "
            f"stranded={row.get('stranded', 0):>3d}  "
            f"avail={row.get('availability', float('nan')):7.2%}  "
            f"injected={row.get('injected', 0):>4d}  "
            f"crashes={row.get('worker_crashes', 0)}  "
            f"quarantined={row.get('quarantined', 0)}"
        )
        if row.get("accepted", 0) <= 0:
            run.fail(f"{label}: no queries accepted")
            continue
        if row.get("stranded", 0) != 0:
            run.fail(
                f"{label}: {row.get('stranded')} accepted queries stranded "
                "without an outcome — the ownership ledger leaked"
            )
        resolved = (
            row.get("completed", 0) + row.get("failed", 0) + row.get("cancelled", 0)
        )
        if resolved != row.get("accepted", 0):
            run.fail(
                f"{label}: completed+failed+cancelled {resolved} != accepted "
                f"{row.get('accepted')}"
            )
        availability = row.get("availability")
        if availability is None or not math.isfinite(availability):
            run.fail(f"{label}: availability {availability!r} is not finite")
        elif availability < floor:
            run.fail(
                f"{label}: availability {availability:.2%} below the "
                f"{floor:.0%} floor"
            )
        if row.get("faulted", False):
            if row.get("injected", 0) <= 0:
                run.fail(f"{label}: faulted scenario recorded zero injected faults")
        else:
            if row.get("failed", 0) or row.get("cancelled", 0):
                run.fail(
                    f"{label}: fault-free scenario failed {row.get('failed')} / "
                    f"cancelled {row.get('cancelled')} queries"
                )
            if availability is not None and availability != 1.0:
                run.fail(
                    f"{label}: fault-free availability {availability!r} != 1.0"
                )
            if row.get("injected", 0) != 0:
                run.fail(
                    f"{label}: fault-free scenario recorded "
                    f"{row.get('injected')} injected faults"
                )

    if not (record.get("fault_free") or {}).get("identical", False):
        run.fail("fault-free serving run diverged from the clean (no-injector) run")
    run.ok(
        f"no stranded tickets, every scenario above {floor:.0%} availability, "
        "and the fault-free path is bit-identical to the clean run"
    )


# --------------------------------------------------------------------- #
# bench-diff: committed records vs a base git ref
# --------------------------------------------------------------------- #


def _headlines(record: dict) -> dict:
    """A record's declared headlines as ``{name: (value, kind)}``."""
    return {
        entry["name"]: (entry["value"], entry["kind"]) for entry in record["headlines"]
    }


def diff_headlines(
    run: GateRun, path: str, old: "dict | None", new: dict, base: str, tolerance: float
) -> None:
    """Compare one record's declared headlines against its *base* copy.

    Kinds: a ``bool`` must never flip true -> false (or vanish),
    ``higher`` regresses downward, ``lower`` regresses upward, both
    beyond *tolerance*.  Only what the writer declared is diffed — raw
    timings and host-shape fields move freely.  A file absent at the
    base, or one that predates declared headlines, diffs nothing.
    """
    if old is None:
        run.emit(f"{path}: new benchmark (absent at {base}) — nothing to diff")
        return
    if "headlines" not in old:
        run.emit(f"{path}: {base} copy predates declared headlines — nothing to diff")
        return
    old_metrics, new_metrics = _headlines(old), _headlines(new)
    changed = []
    for name, (value, kind) in new_metrics.items():
        old_value = old_metrics.get(name, (None, kind))[0]
        if old_value != value:
            changed.append((name, old_value, value, kind))
    removed = [
        (name, value, None, kind)
        for name, (value, kind) in old_metrics.items()
        if name not in new_metrics
    ]
    if not changed and not removed:
        run.emit(f"{path}: headline metrics unchanged vs {base}")
        return
    run.emit(f"{path} vs {base}:")
    run.emit(f"  {'metric':<52s} {'old':>12s} {'new':>12s} {'delta':>8s}")
    for name, old_value, new_value, kind in changed + removed:
        delta = ""
        regressed = False
        if new_value is None:
            delta = "gone"
            regressed = kind == "bool" and bool(old_value)
        elif kind == "bool":
            regressed = bool(old_value) and not bool(new_value)
        elif isinstance(old_value, (int, float)) and isinstance(new_value, (int, float)):
            if old_value:
                relative = (new_value - old_value) / abs(old_value)
                delta = f"{relative:+.1%}"
                if kind == "higher":
                    regressed = relative < -tolerance
                elif kind == "lower":
                    regressed = relative > tolerance
        run.emit(
            f"  {name:<52s} {str(old_value):>12s} {str(new_value):>12s} {delta:>8s}"
            + ("  <-- REGRESSED" if regressed else "")
        )
        if regressed:
            run.fail(
                f"{path}: {name} regressed {old_value!r} -> {new_value!r} "
                f"(kind={kind}, tolerance {tolerance:.0%})"
            )


def _git_show(ref: str, path: str) -> "dict | None":
    """The committed record at ``ref``, or ``None`` when absent there."""
    result = subprocess.run(
        ["git", "show", f"{ref}:{path}"], capture_output=True, text=True
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except ValueError:
        return None


@register(
    "bench-diff",
    None,
    "committed BENCH_*.json headline numbers vs a base git ref "
    "(options: base=REF, tolerance=0.30)",
)
def gate_bench_diff(run: GateRun) -> None:
    base = run.text("base", "HEAD")
    tolerance = run.number("tolerance", DIFF_TOLERANCE)
    probe = subprocess.run(
        ["git", "rev-parse", "--verify", f"{base}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        raise GateInputError(f"cannot resolve base ref {base!r}: {probe.stderr.strip()}")
    listing = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"], capture_output=True, text=True
    )
    files = [line for line in listing.stdout.splitlines() if line]
    if not files:
        raise GateInputError("no committed BENCH_*.json records to diff")

    for path in files:
        diff_headlines(run, path, _git_show(base, path), load_record(path), base, tolerance)
    run.ok(f"no committed benchmark headline regressed vs {base}")


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


def parse_spec(spec: str) -> "list[tuple[str, str | None, dict]]":
    """Expand one ``--gate`` value into (name, record, options) triples.

    A value without ``=`` or ``:`` may be a comma-separated list of bare
    gate names (each using its default record); otherwise it is a single
    ``NAME[=RECORD][:OPT[=VALUE]...]`` spec.
    """
    if "=" not in spec and ":" not in spec:
        names = [part.strip() for part in spec.split(",") if part.strip()]
        if not names:
            raise GateInputError(f"empty gate spec {spec!r}")
        return [(name, None, {}) for name in names]
    head, *option_parts = spec.split(":")
    name, _, record = head.partition("=")
    options: dict = {}
    for part in option_parts:
        key, _, value = part.partition("=")
        if not key:
            raise GateInputError(f"empty option in gate spec {spec!r}")
        options[key.strip()] = value.strip()
    return [(name.strip(), record.strip() or None, options)]


def run_gate(name: str, record: "str | None", options: dict) -> GateRun:
    """Resolve and execute one gate; the returned context holds the verdict."""
    gate = GATES.get(ALIASES.get(name, name))
    if gate is None:
        raise GateInputError(
            f"unknown gate {name!r}; registered: {', '.join(sorted(GATES))}"
        )
    run = GateRun(
        gate=gate.name,
        record_path=record or gate.default_record,
        options=options,
    )
    print(f"=== gate {gate.name} "
          f"({run.record_path or 'no record'}"
          + (f", {', '.join(f'{k}={v}' if v else k for k, v in options.items())}" if options else "")
          + ") ===")
    gate.run(run)
    return run


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="ci_gates.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="SPEC",
        help="NAME[=RECORD][:OPT[=VALUE]...], or a comma-separated list of "
        "bare gate names using their committed default records; repeatable",
    )
    parser.add_argument(
        "specs",
        nargs="*",
        metavar="SPEC",
        help="additional gate specs (same grammar as --gate)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the gate registry and exit"
    )
    args = parser.parse_args(argv[1:])

    if args.list:
        for gate in sorted(GATES.values(), key=lambda gate: gate.name):
            default = gate.default_record or "-"
            print(f"{gate.name:>15s}  {default:<28s} {gate.description}")
        return 0

    try:
        requested = [
            triple
            for spec in [*args.gate, *args.specs]
            for triple in parse_spec(spec)
        ]
    except GateInputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not requested:
        parser.print_usage(sys.stderr)
        print("error: no gates requested (use --gate or --list)", file=sys.stderr)
        return 2

    failed: list = []
    for name, record, options in requested:
        try:
            outcome = run_gate(name, record, options)
        except GateInputError as error:
            print(f"error [{name}]: {error}", file=sys.stderr)
            return 2
        for failure in outcome.failures:
            print(f"FAIL [{outcome.gate}]: {failure}", file=sys.stderr)
        if outcome.failures:
            failed.append(outcome.gate)
    if failed:
        print(f"gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
