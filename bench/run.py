#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --smoke               # the same at toy size, < 30 s
    python3 bench/run.py --repeat 2            # two sets, then bench/compare.py
    python3 bench/run.py --workload serve-steady --seed 3 --seconds 10 --trace 0

With ``--trace`` one workload runs in this process and the last line of
standard output is the result object ``BENCHMARK.json`` describes: the
end-to-end metrics for ``--trace 0``, the per-layer metrics for
``--trace 1``.  Without it every selected workload runs twice (trace 0,
trace 1), each in a fresh interpreter with every ``REPRO_*`` variable
removed, and the results are gathered into one table / ``--json`` file.

Exit status is non-zero on any wrong answer, failed check or pinned-input
mismatch.  See ``bench/README.md`` for what each metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Import as the ``bench`` package from the checkout root: the script's own
# directory must not lead ``sys.path``, or ``bench/trace.py`` would shadow
# the standard library's ``trace``.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

OUT = BENCH / "out"


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def pins() -> dict:
    with open(BENCH / "baseline.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


# --------------------------------------------------------------------- #
# Host and configuration block
# --------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown (git not runnable)"
    return done.stdout.strip() or "unknown"


def host_block(cleared: dict[str, str]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "repro_env_cleared": cleared,
        "git_commit": _git_commit(),
    }


def clear_repro_env() -> dict[str, str]:
    """Drop every ``REPRO_*`` variable (the library reads them lazily, so
    this must happen before the first search) and say what was dropped."""
    found = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    for name in found:
        del os.environ[name]
    return found


# --------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------- #


def _check(checks: list, name: str, ok: bool, note: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "note": note})


def _measure_closed_loop(stack, oracle, presearch_wrong, seconds, tracer, checks):
    """Warm up, measure untraced, then (with a tracer) traced; returns
    (metrics, detail, attempted, failed)."""
    from bench import measure

    workload = stack.workload
    expected = [oracle[query] for query in stack.queries] if workload.kind == "search" else []
    untraced_s = seconds / 3 if tracer else seconds
    warm = measure.run_closed_loop(stack, 0.0, expected)
    if workload.kind == "replay":
        whole = stack.accelerator.run_windowed(
            stack.streams, window=workload.window, replay_workers=1, executor="thread"
        )
        _check(checks, "flush-by-flush pass == run_windowed", warm.flushes == whole.flushes)
    plain = measure.run_closed_loop(stack, untraced_s, expected)
    logs = [warm, plain]
    metrics, detail = measure.closed_loop_end_to_end(stack, plain)
    if tracer:
        with tracer.installed():
            traced = measure.run_closed_loop(stack, seconds - untraced_s, expected, tracer)
        logs.append(traced)
        layers, problems = measure.closed_loop_layers(traced, tracer)
        metrics.update(layers)
        metrics["trace.overhead_share"] = (
            statistics.median(traced.seconds) / statistics.median(plain.seconds) - 1
        )
        pass_s = layers["pipeline.pass_ms_p50"] / 1e3
        detail["share_of_pass"] = {
            name: layers.get(f"{name}.busy_s", 0.0) / pass_s
            for name in ("engine.search", "engine.window", "accel.replay")
        }
        _check(checks, "per-layer accounting", not problems, "; ".join(problems))
        _check(checks, "traced model == untraced model", traced.flushes == plain.flushes)
    mismatches = sum(log.model_mismatches for log in logs)
    _check(checks, "model identical on every pass", mismatches == 0, f"{mismatches} differ")
    _check(checks, "warm-up model == measured model", warm.flushes == plain.flushes)
    if workload.kind == "search":
        return metrics, detail, sum(log.answers for log in logs), sum(log.wrong for log in logs)
    passes = sum(len(log.wall_seconds) for log in logs)
    return metrics, detail, len(oracle) + passes, presearch_wrong + mismatches


def _measure_open_loop(stack, oracle, seconds, warmup_s, tracer, checks):
    """Warm up, measure untraced phases, then (with a tracer) one traced
    phase; returns (metrics, detail, attempted, failed, resolved ServingConfig)."""
    from bench import measure

    problems: list[str] = []

    def served(logs):
        """Check and flatten each phase as it ends, then let go of its
        tickets: held to the end they are most of the run's memory, and
        ``peak_rss_mb`` would follow the goodput."""
        phases = []
        for log in logs:
            phases.append((log, measure.served_queries(log, oracle)))
            problems.extend(measure.ledger_problems(log))
            log.tickets = []
        return phases

    untraced_s = seconds / 3 if tracer else seconds
    served([measure.run_open_loop(stack, seconds, warmup_s)])
    plain = served(measure.run_phases(stack, 0.0, untraced_s))
    metrics, detail = measure.open_loop_end_to_end(stack, plain)
    if tracer:
        with tracer.installed():
            traced = served([measure.run_open_loop(stack, untraced_s, seconds - untraced_s)])
        traced_metrics, traced_detail = measure.open_loop_end_to_end(stack, traced)
        layers, layer_problems = measure.open_loop_layers(*traced[0], tracer)
        metrics.update(
            {k: v for k, v in traced_metrics.items() if k.startswith(("serving.", "loadgen."))}
        )
        metrics.update(layers)
        metrics["trace.overhead_share"] = (
            traced_detail["latency_ms_wall_clock"]["median"]
            / detail["latency_ms_wall_clock"]["median"]
            - 1
        )
        _check(checks, "per-layer accounting", not layer_problems, "; ".join(layer_problems))
        plain = plain + traced
    _check(checks, "ledger balanced, none stranded", not problems, "; ".join(problems))
    attempted = sum(log.stats.accepted for log, _ in plain)
    failed = attempted - sum(int(columns.correct.sum()) for _, columns in plain)
    return metrics, detail, attempted, failed, dict(vars(plain[0][0].config))


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Set up, check, measure; returns the full record of the run."""
    cleared = clear_repro_env()
    host = host_block(cleared)
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"bench: cannot import the repro package from {ROOT / 'src'}: {error}")
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: would measure {repro.__file__}, not this checkout's src/")
    import numpy as np

    from bench.trace import Tracer, clock
    from bench.workloads import WORKLOADS, build, oracle_counts

    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    size = "smoke" if smoke else "full"
    checks: list[dict] = []

    # Set-up, several times over; the last stack is the one measured.
    repeats = 1 if trace else workload.setup_repeats
    setups = []
    stack = None
    for _ in range(repeats):
        stack = None
        gc.collect()
        stack = build(workload, seed)
        setups.append(stack.setup_seconds)
    digest = stack.digest()
    pinned = pins().get(size, {}).get(name, {}).get(str(seed))
    print(f"# {name} [{size}] seed {seed}: inputs sha256 {digest}"
          + ("" if pinned is None else " (pinned)"))
    if pinned is not None and pinned != digest:
        raise SystemExit(
            f"bench: pinned inputs of {name} [{size}] seed {seed} changed: expected {pinned}, "
            f"generated {digest} (if intended, update digests in bench/baseline.json)"
        )

    # Independent answer key, untimed.
    started = clock()
    presearch_wrong = 0
    if workload.kind == "replay":
        sample = np.random.default_rng(seed + 3).choice(
            len(stack.queries), size=min(workload.oracle_sample, len(stack.queries)), replace=False
        ).tolist()
        oracle = oracle_counts(stack.reference, (stack.queries[i] for i in sample))
        presearch_wrong = sum(
            1 for i in sample if stack.presearch_counts[i] != oracle[stack.queries[i]]
        )
    else:
        oracle = oracle_counts(stack.reference, stack.queries)
    oracle_s = clock() - started

    tracer = Tracer() if trace else None
    config = {"accelerator": stack.accelerator_config()}
    if workload.kind == "serve":
        metrics, detail, attempted, failed, config["serving"] = _measure_open_loop(
            stack, oracle, seconds, 0.5 if smoke else 1.0, tracer, checks
        )
    else:
        metrics, detail, attempted, failed = _measure_closed_loop(
            stack, oracle, presearch_wrong, seconds, tracer, checks
        )

    _check(checks, "every answer matches the str.find oracle", failed == 0, f"{failed} wrong")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["bench.oracle_s"] = oracle_s
    metrics["bench.failed_share"] = failed / max(1, attempted)
    metrics.update(stack.stages_wall)
    detail["setup_s_runs"] = setups
    detail["setup_s_wall_clock"] = sum(stack.stages_wall.values())
    unreadable = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    _check(checks, "every metric is a finite number", not unreadable, ", ".join(unreadable))

    trace_file = None
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}.json"
        tracer.write(trace_file, workload=name, seed=seed, size=size)

    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "digest": digest,
        "host": host,
        "config": config,
        "metrics": metrics,
        "detail": detail,
        "checks": checks,
        "correct": all(check["ok"] for check in checks),
        "attempted": attempted,
        "failed": failed,
        "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
    }


def result_line(record: dict, spec: dict) -> dict:
    """The object the contract wants on the last line of standard output."""
    measured = record["metrics"]
    if record["trace"]:
        # A layer a workload does not run reads 0 (serving.* on offline-*).
        listed = spec["per_layer"]
        measured = {m["name"]: measured.get(m["name"], 0.0) for m in listed}
    else:
        listed = spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in listed
        },
    }


def print_record(record: dict, spec: dict) -> None:
    """Every metric of the run by name, with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    gated = {m["name"] for m in spec["end_to_end"]}
    host = record["host"]
    print(
        f"# host: {host['nproc']} cpus ({host['affinity_cpus']} usable), {host['cpu_model']}, "
        f"load {host['load_1min']:.2f}, python {host['python']}, numpy {host['numpy']}, "
        f"numba {'yes' if host['numba_importable'] else 'no'}, commit {host['git_commit']}"
    )
    if host["repro_env_cleared"]:
        print(f"# cleared from the environment: {host['repro_env_cleared']}")
    print(f"# config: {json.dumps(record['config'], default=str)}")
    kinds = (("end-to-end", True), ("per-layer", False)) if record["trace"] else (("end-to-end", True),)
    for title, want_gated in kinds:
        if record["trace"] and want_gated:
            title += " (untraced third of the period; for information only)"
        print(f"## {record['workload']} {title}")
        for name in sorted(record["metrics"]):
            if (name in gated) != want_gated:
                continue
            print(f"  {name:42s} {record['metrics'][name]:>16.6g} {units.get(name, '')}")
    for name, value in sorted(record["detail"].items()):
        print(f"  . {name}: {json.dumps(value)}")
    if "model_mbase_per_s" in record["metrics"]:
        print("  . model_*: model unvalidated at this scale (the repo holds no reference values)")
    for check in record["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}"
              + (f": {check['note']}" if check["note"] and not check["ok"] else ""))
    if record["trace_file"]:
        print(f"  spans written to {record['trace_file']}")


# --------------------------------------------------------------------- #
# Every workload, each in a fresh interpreter
# --------------------------------------------------------------------- #


def run_suite(args, spec: dict) -> int:
    cleared = clear_repro_env()
    if cleared:
        print(f"# REPRO_* variables removed for the child processes: {cleared}")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    traces = [args.trace] if args.trace is not None else [0, 1]
    OUT.mkdir(exist_ok=True)
    sets = []
    ok = True
    for index in range(args.repeat):
        runs = []
        for name in names:
            for trace in traces:
                scratch = OUT / f"run-{os.getpid()}.json"
                command = [
                    sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--json", str(scratch),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, cwd=ROOT)
                if scratch.exists():
                    runs.append(json.loads(scratch.read_text(encoding="utf-8")))
                    scratch.unlink()
                ok = ok and done.returncode == 0
        sets.append(runs)

    emitted = {name for runs in sets for run in runs for name in run["metrics"]}
    if names == [w["name"] for w in spec["workloads"]] and traces == [0, 1]:
        never = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["name"] not in emitted]
        if never:
            print(f"FAILED: metrics listed in BENCHMARK.json that no workload produced: {never}")
            ok = False

    if args.json:
        Path(args.json).write_text(json.dumps({"sets": sets}, indent=1), encoding="utf-8")
        print(f"# wrote {args.json}")
    if args.repeat >= 2:
        from bench.compare import compare

        half = (args.repeat + 1) // 2
        first = [run for runs in sets[:half] for run in runs]
        second = [run for runs in sets[half:] for run in runs]
        ok = compare(first, second, spec) and ok
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured period per run (default {spec['run_seconds']}, 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--json", help="write the full record(s) here")
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs; >= 2 also compares them")
    parser.add_argument("--smoke", action="store_true", help="toy size, every check on")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(spec["run_seconds"])

    one_run = args.trace is not None and args.workload and len(args.workload) == 1 and args.repeat == 1
    if not one_run:
        return run_suite(args, spec)
    record = run_workload(args.workload[0], args.seed, args.seconds, args.trace, args.smoke)
    print_record(record, spec)
    if args.json:
        Path(args.json).write_text(json.dumps(record, default=str), encoding="utf-8")
    print(json.dumps(result_line(record, spec)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
