#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json

A and B are files written by ``bench/run.py --json`` (one run, or every
run of a suite).  For every workload and end-to-end metric this prints A's
and B's median, how much worse B is as a share of A, the bound, and one of

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  it is, but either side's own quartile spread is wider than
                the bound and B's runs do not all read worse than A's

and, for runs of the same seed and size on ``offline-*``, checks that every
modelled number and every per-pass count is identical.  Exit status is
non-zero unless every row is ``ok`` and every exact value matches.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    if "sets" in loaded:
        return [run for runs in loaded["sets"] for run in runs]
    return [loaded]


def _spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median (None under 4 values)."""
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else None


def _exact_names(spec: dict) -> set[str]:
    """Metrics that a host-only change must leave identical on offline-*:
    everything modelled, and every per-pass work count."""
    names = {"model_mbase_per_s", "model_nj_per_base"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if "model_" in name or (metric["unit"] == "count" and name != "pipeline.passes"):
            names.add(name)
    return names


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> bool:
    """Print the comparison; True when nothing is worse, unresolved or unequal."""
    all_ok = True
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  status")
    for workload in (w["name"] for w in spec["workloads"]):
        a_side = [r["metrics"] for r in a_runs if r["workload"] == workload and not r["trace"]]
        b_side = [r["metrics"] for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a_side or not b_side:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name] for m in a_side]
            b = [m[name] for m in b_side]
            a_median, b_median = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b_median - a_median) / abs(a_median)
            status = "ok"
            if worse_by > bound:
                spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
                every_run_worse = (
                    min(b) > max(a) if metric["better"] == "lower" else max(b) < min(a)
                )
                noisy = bool(spreads) and max(spreads) > bound
                status = "unresolved" if noisy and not every_run_worse else "worse"
                all_ok = False
            print(
                f"{workload:16s} {name:20s} {a_median:12.5g} {b_median:12.5g} "
                f"{worse_by:+9.2%} {bound:6.2f}  {status}"
            )

    exact = _exact_names(spec)
    seen: dict[tuple, dict] = {}
    mismatches = defaultdict(list)
    for run in a_runs + b_runs:
        if not run["workload"].startswith("offline-"):
            continue
        key = (run["workload"], run["size"], run["seed"], run["trace"])
        first = seen.setdefault(key, run["metrics"])
        for name in exact & first.keys() & run["metrics"].keys():
            if first[name] != run["metrics"][name]:
                mismatches[key].append(name)
    for key, names in mismatches.items():
        print(f"NOT IDENTICAL {key}: {sorted(set(names))}")
        all_ok = False
    if seen and not mismatches:
        print(f"exact: modelled numbers and per-pass counts identical across {len(seen)} offline run group(s)")
    return all_ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return 0 if compare(load_runs(argv[0]), load_runs(argv[1]), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
