#!/usr/bin/env python
"""The two CI gates over recorded benchmarks: ``pins`` and ``bench-diff``.

Every record is the one envelope ``repro.experiments.record`` writes, and
its writer states every invariant the run must satisfy as a ``bool``
headline computed over the rows it serialises — so this script knows no
benchmark's row shape.  A new record needs pins in its writer, not a
gate here.

Gate specs take the form ``NAME[=RECORD][:OPT...]``::

    ci_gates.py --gate pins                       # every committed BENCH_*.json
    ci_gates.py --gate pins=bench_smoke.json
    ci_gates.py --gate 'pins=BENCH_chaos.json:*.availability>=0.95'
    ci_gates.py --gate bench-diff:base=origin/main

``pins`` prints every declared headline and fails on a false ``bool``;
a record that pins nothing is refused.  Its options are **floors** on
numeric headlines, ``PATTERN>=VALUE`` or ``PATTERN>VALUE`` (quote them:
``>`` and ``*`` are shell syntax): ``PATTERN`` is an ``fnmatch`` over
headline names, every match must clear the value, and a floor that
matches nothing is malformed input — a renamed headline cannot silently
drop its floor.  ``bench-diff`` compares the committed records' headlines
with their copies at a base git ref (options ``base=REF``,
``tolerance=0.30``).  ``--list`` prints the registry.

Exit codes: 0 when every requested gate holds, 1 on any violation, 2 on
malformed input (unknown gate, unreadable or malformed record, bad
option, a floor that matches no headline or a non-numeric one).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

#: What every record must carry (the ``repro.experiments.record`` envelope).
ENVELOPE_KEYS = ("benchmark", "host", "workload", "headlines", "rows")

#: The headline kinds the writer may declare.
KINDS = ("bool", "higher", "lower")

#: Largest tolerated relative drop of a committed numeric headline in
#: ``bench-diff`` (wall-clock numbers re-recorded on another host move;
#: a one-third collapse is a regression, not noise).
DIFF_TOLERANCE = 0.30

#: One floor option of the ``pins`` gate.
FLOOR = re.compile(r"^(?P<pattern>[^<>=]+)(?P<op>>=|>)(?P<value>[^<>=]+)$")


class GateInputError(Exception):
    """Malformed record or options — exit 2, not a gate violation."""


@dataclass
class GateRun:
    """Shared context of one gate invocation: output plus its verdict."""

    gate: str
    record_path: "str | None"
    #: The spec's raw ``:``-separated option strings.
    options: list
    failures: list = field(default_factory=list)

    def emit(self, line: str) -> None:
        print(line)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def ok(self, message: str) -> None:
        if not self.failures:
            print(f"OK [{self.gate}]: {message}")

    def option(self, name: str, default: str) -> str:
        """The value of a ``name=value`` option (*default* when absent)."""
        for text in self.options:
            key, _, value = text.partition("=")
            if key.strip() == name and value.strip():
                return value.strip()
        return default


def headline_map(record: dict, where: str) -> dict:
    """A record's declared headlines as ``{name: (value, kind)}``; empty,
    malformed or twice-declared headlines are malformed input (a second
    entry would silently shadow the first — and could hide a false pin)."""
    entries = record["headlines"]
    if not isinstance(entries, list) or not entries:
        raise GateInputError(f"{where}: declares no headlines")
    headlines: dict = {}
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or entry.get("kind") not in KINDS
            or entry.get("value") is None
        ):
            raise GateInputError(
                f"{where}: malformed headline {entry!r} (needs name, value, kind in {KINDS})"
            )
        if entry["name"] in headlines:
            raise GateInputError(f"{where}: headline {entry['name']!r} is declared twice")
        headlines[entry["name"]] = (entry["value"], entry["kind"])
    return headlines


def load_record(path: str) -> dict:
    """Load a benchmark record, mapping any I/O, JSON or envelope error
    (a record that does not say which benchmark, host and workload
    produced it, has no rows, or whose headlines :func:`headline_map`
    refuses) to exit 2."""
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
    host = record["host"]
    for key in ("host_cpus", "available_cpus"):
        value = host.get(key) if isinstance(host, dict) else None
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise GateInputError(f"{path}: host block is missing a positive integer {key!r}")
    if not isinstance(record["rows"], list) or not record["rows"]:
        raise GateInputError(f"{path}: no rows recorded")
    headline_map(record, path)
    return record


def committed_records() -> list:
    """Paths of the committed ``BENCH_*.json`` records."""
    listing = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"], capture_output=True, text=True
    )
    files = [line for line in listing.stdout.splitlines() if line]
    if not files:
        raise GateInputError("no committed BENCH_*.json records")
    return files


@dataclass(frozen=True)
class Gate:
    """One registered gate."""

    name: str
    run: Callable[[GateRun], None]
    description: str


GATES: "dict[str, Gate]" = {}


def register(name: str, description: str):
    def wrap(fn: Callable[[GateRun], None]):
        GATES[name] = Gate(name, fn, description)
        return fn

    return wrap


# --------------------------------------------------------------------- #
# pins: the invariants a record declares about itself
# --------------------------------------------------------------------- #


def parse_floor(text: str) -> "tuple[str, str, float]":
    """One floor option as ``(pattern, op, value)``."""
    match = FLOOR.match(text)
    try:
        return match["pattern"].strip(), match["op"], float(match["value"])
    except (TypeError, ValueError):
        raise GateInputError(
            f"bad floor {text!r}: expected PATTERN>=VALUE or PATTERN>VALUE"
        ) from None


def check_pins(run: GateRun, path: str, record: dict, floors: list) -> None:
    """Fail on every false ``bool`` headline of *record* and on every
    numeric headline a floor names that does not clear it."""
    headlines = headline_map(record, path)
    run.emit(f"{path} ({record['benchmark']}):")
    for name, (value, kind) in headlines.items():
        run.emit(f"  {name:<52s} {value!s:>14s}  {kind}")
    pins = [name for name, (_, kind) in headlines.items() if kind == "bool"]
    if not pins:
        raise GateInputError(f"{path}: declares no bool headline, so nothing is pinned")
    for name in pins:
        if not headlines[name][0]:
            run.fail(f"{path}: pinned invariant {name} does not hold")
    for pattern, op, floor in floors:
        matched = fnmatch.filter(headlines, pattern)
        if not matched:
            raise GateInputError(f"{path}: floor {pattern}{op}{floor} matches no headline")
        for name in matched:
            value = headlines[name][0]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise GateInputError(
                    f"{path}: floor {pattern}{op}{floor} matches {name}, which is not numeric"
                )
            if not (value >= floor if op == ">=" else value > floor):
                run.fail(f"{path}: {name} = {value} does not clear the {op} {floor} floor")


@register(
    "pins",
    "every bool headline a record declares holds; options are floors on "
    "numeric headlines (PATTERN>=VALUE, PATTERN>VALUE); without a record, "
    "every committed BENCH_*.json",
)
def gate_pins(run: GateRun) -> None:
    floors = [parse_floor(text) for text in run.options]
    paths = [run.record_path] if run.record_path else committed_records()
    for path in paths:
        check_pins(run, path, load_record(path), floors)
    run.ok(f"every pinned invariant of {', '.join(paths)} holds")


# --------------------------------------------------------------------- #
# bench-diff: committed records vs a base git ref
# --------------------------------------------------------------------- #


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
    old_metrics = headline_map(old, f"{base}:{path}")
    new_metrics = headline_map(new, path)
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
    "committed BENCH_*.json headline numbers vs a base git ref "
    "(options: base=REF, tolerance=0.30)",
)
def gate_bench_diff(run: GateRun) -> None:
    base = run.option("base", "HEAD")
    try:
        tolerance = float(run.option("tolerance", str(DIFF_TOLERANCE)))
    except ValueError:
        raise GateInputError("option 'tolerance' needs a number") from None
    probe = subprocess.run(
        ["git", "rev-parse", "--verify", f"{base}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        raise GateInputError(f"cannot resolve base ref {base!r}: {probe.stderr.strip()}")
    for path in committed_records():
        diff_headlines(run, path, _git_show(base, path), load_record(path), base, tolerance)
    run.ok(f"no committed benchmark headline regressed vs {base}")


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


def parse_spec(spec: str) -> "tuple[str, str | None, list[str]]":
    """Split one ``NAME[=RECORD][:OPT...]`` spec into (name, record, options)."""
    head, *options = (part.strip() for part in spec.split(":"))
    name, _, record = head.partition("=")
    if not name.strip() or not all(options):
        raise GateInputError(f"empty gate name or option in spec {spec!r}")
    return name.strip(), record.strip() or None, options


def run_gate(name: str, record: "str | None", options: list) -> GateRun:
    """Resolve and execute one gate; the returned context holds the verdict."""
    gate = GATES.get(name)
    if gate is None:
        raise GateInputError(
            f"unknown gate {name!r}; registered: {', '.join(sorted(GATES))}"
        )
    run = GateRun(gate=gate.name, record_path=record, options=options)
    print(f"=== gate {gate.name} ({', '.join([record or 'committed records', *options])}) ===")
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
        help="NAME[=RECORD][:OPT...] (see --list and the module docstring); repeatable",
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
        for gate in GATES.values():
            print(f"{gate.name:>10s}  {gate.description}")
        return 0

    try:
        requested = [parse_spec(spec) for spec in [*args.gate, *args.specs]]
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
