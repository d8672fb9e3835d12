"""The one benchmark-record writer: every ``BENCH_*.json`` is this envelope.

A record-bearing experiment declares *what* it measured — workload, rows,
named sections and the headline metrics a later re-recording is compared
on — as a :class:`Record`; this module alone decides how that becomes a
file::

    {
      "benchmark": "window_capacity",
      "host":      {...},                 # runtime.host_block() + compiled_recurrence
      "workload":  {...},
      "headlines": [{"name": ..., "value": ..., "kind": "bool|higher|lower"}],
      "<section>": ...,                   # e.g. "unwindowed", "frontier", "sweep"
      "rows":      [{...}, ...]
    }

``scripts/ci_gates.py`` refuses (exit 2) any record missing ``benchmark``
/ ``host`` / ``workload`` / ``headlines`` and knows no benchmark's row
shape: its ``pins`` gate fails on a false ``bool`` headline, its floors
and ``bench-diff`` read declared ``headlines`` alone — the writer, not
the gate, states every invariant, over the rows and sections it is about
to serialise, so what is checked is what the file contains.  Kinds: a
``bool`` is a pinned invariant (it must hold, so it may never flip
true → false, and a run that records it false exits 1 —
:meth:`Record.broken_pins`), ``higher`` regresses downward, ``lower``
regresses upward.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from ..hw.native import kernel_active
from ..runtime import host_block

__all__ = ["KINDS", "Record", "finite_positive", "row_dict", "write_record"]

#: The headline kinds ``bench-diff`` knows how to compare.
KINDS = ("bool", "higher", "lower")


def finite_positive(*values) -> bool:
    """Whether every recorded value is a finite number above zero."""
    return all(
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0
        for value in values
    )


def row_dict(item, *derived: str, digits: "dict | None" = None, **extra) -> dict:
    """One result dataclass as a JSON object.

    The object is *item*'s scalar fields in declaration order (nested
    dataclasses, lists and dicts are skipped — a writer that wants them
    passes them as *extra*), then the named *derived* properties, then
    *extra* verbatim.  *digits* maps key → decimals for the floats the
    committed records round.
    """
    row = {}
    for spec in dataclasses.fields(item):
        value = getattr(item, spec.name)
        if not (dataclasses.is_dataclass(value) or isinstance(value, (list, tuple, dict))):
            row[spec.name] = value
    row.update((name, getattr(item, name)) for name in derived)
    for name, places in (digits or {}).items():
        if isinstance(row.get(name), float):
            row[name] = round(row[name], places)
    row.update(extra)
    return row


@dataclass(frozen=True)
class Record:
    """What one experiment run says about itself (see the module docstring)."""

    benchmark: str
    workload: dict
    #: ``(name, value, kind)`` triples, kind ∈ :data:`KINDS`.
    headlines: list
    rows: list
    #: Named top-level sections beside ``rows`` (``{"frontier": [...]}``).
    sections: dict = field(default_factory=dict)

    def broken_pins(self) -> list[str]:
        """Names of the ``bool`` headlines that do not hold (empty = sound)."""
        return [name for name, value, kind in self.headlines if kind == "bool" and not value]

    def envelope(self) -> dict:
        """The JSON-ready record, host block stamped (plus whether the
        DRAM bus recurrence runs compiled, :mod:`repro.hw.native`)."""
        seen = set()
        for name, _value, kind in self.headlines:
            if kind not in KINDS:
                raise ValueError(f"headline {name!r}: unknown kind {kind!r}; known: {KINDS}")
            if name in seen:
                raise ValueError(f"headline {name!r} is declared twice")
            seen.add(name)
        envelope = {
            "benchmark": self.benchmark,
            "host": {**host_block(), "compiled_recurrence": kernel_active()},
            "workload": dict(self.workload),
            "headlines": [
                {"name": name, "value": value, "kind": kind}
                for name, value, kind in self.headlines
            ],
        }
        shadowed = sorted(set(self.sections) & {*envelope, "rows"})
        if shadowed:
            raise ValueError(f"sections shadow envelope keys: {shadowed}")
        envelope.update(self.sections)
        envelope["rows"] = list(self.rows)
        return envelope


def write_record(path: str, record: Record) -> dict:
    """Write *record*'s envelope to *path* as JSON; returns the envelope."""
    envelope = record.envelope()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2)
        handle.write("\n")
    return envelope
