"""FASTA input and output.

A minimal, dependency-free reader and writer for the one file format the
pipeline touches: a reference passed as ``--reference`` is FASTA (reads are
simulated in memory and never written out).  The parser is deliberately
strict — malformed records raise :class:`FormatError` rather than being
silently skipped — because a truncated reference would invalidate every
downstream index; :func:`validate_reference_record` then checks that the
record is a usable DNA reference before any index is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .alphabet import validate


class FormatError(ValueError):
    """Raised when a FASTA stream is malformed."""


@dataclass(frozen=True)
class FastaRecord:
    """A single FASTA record: a name line and its sequence."""

    name: str
    sequence: str


def _open_for_read(path: str | Path) -> TextIO:
    return open(Path(path), "r", encoding="ascii")


def parse_fasta(stream: Iterable[str]) -> Iterator[FastaRecord]:
    """Parse FASTA records from an iterable of lines."""
    name: str | None = None
    chunks: list[str] = []
    for raw in stream:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield FastaRecord(name=name, sequence="".join(chunks))
            name = line[1:].strip()
            if not name:
                raise FormatError("FASTA header with empty name")
            chunks = []
        else:
            if name is None:
                raise FormatError("FASTA sequence data before any header")
            chunks.append(line.strip().upper())
    if name is not None:
        yield FastaRecord(name=name, sequence="".join(chunks))


def read_fasta(path: str | Path) -> list[FastaRecord]:
    """Read all FASTA records from *path*."""
    with _open_for_read(path) as handle:
        return list(parse_fasta(handle))


def write_fasta(path: str | Path, records: Iterable[FastaRecord], width: int = 70) -> None:
    """Write FASTA *records* to *path*, wrapping sequences at *width*."""
    if width <= 0:
        raise ValueError("width must be positive")
    with open(Path(path), "w", encoding="ascii") as handle:
        for record in records:
            handle.write(f">{record.name}\n")
            seq = record.sequence
            for i in range(0, len(seq), width):
                handle.write(seq[i : i + width] + "\n")


def validate_reference_record(record: FastaRecord) -> None:
    """Check that a FASTA record is a usable DNA reference."""
    if not record.sequence:
        raise FormatError(f"reference {record.name!r} has an empty sequence")
    validate(record.sequence)
