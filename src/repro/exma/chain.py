"""CHAIN compression of EXMA increments and bases.

Section IV-C4: because the increments (and bases) of each k-mer are sorted
and stored consecutively, consecutive values differ by small deltas.  CHAIN
stores the first value of each 64-byte memory line verbatim and every
subsequent value as the delta to its predecessor; decompression is a prefix
sum (``incr_i = incr_0 + sum(delta_1..delta_i)``), implementable with a
single 64-bit adder.

This module is the compressed-size accounting used for Fig. 23 and the
accelerator's increment traffic: a line's deltas are encoded with the
smallest fixed byte width that fits its largest delta (1, 2, 4 or 8
bytes), and every line is sized in one integer-exact pass over the value
column (:func:`line_bytes`).  The per-line codec that round-trips the
values, and states what that pass must equal, is ``chain_compress`` in
:mod:`repro.testing`.
"""

from __future__ import annotations

import numpy as np

#: Memory line size the hardware compresses over, in bytes.
LINE_BYTES = 64

#: Uncompressed entry width in bytes (increments/bases are stored as
#: 32-bit row numbers at paper scale; we account 4 bytes per entry).
ENTRY_BYTES = 4

_WIDTHS = np.array([1, 2, 4, 8])

#: A delta below ``_LIMITS[i]`` in magnitude fits ``_WIDTHS[i]`` signed bytes.
_LIMITS = np.array([1 << 7, 1 << 15, 1 << 31])


def line_bytes(
    values: np.ndarray, per_line: int, header_bytes: int, *, from_base: bool = False
) -> int:
    """Compressed bytes of *values* cut into lines of *per_line* entries.

    Each line stores its first value in *header_bytes* and every further
    value as a delta at the line's width: the smallest of 1, 2, 4 or 8
    bytes that holds its largest ``|delta|``.  CHAIN deltas each value
    against its predecessor; BΔI (*from_base*) against the line's first.
    Full lines are one ``(lines, per_line)`` reshape, the remainder one
    more line; deltas are int64, as in the per-line codecs.
    """
    values = np.asarray(values, dtype=np.int64)
    full = values.size // per_line * per_line
    lines = [values[:full].reshape(-1, per_line)]
    if full < values.size:
        lines.append(values[full:].reshape(1, -1))
    total = 0
    for line in lines:
        total += len(line) * header_bytes
        if len(line) and line.shape[1] > 1:
            deltas = line[:, 1:] - line[:, :1] if from_base else np.diff(line, axis=1)
            widths = _WIDTHS[np.searchsorted(_LIMITS, np.abs(deltas).max(axis=1), side="right")]
            total += (line.shape[1] - 1) * int(widths.sum())
    return total


def compressed_size_bytes(values: np.ndarray, entries_per_line: int | None = None) -> int:
    """Total compressed size of *values* under CHAIN."""
    if entries_per_line is None:
        entries_per_line = LINE_BYTES // ENTRY_BYTES
    if entries_per_line <= 0:
        raise ValueError("entries_per_line must be positive")
    return line_bytes(values, entries_per_line, ENTRY_BYTES)


def uncompressed_size_bytes(values: np.ndarray) -> int:
    """Size of *values* without compression (ENTRY_BYTES per entry)."""
    return int(np.asarray(values).size * ENTRY_BYTES)


def compression_ratio(values: np.ndarray, entries_per_line: int | None = None) -> float:
    """Compressed / uncompressed size (smaller is better)."""
    original = uncompressed_size_bytes(values)
    if original == 0:
        return 1.0
    return compressed_size_bytes(values, entries_per_line) / original
