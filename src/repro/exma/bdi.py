"""Base-Delta-Immediate (BΔI) cache-line compression baseline.

BΔI (Pekhimenko et al., reference [49] of the paper) compresses a 64-byte
cache line by storing the first data section as a base and every other
section as its delta against that base, choosing the smallest delta width
that fits.  The paper applies BΔI to the CPU baseline's LISA data and
contrasts it with CHAIN on EXMA tables (Fig. 23); this module implements
the size accounting for that comparison, one column pass over the lines
(:func:`repro.exma.chain.line_bytes`).  A line whose deltas need more than
4 bytes stays uncompressed, which is the same size as 8-byte deltas.  The
per-line codec is ``bdi_compress`` in :mod:`repro.testing`.

Unlike CHAIN, BΔI deltas are taken against the *first* section of the line
rather than the preceding value, so sorted-but-spread data compresses
noticeably worse — which is exactly the effect the figure shows.
"""

from __future__ import annotations

import numpy as np

from .chain import line_bytes

#: Memory line size in bytes.
LINE_BYTES = 64

#: Section width used by BΔI (8-byte sections, 8 per line).
SECTION_BYTES = 8


def compressed_size_bytes(values: np.ndarray, sections_per_line: int | None = None) -> int:
    """Total compressed size of *values* under BΔI."""
    if sections_per_line is None:
        sections_per_line = LINE_BYTES // SECTION_BYTES
    if sections_per_line <= 0:
        raise ValueError("sections_per_line must be positive")
    return line_bytes(values, sections_per_line, SECTION_BYTES, from_base=True)


def uncompressed_size_bytes(values: np.ndarray) -> int:
    """Size without compression (SECTION_BYTES per value)."""
    return int(np.asarray(values).size * SECTION_BYTES)


def compression_ratio(values: np.ndarray, sections_per_line: int | None = None) -> float:
    """Compressed / uncompressed size (smaller is better)."""
    original = uncompressed_size_bytes(values)
    if original == 0:
        return 1.0
    return compressed_size_bytes(values, sections_per_line) / original
