"""Burrows-Wheeler transform.

The BWT of a sentinel-terminated reference is the last column of the
Burrows-Wheeler matrix (all rotations sorted lexicographically); the i-th
BWT symbol is the symbol preceding the i-th smallest suffix.  Everything in
the repository builds on the suffix-array formulation rather than
materialising the full matrix.
"""

from __future__ import annotations

import numpy as np

from ..genome.alphabet import FULL_ALPHABET, SENTINEL
from .suffix_array import suffix_array


def bwt_from_suffix_array(text: str, sa: np.ndarray) -> str:
    """Compute the BWT of a sentinel-terminated *text* given its SA."""
    if not text.endswith(SENTINEL):
        raise ValueError("text must be sentinel-terminated")
    sa = np.asarray(sa, dtype=np.int64)
    if sa.size != len(text):
        raise ValueError("suffix array length does not match text length")
    chars = []
    for pos in sa:
        chars.append(text[pos - 1] if pos > 0 else text[-1])
    return "".join(chars)


def bwt(text: str) -> str:
    """Compute the BWT of *text*, appending the sentinel when missing."""
    terminated = text if text.endswith(SENTINEL) else text + SENTINEL
    return bwt_from_suffix_array(terminated, suffix_array(terminated))


def inverse_bwt(transformed: str) -> str:
    """Invert a BWT string back to the original sentinel-terminated text.

    Uses the standard last-to-first column mapping.  The result includes
    the trailing sentinel.
    """
    if transformed.count(SENTINEL) != 1:
        raise ValueError("BWT string must contain exactly one sentinel")
    n = len(transformed)
    codes = np.array([FULL_ALPHABET.index(c) for c in transformed], dtype=np.int64)
    # first[i]: rank of transformed[i] within the sorted first column.
    order = np.argsort(codes, kind="stable")
    lf = np.empty(n, dtype=np.int64)
    lf[order] = np.arange(n)
    # Walk the LF mapping starting from the row whose BWT symbol precedes
    # the sentinel-terminated text's first rotation (the row of '$' in the
    # first column is row 0).
    out = []
    row = int(np.flatnonzero(codes == 0)[0])
    row = int(lf[row])
    for _ in range(n):
        out.append(transformed[row])
        row = int(lf[row])
    text = "".join(reversed(out))
    # Rotate so the sentinel ends the string.
    sentinel_at = text.index(SENTINEL)
    return text[sentinel_at + 1 :] + text[: sentinel_at + 1]
