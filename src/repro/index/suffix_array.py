"""Suffix array construction.

The FM-Index, LISA's IP-BWT and the EXMA table are all derived from the
suffix array (equivalently, the sorted rows of the Burrows-Wheeler matrix)
of the sentinel-terminated reference.  This module sorts every suffix
once on a packed 16-symbol prefix and then doubles that prefix
Larsson-Sadakane style, re-sorting only the suffixes that are still tied
-- O(n log n) worst case, about 2.2 n sorted elements in total on the
multi-megabase synthetic references used in the experiments -- plus a
naive O(n^2 log n) constructor kept as a cross-check oracle for tests.
"""

from __future__ import annotations

import numpy as np

from ..genome.alphabet import SENTINEL, encode


def _ensure_terminated(text: str) -> str:
    """Append the sentinel if *text* does not already end with it."""
    if not text:
        raise ValueError("text must be non-empty")
    if SENTINEL in text[:-1]:
        raise ValueError("sentinel may only appear at the end of the text")
    return text if text.endswith(SENTINEL) else text + SENTINEL


def suffix_array(text: str) -> np.ndarray:
    """Build the suffix array of *text* (sentinel-terminated).

    Returns an ``int64`` array ``sa`` such that ``sa[i]`` is the starting
    position of the i-th lexicographically smallest suffix.  The sentinel
    is appended automatically when missing.  Refinement keys are
    ``group * n + rank``, so ``n * n`` must fit ``int64`` (n < 3.03e9).
    """
    terminated = _ensure_terminated(text)
    n = len(terminated)

    # First 16 symbols of every suffix, 3 bits each, zero past the end.
    key = np.zeros(n + 15, dtype=np.int64)
    key[:n] = encode(terminated)
    for width in (1, 2, 4, 8):
        key[:-width] = (key[:-width] << (3 * width)) | key[width:]
    sa = np.argsort(key[:n])
    key = key[sa]

    # A group is a run of ``sa`` whose suffixes agree on their first
    # ``width`` symbols; its id, the suffixes' rank, is the run's first
    # position.  A tied suffix never reaches past the end: the unique
    # sentinel inside its first ``width`` symbols would have made it a
    # singleton already.
    at = np.arange(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    width = 16
    while True:
        head = np.ones(at.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:])
        rank[sa[at]] = np.maximum.accumulate(np.where(head, at, 0))
        tied = ~head
        tied[:-1] |= tied[1:]
        if not tied.any():
            return sa
        at = at[tied]
        suffixes = sa[at]
        key = rank[suffixes] * n + rank[suffixes + width]
        order = np.argsort(key)
        sa[at], key = suffixes[order], key[order]
        width *= 2


def naive_suffix_array(text: str) -> np.ndarray:
    """Reference O(n^2 log n) suffix array used as a test oracle."""
    terminated = _ensure_terminated(text)
    suffixes = sorted(range(len(terminated)), key=lambda i: terminated[i:])
    return np.array(suffixes, dtype=np.int64)


def inverse_suffix_array(sa: np.ndarray) -> np.ndarray:
    """Return ``isa`` such that ``isa[sa[i]] == i``."""
    sa = np.asarray(sa, dtype=np.int64)
    isa = np.empty_like(sa)
    isa[sa] = np.arange(sa.size, dtype=np.int64)
    return isa
