"""Smith-Waterman local alignment (the seed-extension dynamic programming).

Read alignment follows seed-and-extend: FM-Index seeding finds exact
matches, then the computationally expensive Smith-Waterman algorithm is
invoked only around seeds to handle sequencing errors and genetic
variation.  This module provides a banded affine-free Smith-Waterman used
by the aligner and by the Fig. 1 execution-time breakdown (where it is the
"DynPro" component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch/gap scores for local alignment."""

    match: int = 2
    mismatch: int = -2
    gap: int = -3

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch >= 0 or self.gap >= 0:
            raise ValueError("mismatch and gap penalties must be negative")


@dataclass(frozen=True)
class LocalAlignment:
    """Result of a local alignment."""

    score: int
    query_start: int
    query_end: int
    target_start: int
    target_end: int
    cells_computed: int


def smith_waterman(
    query: str, target: str, scoring: ScoringScheme | None = None
) -> LocalAlignment:
    """Full Smith-Waterman local alignment of *query* against *target*.

    Returns the best-scoring local alignment and the number of dynamic-
    programming cells computed (used by the time-breakdown model).
    """
    scoring = scoring or ScoringScheme()
    if not query or not target:
        raise ValueError("query and target must be non-empty")
    rows, cols = len(query) + 1, len(target) + 1
    matrix = np.zeros((rows, cols), dtype=np.int64)
    best_score, best_cell = 0, (0, 0)

    query_codes = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    target_codes = np.frombuffer(target.encode("ascii"), dtype=np.uint8)

    for i in range(1, rows):
        match_row = np.where(
            target_codes == query_codes[i - 1], scoring.match, scoring.mismatch
        )
        for j in range(1, cols):
            score = max(
                0,
                matrix[i - 1, j - 1] + match_row[j - 1],
                matrix[i - 1, j] + scoring.gap,
                matrix[i, j - 1] + scoring.gap,
            )
            matrix[i, j] = score
            if score > best_score:
                best_score, best_cell = score, (i, j)

    query_end, target_end = best_cell
    query_start, target_start = _traceback(matrix, query, target, best_cell, scoring)
    return LocalAlignment(
        score=int(best_score),
        query_start=query_start,
        query_end=query_end,
        target_start=target_start,
        target_end=target_end,
        cells_computed=(rows - 1) * (cols - 1),
    )


def _traceback(
    matrix: np.ndarray,
    query: str,
    target: str,
    start_cell: tuple[int, int],
    scoring: ScoringScheme,
) -> tuple[int, int]:
    """Walk back from the best cell to the start of the local alignment."""
    i, j = start_cell
    while i > 0 and j > 0 and matrix[i, j] > 0:
        diagonal = matrix[i - 1, j - 1]
        expected = scoring.match if query[i - 1] == target[j - 1] else scoring.mismatch
        if matrix[i, j] == diagonal + expected:
            i, j = i - 1, j - 1
        elif matrix[i, j] == matrix[i - 1, j] + scoring.gap:
            i -= 1
        elif matrix[i, j] == matrix[i, j - 1] + scoring.gap:
            j -= 1
        else:
            break
    return i, j


def banded_smith_waterman(
    query: str, target: str, band: int = 16, scoring: ScoringScheme | None = None
) -> LocalAlignment:
    """Banded Smith-Waterman restricted to a diagonal band of width *band*.

    Seed extension only needs to explore small deviations around the seed
    diagonal, so production aligners use a band; the cell count drops from
    ``|Q| * |T|`` to roughly ``|Q| * (2 * band + 1)``.
    """
    scoring = scoring or ScoringScheme()
    if band <= 0:
        raise ValueError("band must be positive")
    if not query or not target:
        raise ValueError("query and target must be non-empty")
    rows, cols = len(query) + 1, len(target) + 1
    matrix = np.zeros((rows, cols), dtype=np.int64)
    best_score, best_cell = 0, (0, 0)
    cells = 0

    for i in range(1, rows):
        j_low = max(1, i - band)
        j_high = min(cols, i + band + 1)
        for j in range(j_low, j_high):
            match = scoring.match if query[i - 1] == target[j - 1] else scoring.mismatch
            score = max(
                0,
                matrix[i - 1, j - 1] + match,
                matrix[i - 1, j] + scoring.gap,
                matrix[i, j - 1] + scoring.gap,
            )
            matrix[i, j] = score
            cells += 1
            if score > best_score:
                best_score, best_cell = score, (i, j)

    query_end, target_end = best_cell
    query_start, target_start = _traceback(matrix, query, target, best_cell, scoring)
    return LocalAlignment(
        score=int(best_score),
        query_start=query_start,
        query_end=query_end,
        target_start=target_start,
        target_end=target_end,
        cells_computed=cells,
    )
