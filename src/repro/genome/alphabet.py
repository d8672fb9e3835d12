"""DNA alphabet utilities.

The paper works over the DNA alphabet ``{A, C, G, T}`` plus the sentinel
``$`` that terminates a reference in the Burrows-Wheeler transform.  The
sentinel is lexicographically the smallest symbol.  This module centralises
symbol encoding, k-mer packing/unpacking, and reverse complementation so
that every other subsystem (FM-Index, LISA, EXMA tables, read simulators)
agrees on one representation.

Two encodings are used throughout the repository:

* ``encode`` / ``decode`` map ``$ACGT`` to the integers ``0..4`` (the
  sentinel is 0 so that lexicographic order of encoded arrays equals
  lexicographic order of the strings).
* ``pack_kmer`` / ``unpack_kmer`` map a k-mer over ``ACGT`` (no sentinel)
  to an integer in ``[0, 4**k)`` using 2 bits per symbol, matching the
  enlarged alphabet :math:`\\Sigma^k` used by k-step FM-Index and by EXMA
  tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: The DNA alphabet, in lexicographic order, excluding the sentinel.
DNA_ALPHABET = "ACGT"

#: Sentinel symbol terminating a reference; lexicographically smallest.
SENTINEL = "$"

#: Full ordered alphabet used by the BWT ($ < A < C < G < T).
FULL_ALPHABET = SENTINEL + DNA_ALPHABET

_CHAR_TO_CODE = {c: i for i, c in enumerate(FULL_ALPHABET)}
_CODE_TO_CHAR = np.array(list(FULL_ALPHABET))

_DNA_TO_2BIT = {c: i for i, c in enumerate(DNA_ALPHABET)}
_2BIT_TO_DNA = np.array(list(DNA_ALPHABET))

#: Byte-value lookup table driving the vectorized :func:`encode`; 0xFF
#: marks bytes outside the ``$ACGT`` alphabet.
_BYTE_TO_CODE = np.full(256, 0xFF, dtype=np.uint8)
for _char, _code in _CHAR_TO_CODE.items():
    _BYTE_TO_CODE[ord(_char)] = _code

_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A", SENTINEL: SENTINEL, "N": "N"}
_COMPLEMENT_TABLE = str.maketrans(_COMPLEMENT)


class AlphabetError(ValueError):
    """Raised when a sequence contains symbols outside the DNA alphabet."""


def validate(sequence: str, allow_sentinel: bool = False) -> None:
    """Raise :class:`AlphabetError` if *sequence* contains invalid symbols."""
    allowed = set(DNA_ALPHABET)
    if allow_sentinel:
        allowed.add(SENTINEL)
    bad = set(sequence) - allowed
    if bad:
        raise AlphabetError(f"invalid DNA symbols: {sorted(bad)!r}")


def encode(sequence: str) -> np.ndarray:
    """Encode a string over ``$ACGT`` into ``uint8`` codes 0..4.

    The sentinel encodes to 0, so ``np.sort`` and comparisons on encoded
    arrays agree with lexicographic string order.  Encoding is one table
    gather over the raw bytes, so batched callers (the engine backends
    encode every query of a batch) stay off the per-character Python path.
    """
    try:
        raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise AlphabetError(f"invalid DNA symbol: {sequence[exc.start]!r}") from exc
    codes = _BYTE_TO_CODE[raw]
    if codes.size and int(codes.max()) == 0xFF:
        bad = sequence[int(np.argmax(codes == 0xFF))]
        raise AlphabetError(f"invalid DNA symbol: {bad!r}")
    return codes


def encode_right_aligned(
    sequences: Sequence[str], lengths: np.ndarray, take: np.ndarray
) -> np.ndarray:
    """Encode a prefix of every sequence into one right-aligned matrix.

    Row ``i`` holds the codes of the first ``take[i] <= lengths[i]``
    symbols of ``sequences[i]`` (*lengths* are the sequences' lengths,
    which batched callers already hold), flush right in ``take.max()``
    columns and padded on the left with -1.  The whole batch is one
    :func:`encode` over the concatenation plus a cumulative-length gather
    — no per-sequence Python — so a symbol outside ``$ACGT`` anywhere in
    the batch raises :class:`AlphabetError`, and because padding is -1 a
    code 0 in the result is always a real ``$``.
    """
    flat = encode("".join(sequences)).astype(np.int64)
    width = int(take.max(initial=0))
    offsets = np.arange(width) - (width - take)[:, None]
    kept = offsets >= 0
    starts = np.cumsum(lengths) - lengths
    return np.where(kept, flat[np.where(kept, starts[:, None] + offsets, 0)], -1)


def decode(codes: np.ndarray) -> str:
    """Decode ``uint8`` codes 0..4 back into a ``$ACGT`` string."""
    codes = np.asarray(codes)
    if codes.size == 0:
        return ""
    if codes.max(initial=0) >= len(FULL_ALPHABET):
        raise AlphabetError("code out of range for the $ACGT alphabet")
    return "".join(_CODE_TO_CHAR[codes])


def reverse_complement(sequence: str) -> str:
    """Return the reverse complement of a DNA sequence.

    Raises ``KeyError`` on a symbol with no complement
    (``str.translate`` alone would pass it through unchanged).
    """
    unknown = set(sequence) - _COMPLEMENT.keys()
    if unknown:
        raise KeyError(min(unknown))
    return sequence.translate(_COMPLEMENT_TABLE)[::-1]


def pack_kmer(kmer: str) -> int:
    """Pack a k-mer over ``ACGT`` into an integer in ``[0, 4**k)``.

    Packing preserves lexicographic order: ``pack_kmer(a) < pack_kmer(b)``
    iff ``a < b`` for equal-length k-mers.
    """
    value = 0
    for c in kmer:
        try:
            value = (value << 2) | _DNA_TO_2BIT[c]
        except KeyError as exc:
            raise AlphabetError(f"invalid k-mer symbol: {exc.args[0]!r}") from exc
    return value


def unpack_kmer(value: int, k: int) -> str:
    """Inverse of :func:`pack_kmer` for a k-mer of length *k*."""
    if value < 0 or value >= 4**k:
        raise ValueError(f"packed k-mer {value} out of range for k={k}")
    symbols = []
    for shift in range((k - 1) * 2, -1, -2):
        symbols.append(_2BIT_TO_DNA[(value >> shift) & 0b11])
    return "".join(symbols)


def iter_kmers(sequence: str, k: int):
    """Yield all overlapping k-mers of *sequence* (no sentinel)."""
    if k <= 0:
        raise ValueError("k must be positive")
    for i in range(len(sequence) - k + 1):
        yield sequence[i : i + k]


def kmer_count(k: int) -> int:
    """Number of distinct k-mers over the 4-letter DNA alphabet."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return 4**k


def gc_content(sequence: str) -> float:
    """Fraction of G/C symbols in *sequence* (0.0 for empty input)."""
    if not sequence:
        return 0.0
    gc = sum(1 for c in sequence if c in "GC")
    return gc / len(sequence)
