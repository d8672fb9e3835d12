"""Read simulators with the paper's sequencing error profiles.

The paper generates 101-bp short reads with DWGSim and 1-kbp long reads
with PBSIM, using the error profiles (name, mismatch%, insertion%,
deletion%, total%):

* Illumina:  0.18 / 0.01 / 0.01 /  0.2
* PacBio:    1.50 / 9.02 / 4.49 / 15.01
* ONT 2D:   16.50 / 5.10 / 8.40 / 30.0

This module provides the same functionality: sample read start positions
uniformly over a reference (to a target coverage), optionally from either
strand, and corrupt each read with per-base substitution / insertion /
deletion probabilities matching the chosen profile.  Each read records its
true origin so alignment accuracy can be checked downstream.

The reads are defined by a scalar loop over one ``default_rng(seed)``
generator (``scalar_reads`` in ``repro.testing``): per read a ``random()``
for the strand (when both strands are sampled), then per base one
``random()`` — below ``deletion`` drops the base, below ``deletion +
insertion`` draws an inserted base with ``integers(4)``, and below the
total draws a substitute with ``integers(3)``.  An insertion also
substitutes the current base; every pinned input digest depends on that.

:meth:`ReadSimulator.simulate` makes the same reads, and leaves the
generator in the same state, without a Python step per base: it reads
PCG64's raw 64-bit words in blocks and walks only the words that carry an
error.  The walk relies on four NumPy internals:

* ``random()`` is ``(word >> 11) * 2**-53`` of one ``next_uint64`` word;
* ``integers(n)`` for ``n <= 2**32`` is Lemire's bounded draw, rejection
  loop included, over ``next_uint32``;
* PCG64's ``next_uint32`` returns a word's low half and buffers the high
  half in ``has_uint32`` / ``uinteger``, which ``next_uint64`` neither
  reads nor clears;
* ``random_raw(n)`` and ``advance(n)`` step the same word stream as ``n``
  ``next_uint64`` draws (``advance`` clears the buffer; the walk writes
  it back).

A NumPy release that changes any of them changes the reads; the tier-1
comparison against the scalar oracle (``tests/test_reads.py``) and the
golden digest beside it are what catch that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..runtime import check_workers
from .alphabet import _COMPLEMENT, DNA_ALPHABET, reverse_complement


@dataclass(frozen=True)
class ErrorProfile:
    """Per-base error rates for one sequencing technology."""

    name: str
    mismatch: float
    insertion: float
    deletion: float

    def __post_init__(self) -> None:
        for field in ("mismatch", "insertion", "deletion"):
            rate = getattr(self, field)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{field} rate must be within [0, 1), got {rate!r}")
        if not self.total < 1.0:
            raise ValueError(
                f"mismatch + insertion + deletion must be < 1, got {self.total!r}"
            )

    @property
    def total(self) -> float:
        """Total per-base error rate."""
        return self.mismatch + self.insertion + self.deletion


#: Error profiles exactly as reported in the paper's methodology section.
ILLUMINA = ErrorProfile("Illumina", mismatch=0.0018, insertion=0.0001, deletion=0.0001)
PACBIO = ErrorProfile("PacBio", mismatch=0.0150, insertion=0.0902, deletion=0.0449)
ONT_2D = ErrorProfile("ONT2D", mismatch=0.1650, insertion=0.0510, deletion=0.0840)

PROFILES = {p.name: p for p in (ILLUMINA, PACBIO, ONT_2D)}

#: Default short-read length used in the paper's evaluation.
SHORT_READ_LENGTH = 101

#: Raw generator words a block of reads is sized to (512 KiB of words).
_BLOCK_WORDS = 1 << 16

#: Byte -> complement byte; 0 marks a byte with no complement.
_COMPLEMENT_BYTES = np.zeros(256, dtype=np.uint8)
for _base, _partner in _COMPLEMENT.items():
    _COMPLEMENT_BYTES[ord(_base)] = ord(_partner)


@dataclass(frozen=True)
class SimulatedRead:
    """A simulated read together with its ground-truth origin."""

    name: str
    sequence: str
    true_position: int
    reverse: bool
    profile: str


def _bounded(bound: int, words: np.ndarray, at: int, has: int, half: int):
    """``integers(bound)`` as NumPy draws it from PCG64: Lemire's method
    over ``next_uint32``, whose half-word buffer is (*has*, *half*).

    Returns ``(value, next word index, has, half)``; raises ``IndexError``
    when the draw needs a word past the end of *words*.
    """
    threshold = (0x100000000 - bound) % bound
    while True:
        if has:
            has, draw = 0, half
        else:
            word = int(words[at])
            at += 1
            has, half, draw = 1, word >> 32, word & 0xFFFFFFFF
        scaled = draw * bound
        if scaled & 0xFFFFFFFF >= threshold:
            return scaled >> 32, at, has, half


def _edit(fragment: str, events: list[tuple[int, int, int]]) -> str:
    """Apply one read's error events ``(base, inserted, substitute)`` to its
    fragment; -1 marks no draw, and a base with neither is deleted."""
    out = []
    cursor = 0
    for base, inserted, substitute in events:
        out.append(fragment[cursor:base])
        if inserted >= 0:
            out.append(DNA_ALPHABET[inserted])
        if substitute >= 0:
            out.append([b for b in DNA_ALPHABET if b != fragment[base]][substitute])
        cursor = base + 1
    out.append(fragment[cursor:])
    return "".join(out) or fragment[0]


class ReadSimulator:
    """Samples error-corrupted reads from a reference sequence.

    Mirrors DWGSim for short reads and PBSIM for long reads: the error
    *profile* decides the per-base substitution/insertion/deletion
    probabilities, and *coverage* decides how many reads are produced
    (``coverage * len(reference) / read_length``).
    """

    def __init__(self, reference: str, profile: ErrorProfile, seed: int | None = 0) -> None:
        if not reference:
            raise ValueError("reference must be non-empty")
        if not reference.isascii():
            raise ValueError("reference must be ASCII")
        self._reference = reference
        self._profile = profile
        self._rng = np.random.default_rng(seed)
        if type(self._rng.bit_generator) is not np.random.PCG64:
            raise ValueError("seed must give a PCG64 generator")

    def simulate(
        self,
        read_length: int = SHORT_READ_LENGTH,
        count: int | None = None,
        coverage: float | None = None,
        both_strands: bool = True,
    ) -> list[SimulatedRead]:
        """Simulate reads.

        Exactly one of *count* or *coverage* must be provided.  Reads that
        would extend beyond the reference end are not generated; the
        reference must be at least *read_length* long.
        """
        if (count is None) == (coverage is None):
            raise ValueError("provide exactly one of count or coverage")
        read_length = check_workers(read_length, "read_length")
        ref_len = len(self._reference)
        if read_length > ref_len:
            raise ValueError("read_length exceeds reference length")
        if coverage is not None:
            if isinstance(coverage, bool) or not (math.isfinite(coverage) and coverage > 0):
                raise ValueError(f"coverage must be a finite number > 0, got {coverage!r}")
            count = max(1, int(round(coverage * ref_len / read_length)))
        count = check_workers(count, "count")

        starts = self._rng.integers(0, ref_len - read_length + 1, size=count)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.frombuffer(self._reference.encode("ascii"), dtype=np.uint8), read_length
        )
        stride = read_length + 1 if both_strands else read_length
        per_block = max(1, _BLOCK_WORDS // stride)
        reads: list[SimulatedRead] = []
        size = 0
        while len(reads) < count:
            block = starts[len(reads) : len(reads) + per_block]
            # Clean reads take `stride` words each; the eighth on top is
            # for the words error reads spend on bounded draws.
            size = max(size, len(block) * stride * 9 // 8 + 64)
            batch = self._block(block, size, windows, read_length, both_strands, len(reads))
            reads.extend(batch)
            # A block whose words ran out before its first read ended is
            # drawn again, twice as long.
            size = 0 if batch else 2 * size
        return reads

    def _block(
        self,
        starts: np.ndarray,
        size: int,
        windows: np.ndarray,
        length: int,
        both_strands: bool,
        first: int,
    ) -> list[SimulatedRead]:
        """Simulate up to ``len(starts)`` reads, numbered from *first*, out
        of *size* raw words.

        The generator ends exactly where the scalar loop leaves it after
        those reads, half-word buffer included.
        """
        bitgen = self._rng.bit_generator
        profile = self._profile
        deletion, insertion, mismatch = profile.deletion, profile.insertion, profile.mismatch
        stride = length + 1 if both_strands else length
        saved = bitgen.state
        has, half = saved["has_uint32"], saved["uinteger"]
        words = bitgen.random_raw(size)
        doubles = (words >> np.uint64(11)).astype(np.float64)
        doubles *= 1.0 / 9007199254740992.0
        # The scalar loop's per-base tests in its own float order: a word
        # passing this one is a deletion, an insertion or a substitution.
        rest = doubles - deletion
        rest -= insertion
        errors = np.flatnonzero(rest < mismatch).tolist()
        del rest
        errors.append(size)  # sentinel: no error word left
        strand_at = np.empty(len(starts), dtype=np.int64)
        events: dict[int, list[tuple[int, int, int]]] = {}
        made = at = e = 0
        while made < len(starts):
            # Clean reads lie at a fixed stride from `at` up to the read
            # holding the next error word that is not a strand word.
            while errors[e] < at or (
                both_strands and errors[e] < size and (errors[e] - at) % stride == 0
            ):
                e += 1
            run = min((errors[e] - at) // stride, len(starts) - made, (size - at) // stride)
            strand_at[made : made + run] = at + stride * np.arange(run)
            made += run
            at += stride * run
            if made == len(starts) or errors[e] == size:
                break
            # One read with an error: the bases between its error words
            # are clean, and an error word's bounded draws take the
            # buffered half-word or the words right after it.
            read_has, read_half = has, half
            strand_at[made] = at
            pos = at + 1 if both_strands else at
            base = 0
            read_events = []
            try:
                while base < length:
                    while errors[e] < pos:
                        e += 1
                    if errors[e] - pos >= length - base:
                        pos += length - base
                        break
                    if errors[e] == size:
                        raise IndexError(size)  # the read runs past the block's words
                    base += errors[e] - pos
                    pos = errors[e] + 1
                    r = float(doubles[errors[e]])
                    inserted = substitute = -1
                    if r >= deletion:
                        r -= deletion
                        if r < insertion:
                            inserted, pos, has, half = _bounded(4, words, pos, has, half)
                        r -= insertion
                        if r < mismatch:
                            substitute, pos, has, half = _bounded(3, words, pos, has, half)
                    read_events.append((base, inserted, substitute))
                    base += 1
            except IndexError:
                has, half = read_has, read_half
                break
            events[made] = read_events
            made += 1
            at = pos

        bitgen.state = saved
        bitgen.advance(at)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = has, half
        bitgen.state = state

        rows = windows[starts[:made]]
        reverse = doubles[strand_at[:made]] < 0.5 if both_strands else np.zeros(made, bool)
        if reverse.any():
            flipped = _COMPLEMENT_BYTES[rows[reverse, ::-1]]
            if not flipped.all():
                # A symbol with no complement: the scalar loop's error.
                bad = int(np.flatnonzero(reverse)[np.flatnonzero(~flipped.all(axis=1))[0]])
                reverse_complement(self._reference[starts[bad] : starts[bad] + length])
            rows[reverse] = flipped
        text = rows.tobytes().decode("ascii")
        sequences = [text[i : i + length] for i in range(0, made * length, length)]
        for i, read_events in events.items():
            sequences[i] = _edit(sequences[i], read_events)
        prefix = f"{profile.name.lower()}_read_"
        names = [f"{prefix}{i}" for i in range(first, first + made)]
        return list(
            map(
                SimulatedRead,
                names,
                sequences,
                starts[:made].tolist(),
                reverse.tolist(),
                itertools.repeat(profile.name),
            )
        )


def simulate_short_reads(
    reference: str, coverage: float = 1.0, seed: int | None = 0
) -> list[SimulatedRead]:
    """Convenience wrapper: Illumina-profile 101-bp reads."""
    simulator = ReadSimulator(reference, ILLUMINA, seed=seed)
    return simulator.simulate(read_length=SHORT_READ_LENGTH, coverage=coverage)
