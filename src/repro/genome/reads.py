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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import DNA_ALPHABET, reverse_complement


@dataclass(frozen=True)
class ErrorProfile:
    """Per-base error rates for one sequencing technology."""

    name: str
    mismatch: float
    insertion: float
    deletion: float

    def __post_init__(self) -> None:
        for rate in (self.mismatch, self.insertion, self.deletion):
            if not 0.0 <= rate < 1.0:
                raise ValueError("error rates must be within [0, 1)")

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


@dataclass(frozen=True)
class SimulatedRead:
    """A simulated read together with its ground-truth origin."""

    name: str
    sequence: str
    true_position: int
    reverse: bool
    profile: str


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
        self._reference = reference
        self._profile = profile
        self._rng = np.random.default_rng(seed)

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
        if read_length <= 0:
            raise ValueError("read_length must be positive")
        ref_len = len(self._reference)
        if read_length > ref_len:
            raise ValueError("read_length exceeds reference length")
        if coverage is not None:
            if coverage <= 0:
                raise ValueError("coverage must be positive")
            count = max(1, int(round(coverage * ref_len / read_length)))
        assert count is not None
        if count <= 0:
            raise ValueError("count must be positive")

        reads = []
        max_start = ref_len - read_length
        starts = self._rng.integers(0, max_start + 1, size=count)
        for i, start in enumerate(starts):
            fragment = self._reference[start : start + read_length]
            reverse = bool(both_strands and self._rng.random() < 0.5)
            if reverse:
                fragment = reverse_complement(fragment)
            corrupted = self._corrupt(fragment)
            reads.append(
                SimulatedRead(
                    name=f"{self._profile.name.lower()}_read_{i}",
                    sequence=corrupted,
                    true_position=int(start),
                    reverse=reverse,
                    profile=self._profile.name,
                )
            )
        return reads

    def _corrupt(self, fragment: str) -> str:
        """Apply the error profile to one fragment.

        One bulk draw settles an error-free fragment (most Illumina
        reads); any error rewinds the generator and replays the draws
        base by base, so the reads are those of the scalar loop alone.
        """
        rng = self._rng
        profile = self._profile
        # The state carries the buffered uint32 ``integers`` draws from.
        state = rng.bit_generator.state
        draws = rng.random(len(fragment))
        if (draws - profile.deletion - profile.insertion >= profile.mismatch).all():
            return fragment
        rng.bit_generator.state = state
        out: list[str] = []
        for base in fragment:
            r = rng.random()
            if r < profile.deletion:
                continue
            r -= profile.deletion
            if r < profile.insertion:
                out.append(DNA_ALPHABET[rng.integers(4)])
            r -= profile.insertion
            if r < profile.mismatch:
                choices = [b for b in DNA_ALPHABET if b != base]
                out.append(choices[rng.integers(3)])
            else:
                out.append(base)
        if not out:
            out.append(fragment[0])
        return "".join(out)


def simulate_short_reads(
    reference: str, coverage: float = 1.0, seed: int | None = 0
) -> list[SimulatedRead]:
    """Convenience wrapper: Illumina-profile 101-bp reads."""
    simulator = ReadSimulator(reference, ILLUMINA, seed=seed)
    return simulator.simulate(read_length=SHORT_READ_LENGTH, coverage=coverage)
