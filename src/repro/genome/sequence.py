"""Synthetic reference genomes.

The paper evaluates on the human (3 Gbp), picea glauca (20 Gbp) and pinus
lambertiana (31 Gbp) genomes.  Those are far too large for a pure-Python
cycle-level reproduction, so this module generates *synthetic* references
whose local statistics (GC content, repeat density, tandem/interspersed
repeat structure) follow per-dataset profiles; the absolute length is a
parameter.  The data-structure size figures at paper scale are computed
analytically elsewhere (see ``repro.index.kstep`` and ``repro.exma.table``).

A reference is a plain Python string over ``ACGT`` wrapped in
:class:`Reference`, which also carries a name and the paper-scale length it
stands in for, so experiment harnesses can report both the simulated and
the extrapolated numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import DNA_ALPHABET, gc_content, validate


@dataclass(frozen=True)
class RepeatProfile:
    """Parameters controlling the repeat structure of a synthetic genome.

    Attributes:
        repeat_fraction: fraction of the genome covered by copies of
            repeat elements (interspersed repeats, e.g. LINE/SINE-like).
        repeat_unit_length: length of each repeat element.
        tandem_fraction: fraction of the genome covered by short tandem
            repeats (microsatellite-like).
        tandem_unit_length: period of the tandem repeats.
    """

    repeat_fraction: float = 0.3
    repeat_unit_length: int = 300
    tandem_fraction: float = 0.03
    tandem_unit_length: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.repeat_fraction <= 0.95:
            raise ValueError("repeat_fraction must be within [0, 0.95]")
        if not 0.0 <= self.tandem_fraction <= 0.5:
            raise ValueError("tandem_fraction must be within [0, 0.5]")
        if self.repeat_unit_length <= 0 or self.tandem_unit_length <= 0:
            raise ValueError("repeat unit lengths must be positive")


@dataclass(frozen=True)
class Reference:
    """A reference genome plus metadata.

    Attributes:
        name: short dataset name (e.g. ``"human"``).
        sequence: the reference string over ``ACGT``.
        paper_length: the length (in bp) of the genome this reference
            stands in for in the paper (3e9 for human, etc.).  Used by the
            analytic size models; equals ``len(sequence)`` when the
            reference is not a stand-in.
        description: free-form description.
    """

    name: str
    sequence: str
    paper_length: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        validate(self.sequence)
        if not self.sequence:
            raise ValueError("reference sequence must be non-empty")
        if self.paper_length == 0:
            object.__setattr__(self, "paper_length", len(self.sequence))

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def gc(self) -> float:
        """GC content of the simulated sequence."""
        return gc_content(self.sequence)

    @property
    def scale_factor(self) -> float:
        """Ratio between the paper-scale genome and the simulated one."""
        return self.paper_length / len(self.sequence)


def random_genome(
    length: int,
    gc: float = 0.41,
    repeat_profile: RepeatProfile | None = None,
    seed: int | None = 0,
) -> str:
    """Generate a random genome with a given GC content and repeat profile.

    The generator first draws i.i.d. bases with the requested GC content,
    then overwrites a ``repeat_fraction`` of the genome with copies of a
    small library of repeat elements and a ``tandem_fraction`` with short
    tandem repeats.  The result has the bursty, self-similar structure that
    makes FM-Index increment distributions heavy-tailed (Fig. 11/12 of the
    paper) without requiring real genome downloads.

    Args:
        length: genome length in bases.
        gc: target GC fraction.
        repeat_profile: repeat structure; defaults to a human-like profile.
        seed: RNG seed (``None`` for nondeterministic output).

    Returns:
        A string of length *length* over ``ACGT``.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if not 0.0 < gc < 1.0:
        raise ValueError("gc must be within (0, 1)")
    profile = repeat_profile or RepeatProfile()
    rng = np.random.default_rng(seed)

    at = (1.0 - gc) / 2.0
    gc_half = gc / 2.0
    probs = np.array([at, gc_half, gc_half, at])  # A, C, G, T
    codes = rng.choice(4, size=length, p=probs)

    # Interspersed repeats: pick a small library of elements and paste
    # copies at random positions.
    unit = min(profile.repeat_unit_length, max(1, length // 4))
    n_repeat_bases = int(length * profile.repeat_fraction)
    if n_repeat_bases >= unit and unit > 0:
        library_size = max(1, min(8, n_repeat_bases // (unit * 4)))
        library = [rng.choice(4, size=unit, p=probs) for _ in range(library_size)]
        n_copies = n_repeat_bases // unit
        for _ in range(n_copies):
            element = library[rng.integers(len(library))]
            start = int(rng.integers(0, max(1, length - unit)))
            codes[start : start + unit] = element[: length - start]

    # Tandem repeats: short periodic stretches.
    t_unit = profile.tandem_unit_length
    n_tandem_bases = int(length * profile.tandem_fraction)
    if n_tandem_bases >= t_unit * 4:
        stretch = t_unit * 16
        n_stretches = max(1, n_tandem_bases // stretch)
        for _ in range(n_stretches):
            motif = rng.choice(4, size=t_unit, p=probs)
            start = int(rng.integers(0, max(1, length - stretch)))
            span = min(stretch, length - start)
            tiled = np.tile(motif, span // t_unit + 1)[:span]
            codes[start : start + span] = tiled

    bases = np.frombuffer(DNA_ALPHABET.encode("ascii"), dtype=np.uint8)
    return bases[codes].tobytes().decode("ascii")


@dataclass
class VariantModel:
    """Simple model of genetic variation between individuals.

    The paper quotes an overall human population variation of ~0.1 %.  The
    model introduces substitutions and short indels at the given rates and
    is used to derive donor genomes from which reads are sampled, so that
    alignment exercises both sequencing error and true variation.
    """

    substitution_rate: float = 0.001
    insertion_rate: float = 0.0001
    deletion_rate: float = 0.0001
    max_indel_length: int = 3
    seed: int | None = 1

    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for rate in (self.substitution_rate, self.insertion_rate, self.deletion_rate):
            if not 0.0 <= rate < 1.0:
                raise ValueError("variation rates must be within [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def apply(self, sequence: str) -> str:
        """Return a donor genome derived from *sequence* with variants."""
        rng = self._rng
        out: list[str] = []
        i = 0
        n = len(sequence)
        bases = DNA_ALPHABET
        while i < n:
            r = rng.random()
            if r < self.deletion_rate:
                i += int(rng.integers(1, self.max_indel_length + 1))
                continue
            if r < self.deletion_rate + self.insertion_rate:
                ins_len = int(rng.integers(1, self.max_indel_length + 1))
                out.append("".join(bases[rng.integers(4)] for _ in range(ins_len)))
            if rng.random() < self.substitution_rate:
                original = sequence[i]
                choices = [b for b in bases if b != original]
                out.append(choices[rng.integers(3)])
            else:
                out.append(sequence[i])
            i += 1
        return "".join(out) if out else sequence
