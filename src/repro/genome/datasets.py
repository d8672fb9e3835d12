"""Paper dataset stand-ins: human, picea glauca, pinus lambertiana.

The paper's reference genomes (human 3 Gbp, picea 20 Gbp, pinus 31 Gbp)
cannot be processed at full scale in pure Python.  Each dataset here is a
*profile*: the paper-scale length (used by the analytic data-structure size
models), plus the statistics used to synthesise a scaled stand-in sequence
(GC content and repeat structure, which determine FM-Index access patterns
and increment distributions).  Picea and pinus are conifer genomes that are
notoriously repeat-rich, which is why the paper observes their EXMA/MTL
behaviour differs from human; the profiles reflect that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequence import Reference, RepeatProfile, random_genome

#: Paper-scale genome lengths in base pairs.
HUMAN_PAPER_LENGTH = 3_000_000_000
PICEA_PAPER_LENGTH = 20_000_000_000
PINUS_PAPER_LENGTH = 31_000_000_000

#: Default simulated length used when a caller does not override it.  Large
#: enough for heavy-tailed k-mer statistics, small enough for CI.
DEFAULT_SIMULATED_LENGTH = 200_000


@dataclass(frozen=True)
class DatasetProfile:
    """Statistics used to synthesise a stand-in for one paper dataset."""

    name: str
    paper_length: int
    gc: float
    repeat_profile: RepeatProfile
    description: str

    def build(self, simulated_length: int = DEFAULT_SIMULATED_LENGTH, seed: int = 0) -> Reference:
        """Synthesise a scaled reference following this profile."""
        sequence = random_genome(
            simulated_length,
            gc=self.gc,
            repeat_profile=self.repeat_profile,
            seed=seed,
        )
        return Reference(
            name=self.name,
            sequence=sequence,
            paper_length=self.paper_length,
            description=self.description,
        )


HUMAN = DatasetProfile(
    name="human",
    paper_length=HUMAN_PAPER_LENGTH,
    gc=0.41,
    repeat_profile=RepeatProfile(
        repeat_fraction=0.45, repeat_unit_length=300, tandem_fraction=0.03, tandem_unit_length=4
    ),
    description="Homo sapiens stand-in (3 Gbp at paper scale)",
)

PICEA = DatasetProfile(
    name="picea",
    paper_length=PICEA_PAPER_LENGTH,
    gc=0.38,
    repeat_profile=RepeatProfile(
        repeat_fraction=0.65, repeat_unit_length=500, tandem_fraction=0.05, tandem_unit_length=3
    ),
    description="Picea glauca stand-in (20 Gbp at paper scale, repeat-rich conifer)",
)

PINUS = DatasetProfile(
    name="pinus",
    paper_length=PINUS_PAPER_LENGTH,
    gc=0.38,
    repeat_profile=RepeatProfile(
        repeat_fraction=0.75, repeat_unit_length=600, tandem_fraction=0.06, tandem_unit_length=3
    ),
    description="Pinus lambertiana stand-in (31 Gbp at paper scale, repeat-rich conifer)",
)

#: All three evaluation datasets keyed by name, in the paper's order.
DATASETS = {"human": HUMAN, "picea": PICEA, "pinus": PINUS}


def build_dataset(
    name: str, simulated_length: int = DEFAULT_SIMULATED_LENGTH, seed: int = 0
) -> Reference:
    """Build a scaled stand-in reference for a named paper dataset."""
    try:
        profile = DATASETS[name]
    except KeyError as exc:
        raise KeyError(f"unknown dataset {name!r}; expected one of {sorted(DATASETS)}") from exc
    return profile.build(simulated_length=simulated_length, seed=seed)
