"""Shared experiment plumbing: scaled workloads, tables, indexes, queries,
and the reproduction-scale accelerator/serving stack.

Every figure/table harness needs the same ingredients: a scaled synthetic
reference for one of the paper's datasets, an EXMA table plus MTL index
over it, a batch of seeding queries sampled from simulated reads, and the
request stream those queries produce.  Building them is the expensive part
of an experiment, so :class:`Workload` bundles them and
:func:`build_workload` caches by configuration within a process.

The reproduction-scale stack has one home here too: :func:`scaled_config`
(the cache shrink every Fig. 18/20/22 replay, the serving layer and the
``serve`` sub-command share) and :func:`build_serving_stack` (the index /
accelerator / query pool the serving and chaos harnesses drive).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..accel.config import ExmaAcceleratorConfig, exma_full_config
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..exma.mtl_index import MTLIndex
from ..exma.search import ExmaSearch, ExmaSearchStats, OccRequest
from ..exma.table import ExmaTable
from ..genome.datasets import build_dataset
from ..genome.reads import ILLUMINA, ReadSimulator
from ..genome.sequence import Reference
from ..index.fmindex import FMIndex
from ..serving import sample_query_pool

#: Default scaled reference length used by the benchmark harnesses.  Large
#: enough for meaningful k-mer statistics, small enough to keep the whole
#: benchmark suite in minutes.
DEFAULT_GENOME_LENGTH = 60_000

#: Default EXMA step number at reproduction scale.  The paper uses k = 15
#: on 3-31 Gbp genomes; on sub-Mbp stand-ins the equivalent operating
#: point (several increments per k-mer on average) is reached around k = 6.
DEFAULT_STEP = 6

#: Default number of seeding queries per workload.
DEFAULT_QUERY_COUNT = 60

#: Default seeding query length (one Illumina read worth of symbols).
DEFAULT_QUERY_LENGTH = 48

#: Cache capacities used at reproduction scale (the paper-scale 1 MB /
#: 32 KB caches shrink in proportion to the scaled base-array footprint).
SCALED_BASE_CACHE_BYTES = 8 * 1024
SCALED_INDEX_CACHE_BYTES = 1024


def scaled_config(base: ExmaAcceleratorConfig) -> ExmaAcceleratorConfig:
    """Shrink the caches to match the scaled data-structure footprint."""
    return base.with_overrides(
        base_cache_bytes=SCALED_BASE_CACHE_BYTES,
        index_cache_bytes=SCALED_INDEX_CACHE_BYTES,
        cam_entries=128,
    )


def build_serving_stack(
    genome_length: int, seed: int, k: int, query_length: int, pool_size: int
) -> "tuple[ExmaBackend, ExmaAccelerator, list[str]]":
    """One shared backend / accelerator / Zipf query pool for every
    service a serving or chaos harness starts."""
    reference = build_dataset("human", simulated_length=genome_length, seed=seed)
    table = ExmaTable(reference.sequence, k=k)
    accelerator = ExmaAccelerator(table, None, scaled_config(exma_full_config()))
    pool = sample_query_pool(
        reference.sequence, pool_size=pool_size, length=query_length, seed=seed
    )
    return ExmaBackend(table=table), accelerator, pool


@dataclass(frozen=True)
class Workload:
    """A fully built experiment workload."""

    dataset: str
    reference: Reference
    table: ExmaTable
    mtl_index: MTLIndex
    fm_index: FMIndex
    queries: tuple[str, ...]
    requests: tuple[OccRequest, ...]
    stats: ExmaSearchStats


def sample_queries(
    reference: str,
    count: int = DEFAULT_QUERY_COUNT,
    length: int = DEFAULT_QUERY_LENGTH,
    seed: int = 0,
) -> list[str]:
    """Sample exact-match queries from Illumina-profile simulated reads.

    Queries are read fragments (so most of them occur in the reference but
    sequencing errors make some of them miss), matching how seeding drives
    FM-Index searches in the real pipeline.
    """
    simulator = ReadSimulator(reference, ILLUMINA, seed=seed)
    reads = simulator.simulate(read_length=min(length, len(reference)), count=count)
    return [read.sequence[:length] for read in reads]


@lru_cache(maxsize=8)
def build_workload(
    dataset: str = "human",
    genome_length: int = DEFAULT_GENOME_LENGTH,
    k: int = DEFAULT_STEP,
    query_count: int = DEFAULT_QUERY_COUNT,
    query_length: int = DEFAULT_QUERY_LENGTH,
    seed: int = 0,
    mtl_epochs: int = 150,
) -> Workload:
    """Build (and cache) the standard workload for one dataset."""
    reference = build_dataset(dataset, simulated_length=genome_length, seed=seed)
    table = ExmaTable(reference.sequence, k=k)
    mtl = MTLIndex(table, model_threshold=16, samples_per_kmer=64, epochs=mtl_epochs, seed=seed)
    fm = FMIndex(reference.sequence)
    queries = sample_queries(
        reference.sequence, count=query_count, length=query_length, seed=seed
    )
    search = ExmaSearch(table, index=mtl)
    requests, stats = search.request_stream(queries)
    return Workload(
        dataset=dataset,
        reference=reference,
        table=table,
        mtl_index=mtl,
        fm_index=fm,
        queries=tuple(queries),
        requests=tuple(requests),
        stats=stats,
    )
