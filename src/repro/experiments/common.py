"""The one builder of an experiment's EXMA stack, and the index recipe.

Everything the paper measures runs over the EXMA table plus its MTL index
(Sections IV-A/B) on a scaled stand-in for one of the paper's datasets.
Every harness and ``repro-exma serve`` get that :class:`Stack` from
:func:`build_stack`, memoised within a process on normalised arguments.
The reference, the table and the indexes are memoised apart, so stacks
that differ only in their index share one table.  Engines, backends and
accelerators own pools and state, so each caller builds its own (a
workload's queries and requests sit on a stack in :func:`build_workload`,
the serving layer's backend and accelerator in :func:`serving_stack`).
The index recipe is stated here once: :data:`MTL_THRESHOLD`,
:data:`MTL_SAMPLES`, :func:`naive_index` and :data:`SEARCH_MTL_RECIPE`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..accel.config import ExmaAcceleratorConfig, exma_full_config
from ..accel.exma_accelerator import ExmaAccelerator
from ..engine.backends import ExmaBackend
from ..engine.engine import QueryEngine
from ..exma.learned_index import NaiveLearnedIndex
from ..exma.mtl_index import MTLIndex
from ..exma.search import ExmaSearch, ExmaSearchStats, OccRequest
from ..exma.table import ExmaTable
from ..genome.datasets import build_dataset
from ..genome.reads import ILLUMINA, ReadSimulator
from ..genome.sequence import Reference
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

#: The MTL index recipe every harness trains: k-mers with more than
#: MTL_THRESHOLD increments get a model (the naive index of Figs. 10-13
#: too), each fitted on MTL_SAMPLES sampled positions.  Epoch counts stay
#: with each harness.
MTL_THRESHOLD = 16
MTL_SAMPLES = 64

#: The coarser index ``repro-exma search`` trains for its exma-mtl backend.
SEARCH_MTL_RECIPE = dict(model_threshold=32, epochs=100)


def scaled_config(base: ExmaAcceleratorConfig) -> ExmaAcceleratorConfig:
    """Shrink the caches to match the scaled data-structure footprint."""
    return base.with_overrides(
        base_cache_bytes=SCALED_BASE_CACHE_BYTES,
        index_cache_bytes=SCALED_INDEX_CACHE_BYTES,
        cam_entries=128,
    )


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


def best_of(repeats: int, thunk: Callable) -> tuple:
    """The fastest wall-clock seconds of *repeats* calls of *thunk*, and
    the last call's result."""
    seconds, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, result


def batch_streams(
    engine: QueryEngine,
    reference: str,
    seed: int,
    batch_count: int,
    batch_size: int,
    query_length: int,
) -> list[list]:
    """Per-batch coalesced request streams of consecutive read batches."""
    streams = []
    for batch_index in range(batch_count):
        queries = sample_queries(
            reference, count=batch_size, length=query_length, seed=seed + batch_index
        )
        requests, _stats = engine.request_stream(queries)
        streams.append(requests)
    return streams


@dataclass(frozen=True)
class Stack:
    """A scaled reference, its EXMA table and (when trained) its MTL index."""

    reference: Reference
    table: ExmaTable
    index: MTLIndex | None


def build_stack(
    dataset: str = "human",
    genome_length: int = DEFAULT_GENOME_LENGTH,
    k: int = DEFAULT_STEP,
    seed: int = 0,
    mtl_epochs: int | None = None,
    mtl_threshold: int = MTL_THRESHOLD,
) -> Stack:
    """The (memoised) stack for one dataset; ``index`` is ``None`` unless
    *mtl_epochs* asks for an MTL index, trained with the genome's seed."""
    if mtl_epochs is None:
        mtl_threshold = MTL_THRESHOLD
    return _stack(dataset, genome_length, k, seed, mtl_epochs, mtl_threshold)


@lru_cache(maxsize=16)
def _stack(dataset, genome_length, k, seed, mtl_epochs, mtl_threshold) -> Stack:
    reference = _reference(dataset, genome_length, seed)
    table = _table(reference.sequence, k)
    index = None
    if mtl_epochs is not None:
        index = MTLIndex(
            table,
            model_threshold=mtl_threshold,
            samples_per_kmer=MTL_SAMPLES,
            epochs=mtl_epochs,
            seed=seed,
        )
    return Stack(reference, table, index)


@lru_cache(maxsize=8)
def _reference(dataset: str, genome_length: int, seed: int) -> Reference:
    return build_dataset(dataset, simulated_length=genome_length, seed=seed)


@lru_cache(maxsize=8)
def _table(reference: str, k: int) -> ExmaTable:
    return ExmaTable(reference, k=k)


@lru_cache(maxsize=4)
def naive_index(table: ExmaTable) -> NaiveLearnedIndex:
    """The naive per-k-mer learned index of Figs. 10-13 over *table*."""
    return NaiveLearnedIndex(table, model_threshold=MTL_THRESHOLD, increments_per_leaf=256)


def serving_stack(reference: str, k: int) -> "tuple[ExmaBackend, ExmaAccelerator]":
    """A fresh exact-Occ backend and scaled accelerator over the memoised
    table of *reference* (the serving layer replays without an index)."""
    table = _table(reference, k)
    accelerator = ExmaAccelerator(table, None, scaled_config(exma_full_config()))
    return ExmaBackend(table=table), accelerator


def build_serving_stack(
    genome_length: int, seed: int, k: int, query_length: int, pool_size: int
) -> "tuple[ExmaBackend, ExmaAccelerator, list[str]]":
    """One shared backend / accelerator / Zipf query pool for every
    service a serving or chaos harness starts."""
    reference = build_stack("human", genome_length, k, seed).reference.sequence
    backend, accelerator = serving_stack(reference, k)
    pool = sample_query_pool(reference, pool_size=pool_size, length=query_length, seed=seed)
    return backend, accelerator, pool


@dataclass(frozen=True)
class Workload:
    """A stack plus seeding queries and the request stream they produce."""

    dataset: str
    reference: Reference
    table: ExmaTable
    mtl_index: MTLIndex
    queries: tuple[str, ...]
    requests: tuple[OccRequest, ...]
    stats: ExmaSearchStats


def build_workload(
    dataset: str = "human",
    genome_length: int = DEFAULT_GENOME_LENGTH,
    k: int = DEFAULT_STEP,
    query_count: int = DEFAULT_QUERY_COUNT,
    query_length: int = DEFAULT_QUERY_LENGTH,
    seed: int = 0,
    mtl_epochs: int = 150,
) -> Workload:
    """The (memoised) standard workload for one dataset."""
    return _workload(dataset, genome_length, k, query_count, query_length, seed, mtl_epochs)


@lru_cache(maxsize=8)
def _workload(dataset, genome_length, k, query_count, query_length, seed, mtl_epochs) -> Workload:
    stack = build_stack(dataset, genome_length, k, seed, mtl_epochs)
    queries = sample_queries(
        stack.reference.sequence, count=query_count, length=query_length, seed=seed
    )
    requests, stats = ExmaSearch(stack.table, index=stack.index).request_stream(queries)
    return Workload(
        dataset=dataset,
        reference=stack.reference,
        table=stack.table,
        mtl_index=stack.index,
        queries=tuple(queries),
        requests=tuple(requests),
        stats=stats,
    )
