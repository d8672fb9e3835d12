"""The four workloads: what each one is, its seeded inputs, its stack, its oracle.

Every input — reference, queries, arrival schedule — is a pure function of
``(workload, size, seed)``; the system under test receives only the generated
strings.  :func:`build` is the *set-up* the benchmark times stage by stage
(``setup_s`` is the sum of its stages); :func:`oracle_counts` is the
independent answer key and is never part of a timed region.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .calibrate import kernel_seconds, speed_factor

__all__ = ["WORKLOADS", "Stack", "Workload", "build", "oracle_counts"]

#: EXMA step number and query length at reproduction scale (fig18's).
STEP = 6
QUERY_LENGTH = 48
MTL_EPOCHS = 60

#: Arrival schedules are always generated for this many seconds and cut to
#: the run length, so the pinned digest does not depend on ``--seconds``.
#: The seconds after the measured period feed the warm-up.
SCHEDULE_HORIZON_S = 64.0

#: Cache/CAM geometry for the 60 kbp stand-in (the figure suite's scaling:
#: Table-I caches would hold the whole scaled structure).
SCALED_CACHES = {"base_cache_bytes": 8 * 1024, "index_cache_bytes": 1024, "cam_entries": 128}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the way it is driven (why each was
    chosen is recorded in ``BENCHMARK.json``)."""

    name: str
    #: ``search``: closed loop, search + window + replay per pass;
    #: ``replay``: closed loop, replay of pre-searched streams per pass;
    #: ``serve``: open loop through ``QueryService``.
    kind: str
    genome_length: int
    #: Queries per pass (closed loop) or size of the query pool (open loop).
    queries: int
    #: Coalescing-window capacity W.
    window: int
    #: Open loop offered below capacity: throughput is the offered rate and
    #: latency is mostly timer waits, so neither is scaled by the host's
    #: speed (see ``measure.open_loop_end_to_end``).
    paced: bool = False
    #: Table-I accelerator config, or the scaled caches above.
    table1_config: bool = False
    #: Closed loop: queries per ``search_batch`` call.
    batch_size: int = 0
    #: Open loop: Poisson arrivals per second, queries per arrival, Zipf
    #: exponent over the pool (``None`` = uniform), admission-queue bound,
    #: tenants the arrivals rotate through.
    arrival_rate: float = 0.0
    group_size: int = 0
    zipf_s: float | None = None
    queue_capacity: int = 0
    tenants: int = 1
    #: Pre-search answers checked against the oracle (``replay`` only; the
    #: other kinds check every query).
    oracle_sample: int = 0
    #: Full set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3

    def smoke(self) -> "Workload":
        """Toy size for ``--smoke``: same code paths, seconds not minutes."""
        return replace(
            self,
            genome_length=20_000,
            queries=min(self.queries, 2_048),
            table1_config=False,
            oracle_sample=min(self.oracle_sample, 256),
            setup_repeats=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="offline-search",
            kind="search",
            genome_length=60_000,
            queries=2_000,
            batch_size=256,
            window=4,
        ),
        Workload(
            name="offline-replay",
            kind="replay",
            genome_length=1_000_000,
            queries=20_000,
            batch_size=1_024,
            window=4,
            table1_config=True,
            oracle_sample=2_000,
            setup_repeats=1,
        ),
        Workload(
            name="serve-steady",
            kind="serve",
            genome_length=60_000,
            queries=512,
            window=2,
            paced=True,
            arrival_rate=400.0,
            group_size=4,
            zipf_s=1.1,
            queue_capacity=4_096,
            tenants=4,
        ),
        Workload(
            name="serve-saturated",
            kind="serve",
            genome_length=60_000,
            queries=8_192,
            window=2,
            arrival_rate=500.0,
            group_size=32,
            zipf_s=None,
            queue_capacity=512,
        ),
    )
}


@dataclass
class Stack:
    """Everything one workload runs against, plus how long it took to build."""

    workload: Workload
    reference: str
    engine: object
    accelerator: object
    #: Queries of one pass, or the open-loop pool.
    queries: list[str]
    #: Open loop: arrival offsets (s), tenant index and pool picks per arrival.
    offsets: np.ndarray | None = None
    tenants: np.ndarray | None = None
    picks: np.ndarray | None = None
    #: ``replay``: per-batch request streams and interval counts of the
    #: set-up search.
    streams: list = field(default_factory=list)
    presearch_counts: list[int] = field(default_factory=list)
    #: Reference-host seconds per set-up stage, keyed by the per-layer
    #: metric name, and the wall seconds they were measured as.
    stages: dict[str, float] = field(default_factory=dict)
    stages_wall: dict[str, float] = field(default_factory=dict)

    @property
    def setup_seconds(self) -> float:
        return sum(self.stages.values())

    def digest(self) -> str:
        """SHA-256 over reference, queries and arrival schedule."""
        sha = hashlib.sha256()
        sha.update(self.reference.encode())
        sha.update("\n".join(self.queries).encode())
        for column in (self.offsets, self.tenants, self.picks):
            if column is not None:
                sha.update(np.ascontiguousarray(column).tobytes())
        return sha.hexdigest()

    def accelerator_config(self) -> dict:
        config = self.accelerator.config
        return {
            name: getattr(value, "name", value) for name, value in vars(config).items()
        }


def _sample_reads(reference: str, count: int, seed: int) -> list[str]:
    """Illumina-profile read prefixes, strands alternating.

    The index holds the forward strand only, so a forward read is searched
    to the end (unless a sequencing error ends it, about one in eleven)
    and a reverse read dies after a few lockstep steps.  The simulator
    tosses a coin per read; taking the strands in turn instead keeps the
    work of a pass from varying by a few per cent between seeds, and gives
    every seed the same strand at each Zipf rank of a served pool.
    """
    from repro.genome.reads import ILLUMINA, ReadSimulator

    reads = ReadSimulator(reference, ILLUMINA, seed=seed).simulate(
        read_length=QUERY_LENGTH, count=2 * count + 64
    )
    strands = {False: [], True: []}
    for read in reads:
        strands[read.reverse].append(read.sequence[:QUERY_LENGTH])
    half = (count + 1) // 2
    if min(len(strands[False]), len(strands[True])) < half:
        raise RuntimeError(f"read simulator gave too few reads of one strand for {count} queries")
    turns = zip(strands[False], strands[True])
    return [read for pair in turns for read in pair][:count]


def _arrivals(workload: Workload, seed: int):
    """Poisson offsets over the horizon, round-robin tenants, pool picks."""
    rng = np.random.default_rng(seed)
    expected = int(workload.arrival_rate * SCHEDULE_HORIZON_S)
    gaps = rng.exponential(1.0 / workload.arrival_rate, size=expected * 2)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < SCHEDULE_HORIZON_S]
    shape = (offsets.size, workload.group_size)
    if workload.zipf_s is None:
        picks = rng.integers(0, workload.queries, size=shape)
    else:
        weights = 1.0 / np.arange(1, workload.queries + 1, dtype=np.float64) ** workload.zipf_s
        picks = rng.choice(workload.queries, size=shape, p=weights / weights.sum())
    tenants = np.arange(offsets.size, dtype=np.int64) % workload.tenants
    return offsets, tenants, picks.astype(np.int64)


def build(workload: Workload, seed: int) -> Stack:
    """Set the workload up from scratch, timing each stage.

    Knobs that an environment variable could otherwise move (``shards``,
    ``executor``, ``replay_workers``) are passed explicitly here and by the
    drivers in :mod:`measure`.
    """
    from repro.accel.config import exma_full_config
    from repro.accel.exma_accelerator import ExmaAccelerator
    from repro.engine.backends import ExmaBackend
    from repro.engine.engine import QueryEngine
    from repro.exma.mtl_index import MTLIndex
    from repro.exma.table import ExmaTable
    from repro.genome.datasets import build_dataset

    stages: dict[str, float] = {}
    stages_wall: dict[str, float] = {}
    speed = [kernel_seconds() for _ in range(3)]

    def timed(stage: str, make):
        """Run one stage between host-speed samples: its wall seconds, and
        those seconds on the reference host."""
        nonlocal speed
        before = speed
        started = time.perf_counter()
        made = make()
        stages_wall[stage] = time.perf_counter() - started
        speed = [kernel_seconds() for _ in range(3)]
        stages[stage] = stages_wall[stage] / speed_factor(before + speed)
        return made

    reference = timed(
        "genome.build_dataset_s",
        lambda: build_dataset(
            "human", simulated_length=workload.genome_length, seed=seed
        ).sequence,
    )
    table = timed("exma.table_build_s", lambda: ExmaTable(reference, k=STEP))
    index = timed(
        "exma.mtl_train_s",
        lambda: MTLIndex(
            table, model_threshold=16, samples_per_kmer=64, epochs=MTL_EPOCHS, seed=seed
        ),
    )
    engine = timed(
        "engine.backend_init_s",
        lambda: QueryEngine(
            ExmaBackend(table=table, index=index), shards=1, executor="thread"
        ),
    )
    config = exma_full_config()
    if not workload.table1_config:
        config = config.with_overrides(**SCALED_CACHES)
    accelerator = timed("accel.init_s", lambda: ExmaAccelerator(table, index, config))

    stack = Stack(
        workload, reference, engine, accelerator, queries=[],
        stages=stages, stages_wall=stages_wall,
    )

    def inputs():
        stack.queries = _sample_reads(reference, workload.queries, seed + 1)
        if workload.kind == "serve":
            stack.offsets, stack.tenants, stack.picks = _arrivals(workload, seed + 2)

    timed("genome.sample_queries_s", inputs)

    def presearch():
        for begin in range(0, len(stack.queries), workload.batch_size):
            result = engine.search_batch(stack.queries[begin : begin + workload.batch_size])
            stack.streams.append(result.stats.requests)
            stack.presearch_counts.extend(result.counts)

    stages["engine.presearch_s"] = stages_wall["engine.presearch_s"] = 0.0
    if workload.kind == "replay":
        timed("engine.presearch_s", presearch)
    return stack


def oracle_counts(reference: str, queries) -> dict[str, int]:
    """Occurrence count of each distinct query by overlapping ``str.find``.

    Shares no code with ``repro.index``: the answer key every returned
    ``Interval.count`` must match.
    """
    counts: dict[str, int] = {}
    for query in queries:
        if query in counts:
            continue
        found = 0
        at = reference.find(query)
        while at != -1:
            found += 1
            at = reference.find(query, at + 1)
        counts[query] = found
    return counts
