"""The EXMA accelerator model: pipeline ❶–❼ of Fig. 14.

The accelerator receives FM-Index requests — (k-mer, pos) pairs — from the
host, buffers them in its scheduling queue, schedules them (FR-FCFS or
2-stage), looks bases up in the base cache, index nodes up in the index
cache, runs MTL inference on the PE arrays, fetches the predicted increment
(plus the linear-search overshoot when the prediction is wrong) from DRAM,
and finally reports the Occ result back to the host.  The DMA controller
routes every DRAM access and asks the memory controller to keep rows open
when the dynamic page policy applies.

The model replays a request stream produced by
:meth:`repro.exma.search.ExmaSearch.request_stream` against the configured
cache/CAM/PE/DRAM models and returns throughput, bandwidth utilisation,
cache hit rates and energy — the quantities behind Figs. 18, 20, 21 and 22.

The replay itself is **columnar**: :meth:`ExmaAccelerator.run` consumes the
packed ``(k-mer, pos)`` arrays that the engine's
:class:`~repro.engine.coalesce.RequestStream` and the window's
:class:`~repro.engine.window.WindowedBatch` already carry, schedules them
with array sorts, simulates both caches set-grouped, expands the increment
fetches into a structured DRAM trace and replays each channel's columns —
no per-request Python objects anywhere on the hot path.
:meth:`ExmaAccelerator.run_reference` keeps the original request-at-a-time
object pipeline as the oracle the equivalence suite replays against; both
paths produce field-for-field identical :class:`AcceleratorRunResult`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .. import runtime
from ..engine.coalesce import RequestStream
from ..engine.window import CoalescingWindow, WindowedBatch
from ..exma.chain import compression_ratio as chain_ratio
from ..exma.mtl_index import MTLIndex
from ..exma.search import OccRequest
from ..exma.table import ExmaTable
from ..hw.cache import CacheStats, SetAssociativeCache, simulate_lru_hits
from ..hw.dram import BURST_BYTES, DRAMModel, DRAMStats, MemoryRequest, MemoryTrace
from ..hw.energy import DRAM_SYSTEM_POWER_W, EnergyLedger
from ..hw.pe_array import InferenceEngine
from ..hw.scheduler import (
    FrFcfsScheduler,
    TwoStageScheduler,
    keep_open_flags,
    pair_requests_by_kmer,
    scheduled_orders,
)
from .config import ExmaAcceleratorConfig
from .metrics import SearchThroughput

#: Bytes per base-array entry (base pointer plus the k-mer's increment count).
BASE_ENTRY_BYTES = 8

#: Bytes per increment entry before compression.
INCREMENT_ENTRY_BYTES = 4

#: Bytes occupied by one shared MTL node (8-bit quantised parameters).
SHARED_NODE_BYTES = 64

#: Bytes occupied by one per-k-mer leaf model.
LEAF_NODE_BYTES = 8


@dataclass(slots=True)
class AcceleratorRunResult:
    """Everything measured while replaying one request stream."""

    name: str
    requests: int
    bases_processed: int
    total_cycles: int
    dram_cycles: int
    inference_cycles: int
    seconds: float
    base_cache: CacheStats
    index_cache: CacheStats
    dram: DRAMStats
    energy: EnergyLedger
    accelerator_energy_j: float
    dram_energy_j: float
    increment_entries_read: int = 0
    dram_requests: int = 0
    per_channel: list[DRAMStats] = field(default_factory=list)

    @property
    def throughput(self) -> SearchThroughput:
        """Convert to the common throughput/efficiency record."""
        seconds = max(self.seconds, 1e-12)
        accel_power = self.accelerator_energy_j / seconds
        return SearchThroughput(
            name=self.name,
            bases_processed=self.bases_processed,
            seconds=seconds,
            accelerator_power_w=accel_power,
            dram_power_w=DRAM_SYSTEM_POWER_W,
            bandwidth_utilization=self.dram.bandwidth_utilization,
            row_hit_rate=self.dram.row_hit_rate,
        )


@dataclass
class WindowedRunResult:
    """One streamed run: per-flush accelerator results plus the aggregate.

    Each flushed :class:`~repro.engine.window.WindowedBatch` is one
    scheduling epoch — the accelerator replays its merged request stream
    with fresh queue/cache state and accounts cycles and energy for that
    flush alone (``flushes``), so a window capacity of 1 is byte-identical
    to running :meth:`ExmaAccelerator.run` on each batch's coalesced
    stream.  The aggregate properties sum the epochs; the stream's wall
    time is the sum because consecutive windows are dependent (the next
    window's requests arrive as the previous one drains).
    """

    name: str
    flushes: list[AcceleratorRunResult]
    #: Window capacity W the stream was merged with (``None`` when the
    #: caller supplied pre-merged flushes of unknown capacity).
    capacity: int | None = None
    #: Query batches merged across all windows.
    batches: int = 0
    #: Requests entering the window stage (post per-batch coalescing).
    issued: int = 0

    @property
    def windows(self) -> int:
        """Number of flushed windows replayed."""
        return len(self.flushes)

    @property
    def requests(self) -> int:
        """Requests surviving the window merge (scheduled on the CAM)."""
        return sum(result.requests for result in self.flushes)

    @property
    def merged(self) -> int:
        """Requests eliminated by the cross-batch merge."""
        return self.issued - self.requests

    @property
    def merge_ratio(self) -> float:
        """Issued-to-scheduled request ratio (1.0 means nothing merged)."""
        if self.requests == 0:
            return 1.0
        return self.issued / self.requests

    @property
    def bases_processed(self) -> int:
        return sum(result.bases_processed for result in self.flushes)

    @property
    def total_cycles(self) -> int:
        return sum(result.total_cycles for result in self.flushes)

    @property
    def dram_cycles(self) -> int:
        return sum(result.dram_cycles for result in self.flushes)

    @property
    def inference_cycles(self) -> int:
        return sum(result.inference_cycles for result in self.flushes)

    @property
    def seconds(self) -> float:
        return sum(result.seconds for result in self.flushes)

    @property
    def accelerator_energy_j(self) -> float:
        return sum(result.accelerator_energy_j for result in self.flushes)

    @property
    def dram_energy_j(self) -> float:
        return sum(result.dram_energy_j for result in self.flushes)

    @property
    def increment_entries_read(self) -> int:
        return sum(result.increment_entries_read for result in self.flushes)

    @property
    def dram_requests(self) -> int:
        return sum(result.dram_requests for result in self.flushes)

    @property
    def bandwidth_utilization(self) -> float:
        """DRAM-cycle-weighted mean bandwidth utilisation across flushes."""
        weight = sum(result.dram_cycles for result in self.flushes)
        if weight == 0:
            return 0.0
        return (
            sum(
                result.dram.bandwidth_utilization * result.dram_cycles
                for result in self.flushes
            )
            / weight
        )

    @property
    def row_hit_rate(self) -> float:
        """DRAM-request-weighted mean row hit rate across flushes."""
        weight = sum(result.dram.requests for result in self.flushes)
        if weight == 0:
            return 0.0
        return (
            sum(result.dram.row_hit_rate * result.dram.requests for result in self.flushes)
            / weight
        )

    @property
    def throughput(self) -> SearchThroughput:
        """Aggregate throughput/efficiency record of the whole stream."""
        seconds = max(self.seconds, 1e-12)
        return SearchThroughput(
            name=self.name,
            bases_processed=self.bases_processed,
            seconds=seconds,
            accelerator_power_w=self.accelerator_energy_j / seconds,
            dram_power_w=DRAM_SYSTEM_POWER_W,
            bandwidth_utilization=self.bandwidth_utilization,
            row_hit_rate=self.row_hit_rate,
        )


def replay_epoch(
    accelerator: "ExmaAccelerator",
    name: str,
    flushed: "WindowedBatch | Sequence[OccRequest]",
) -> AcceleratorRunResult:
    """Replay one flush epoch on *accelerator*.

    The unit every stream replay maps over, inline or on a pool worker
    (module-level so the process executor pickles it by reference): a
    :class:`~repro.engine.window.WindowedBatch` goes through
    :meth:`ExmaAccelerator.replay_flush` (issued-count base accounting),
    a plain request sequence through :meth:`ExmaAccelerator.run`.
    """
    if isinstance(flushed, WindowedBatch):
        return accelerator.replay_flush(flushed, name=name)
    return accelerator.run(flushed, name=name)


class ExmaAccelerator(runtime.PoolOwner):
    """Replay FM-Index request streams on the EXMA accelerator model.

    Owns a persistent epoch-replay pool (:class:`~repro.runtime.PoolOwner`
    — created by the first parallel :meth:`run_stream`, swapped when its
    knobs change, released by ``close()`` / context-manager exit).

    Args:
        table: the EXMA table resident in DRAM.
        index: the MTL index; ``None`` disables learned lookups (every Occ
            becomes an exact scan, as in the software-only EXMA-15 row).
        config: accelerator configuration (Table I defaults).
    """

    def __init__(
        self,
        table: ExmaTable,
        index: MTLIndex | None,
        config: ExmaAcceleratorConfig | None = None,
    ) -> None:
        self._table = table
        self._index = index
        self._config = config or ExmaAcceleratorConfig()
        self._engine = InferenceEngine(self._config.pe_config())
        self._chain_ratio = self._effective_chain_ratio()
        self._layout = self._compute_layout()
        # Per packed code: whether it is modelled, the index-cache
        # addresses of its shared bucket node and of its leaf (gathered for
        # modelled codes only), and its increment base pointer with an
        # absent k-mer's MAX sentinel read as 0 (:meth:`_increment_address`).
        if index is not None:
            self._modelled_lookup = index.modelled_lookup(table.kmer_count)
            self._bucket_addresses = self._index_node_address(
                index.bucket_lookup(table.kmer_count).astype(np.int64)
            )
            self._leaf_addresses = self._index_node_address(
                index.shared_node_count + np.arange(table.kmer_count, dtype=np.int64)
            )
        else:
            self._modelled_lookup = np.zeros(table.kmer_count, dtype=bool)
            self._bucket_addresses = self._leaf_addresses = np.empty(0, dtype=np.int64)
        self._fetch_bases = np.where(table.bases >= table.max_sentinel, 0, table.bases)

    @property
    def table(self) -> ExmaTable:
        """The EXMA table this accelerator replays against."""
        return self._table

    @property
    def index(self) -> "MTLIndex | None":
        """The MTL index, or ``None`` (exact Occ resolution)."""
        return self._index

    @property
    def config(self) -> ExmaAcceleratorConfig:
        """The accelerator configuration (needed to clone design points)."""
        return self._config

    def __getstate__(self) -> dict:
        # Worker pools never cross process boundaries: a process-pool
        # replay worker receives the accelerator via the pool initializer
        # and must not drag the parent's executor (unpicklable) with it.
        state = self.__dict__.copy()
        state.pop("_pool", None)
        return state

    # ------------------------------------------------------------------ #
    # Layout and compression
    # ------------------------------------------------------------------ #

    def _effective_chain_ratio(self) -> float:
        """Fraction of increment bytes that still move after CHAIN."""
        if not self._config.use_chain_compression:
            return 1.0
        increments = self._table.increments
        if increments.size == 0:
            return 1.0
        sample = increments[: min(increments.size, 65536)]
        return chain_ratio(sample)

    def _compute_layout(self) -> dict[str, int]:
        """Byte offsets of the base array, index nodes and increments."""
        base_region = self._table.kmer_count * BASE_ENTRY_BYTES
        if self._index is not None:
            index_region = (
                self._index.shared_node_count * SHARED_NODE_BYTES
                + len(self._index.modelled_kmers) * LEAF_NODE_BYTES
            )
        else:
            index_region = 0
        return {
            "base_offset": 0,
            "index_offset": base_region,
            "increment_offset": base_region + index_region,
        }

    def _base_address(self, packed_kmer: int) -> int:
        return self._layout["base_offset"] + packed_kmer * BASE_ENTRY_BYTES

    def _index_node_address(self, node_id: int) -> int:
        return self._layout["index_offset"] + node_id * SHARED_NODE_BYTES

    def _increment_address(self, packed_kmer: int, entry_index: int) -> int:
        base = self._table.base(packed_kmer)
        if base >= self._table.max_sentinel:
            base = 0
        entry_bytes = INCREMENT_ENTRY_BYTES * self._chain_ratio
        return self._layout["increment_offset"] + int((base + entry_index) * entry_bytes)

    # ------------------------------------------------------------------ #
    # Main replay loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: "Sequence[OccRequest]",
        name: str = "EXMA",
        bases_processed: int | None = None,
    ) -> AcceleratorRunResult:
        """Replay *requests* columnar and return the measured statistics.

        The whole replay stays array-shaped: scheduling orders come from
        :func:`~repro.hw.scheduler.scheduled_orders`, both caches are
        simulated over their full access sequences with
        :func:`~repro.hw.cache.simulate_lru_hits`, Occ resolution and MTL
        prediction run grouped by shared node, the increment fetches
        expand into a :class:`~repro.hw.dram.MemoryTrace` (only the few
        that cross a row or the chunk cap run the general row-span
        expansion), and every DRAM channel consumes its column shard.
        Field-for-field identical to
        :meth:`run_reference` (the request-at-a-time object model) by the
        oracle suite's contract.

        Args:
            requests: the Occ request stream to replay — the engine's
                columnar :class:`~repro.engine.coalesce.RequestStream`, a
                flushed :class:`~repro.engine.window.WindowedBatch` (both
                consumed without materialising request objects), or any
                :class:`~repro.exma.search.OccRequest` sequence.
            bases_processed: DNA bases the stream represents.  Defaults to
                the pre-coalescing estimate ``len(requests) * k / 2``; pass
                the issued-request count explicitly when replaying a
                coalesced stream, otherwise throughput is understated by
                the coalescing factor.
        """
        config = self._config
        kmers, positions = _request_columns(requests)
        count = int(kmers.size)
        ledger = EnergyLedger()
        row_bytes = config.dram_config().row_bytes
        cam_entries = config.cam_entries

        stage1, stage2 = scheduled_orders(
            kmers, positions, cam_entries, config.two_stage_scheduling
        )

        # Stage 1: base-cache accesses in per-batch k-mer order.  The
        # cache's behaviour depends only on its own access sequence, so
        # the whole run's stage-1 stream is simulated in one call even
        # though the trace interleaves stage-1 and stage-2 per CAM batch.
        base_addresses = (
            self._layout["base_offset"] + kmers[stage1] * BASE_ENTRY_BYTES
        )
        base_hits = simulate_lru_hits(
            base_addresses,
            config.base_cache_bytes,
            config.cache_line_bytes,
            config.base_cache_ways,
        )
        base_miss = ~base_hits

        # Stage 2 columns, in per-batch pos order.  The keep-open hints
        # are read off a per-batch k-mer grouping, which is stage 1 of the
        # 2-stage order whichever scheduler issues the requests.
        stage2_kmers = kmers[stage2]
        grouped = (
            stage1
            if config.two_stage_scheduling
            else scheduled_orders(kmers, positions, cam_entries, True)[0]
        )
        keep_open = keep_open_flags(kmers, grouped, stage2, cam_entries)
        modelled = self._modelled_lookup[stage2_kmers]
        modelled_slots = np.flatnonzero(modelled)
        exact_slots = np.flatnonzero(~modelled)
        modelled_kmers = stage2_kmers[modelled_slots]

        # Occ is ranked in arrival order — a flushed window arrives
        # key-sorted, so the rank queries walk the increment array forward
        # — and then permuted into issue order.  An exact scan reads from
        # the k-mer's first entry up to the true one; a modelled lookup
        # reads its probe distance plus two entries.
        true_index = self._table.occ_batch(kmers, positions)[stage2]
        exact_true = true_index[exact_slots]
        exact_entries = np.maximum(
            1,
            np.minimum(self._table.frequency_batch(stage2_kmers[exact_slots]), exact_true + 1),
        )
        predicted = np.empty(count, dtype=np.int64)
        predicted[exact_slots] = np.maximum(0, exact_true - exact_entries + 1)
        if modelled_slots.size:
            assert self._index is not None
            predicted[modelled_slots] = self._index.predict_many(
                modelled_kmers, positions[stage2[modelled_slots]]
            )
        entries = np.abs(true_index - predicted)
        entries += 2
        entries[exact_slots] = exact_entries

        # Index-cache accesses: the shared bucket node then the leaf, per
        # modelled request, again simulated as one sequence.
        index_addresses = np.empty(2 * modelled_slots.size, dtype=np.int64)
        index_addresses[0::2] = self._bucket_addresses[modelled_kmers]
        index_addresses[1::2] = self._leaf_addresses[modelled_kmers]
        index_hits = simulate_lru_hits(
            index_addresses,
            config.index_cache_bytes,
            config.cache_line_bytes,
            config.index_cache_ways,
        )

        inference_lookups = int(modelled_slots.size)
        increment_entries = int(entries.sum())

        # Increment fetch: one byte range per slot.
        entry_bytes = INCREMENT_ENTRY_BYTES * self._chain_ratio
        fetch_start = self._layout["increment_offset"] + (
            (self._fetch_bases[stage2_kmers] + predicted).astype(np.float64)
            * entry_bytes
        ).astype(np.int64)
        fetch_bytes = np.maximum(
            1,
            (
                (entries * INCREMENT_ENTRY_BYTES).astype(np.float64)
                * self._chain_ratio
            ).astype(np.int64),
        )

        trace = self._assemble_trace(
            count,
            cam_entries,
            row_bytes,
            base_addresses,
            base_miss,
            modelled_slots,
            index_addresses,
            index_hits,
            fetch_start,
            fetch_bytes,
            keep_open,
        )

        if count:
            ledger.record("scheduling_queue", count)
            ledger.record("base_cache", count)
            ledger.record("sched_and_row", count)
        index_misses = int(index_hits.size - index_hits.sum())
        # Every trace entry is one DMA transfer: a base miss, an index-node
        # miss or an increment chunk.
        dma_operations = len(trace)
        if dma_operations:
            ledger.record("dma_ctrl", dma_operations)
        if index_hits.size:
            ledger.record("index_cache", int(index_hits.size))
        if inference_lookups:
            ledger.record("inference_engine", inference_lookups)
        if increment_entries:
            ledger.record("decompress", increment_entries)

        base_misses = int(base_miss.sum())
        base_cache_stats = CacheStats(hits=count - base_misses, misses=base_misses)
        index_cache_stats = CacheStats(
            hits=int(index_hits.size) - index_misses, misses=index_misses
        )

        # Replay DRAM traffic, sharded over channels.
        dram_config = config.dram_config()
        per_channel = [
            DRAMModel(dram_config, page_policy=config.page_policy).process_columns(
                channel_trace
            )
            for channel_trace in trace.split_channels(config.channels)
        ]
        dram_cycles = max((stats.total_cycles for stats in per_channel), default=0)
        dram_stats = self._merge_dram(per_channel, dram_cycles)

        inference_cost = self._engine.batch_cost(inference_lookups)
        # Convert engine cycles (800 MHz) to DRAM-clock cycles (1200 MHz).
        dram_clock = dram_config.clock_mhz
        inference_cycles = int(
            inference_cost.cycles * dram_clock / self._engine.config.clock_mhz
        )
        total_cycles = max(dram_cycles, inference_cycles)
        seconds = total_cycles / (dram_clock * 1e6)

        bases = (
            bases_processed if bases_processed is not None else self._bases_processed(count)
        )
        accelerator_energy = ledger.total_energy_j(seconds) + inference_cost.energy_pj * 1e-12
        dram_energy = dram_stats.energy_nj * 1e-9

        return AcceleratorRunResult(
            name=name,
            requests=count,
            bases_processed=bases,
            total_cycles=total_cycles,
            dram_cycles=dram_cycles,
            inference_cycles=inference_cycles,
            seconds=seconds,
            base_cache=base_cache_stats,
            index_cache=index_cache_stats,
            dram=dram_stats,
            energy=ledger,
            accelerator_energy_j=accelerator_energy,
            dram_energy_j=dram_energy,
            increment_entries_read=increment_entries,
            dram_requests=len(trace),
            per_channel=per_channel,
        )

    @staticmethod
    def _assemble_trace(
        count: int,
        cam_entries: int,
        row_bytes: int,
        base_addresses: np.ndarray,
        base_miss: np.ndarray,
        modelled_slots: np.ndarray,
        index_addresses: np.ndarray,
        index_hits: np.ndarray,
        fetch_start: np.ndarray,
        fetch_bytes: np.ndarray,
        keep_open: np.ndarray,
    ) -> MemoryTrace:
        """Scatter the per-stage access columns into one issue-order trace.

        The reference interleaving per CAM batch is: every stage-1 base
        miss (stage-1 order), then per stage-2 slot its index-node misses
        (bucket before leaf) followed by its increment chunks (the fetch
        byte range cut by :func:`_expand_row_spans`), on the slot's stream
        ``slot % cam_entries``.  Each slot owns its misses and chunks and a
        batch's stage-1 misses are charged to its first slot, so one
        cumulative sum over the slots places everything.  Per-slot columns
        are scattered once, to each slot's first chunk; only the misses and
        the later chunks of multi-chunk slots (a few per cent of each) are
        expanded on their own.
        """
        if count == 0:
            return MemoryTrace()
        first_rows, first_bytes, chunks_per_slot, rest_rows, rest_bytes = (
            _expand_row_spans(fetch_start, fetch_bytes, row_bytes, BURST_BYTES * 8)
        )
        batches = -(-count // cam_entries)
        streams = np.tile(np.arange(cam_entries, dtype=np.int64), batches)[:count]
        base_slots = np.flatnonzero(base_miss)
        base_batches = base_slots // cam_entries
        stage1_per_batch = np.bincount(base_batches, minlength=batches)
        bucket_missed = ~index_hits[0::2]
        leaf_missed = ~index_hits[1::2]
        bucket_slots = modelled_slots[bucket_missed]
        leaf_slots = modelled_slots[leaf_missed]

        owned = chunks_per_slot.copy()
        owned[bucket_slots] += 1
        owned[leaf_slots] += 1
        owned[::cam_entries] += stage1_per_batch
        slot_end = np.cumsum(owned)
        chunk_start = slot_end - chunks_per_slot

        total = int(slot_end[-1])
        rows = np.empty(total, dtype=np.int64)
        nbytes = np.empty(total, dtype=np.int64)
        keep = np.zeros(total, dtype=bool)
        request_streams = np.zeros(total, dtype=np.int64)

        # Stage-1 misses open their batch, right after the previous
        # batch's last slot.
        batch_begin = np.zeros(batches, dtype=np.int64)
        batch_begin[1:] = slot_end[cam_entries - 1 : count - 1 : cam_entries]
        stage1_before = np.cumsum(stage1_per_batch) - stage1_per_batch
        stage1_dest = np.arange(base_slots.size, dtype=np.int64) + (
            batch_begin - stage1_before
        )[base_batches]
        rows[stage1_dest] = base_addresses[base_slots] // row_bytes
        nbytes[stage1_dest] = BURST_BYTES

        # Index-node misses sit just before their slot's first chunk.
        leaf_dest = chunk_start[leaf_slots] - 1
        rows[leaf_dest] = index_addresses[1::2][leaf_missed] // row_bytes
        nbytes[leaf_dest] = BURST_BYTES
        request_streams[leaf_dest] = streams[leaf_slots]
        bucket_dest = chunk_start[bucket_slots] - 1 - leaf_missed[bucket_missed]
        rows[bucket_dest] = index_addresses[0::2][bucket_missed] // row_bytes
        nbytes[bucket_dest] = BURST_BYTES
        request_streams[bucket_dest] = streams[bucket_slots]

        # Increment chunks: every slot's first, then the rest of the
        # multi-chunk slots, each carrying its slot's hint and stream.
        rows[chunk_start] = first_rows
        nbytes[chunk_start] = first_bytes
        keep[chunk_start] = keep_open
        request_streams[chunk_start] = streams
        multi = np.flatnonzero(chunks_per_slot > 1)
        more = chunks_per_slot[multi] - 1
        rest_dest = np.repeat(chunk_start[multi] + 1, more) + _segment_arange(more)
        rows[rest_dest] = rest_rows
        nbytes[rest_dest] = rest_bytes
        keep[rest_dest] = np.repeat(keep_open[multi], more)
        request_streams[rest_dest] = np.repeat(streams[multi], more)
        return MemoryTrace(
            rows=rows, nbytes=nbytes, keep_open=keep, streams=request_streams
        )

    def run_reference(
        self,
        requests: "Sequence[OccRequest]",
        name: str = "EXMA",
        bases_processed: int | None = None,
    ) -> AcceleratorRunResult:
        """Replay *requests* one at a time through the object pipeline.

        The original request-at-a-time model — CAM scheduling via
        :class:`~repro.hw.cam.SchedulingQueue`, per-access
        :meth:`~repro.hw.cache.SetAssociativeCache.access` calls,
        :class:`~repro.hw.dram.MemoryRequest` objects — kept as the
        executable specification the oracle suite holds :meth:`run` to.
        Orders of magnitude slower than the columnar replay; use it for
        equivalence checks, not experiments.
        """
        config = self._config
        base_cache = SetAssociativeCache(
            config.base_cache_bytes, config.cache_line_bytes, config.base_cache_ways
        )
        index_cache = SetAssociativeCache(
            config.index_cache_bytes, config.cache_line_bytes, config.index_cache_ways
        )
        ledger = EnergyLedger()
        scheduler = (
            TwoStageScheduler(config.cam_config())
            if config.two_stage_scheduling
            else FrFcfsScheduler(config.cam_config())
        )

        dram_trace: list[MemoryRequest] = []
        inference_lookups = 0
        increment_entries = 0
        row_bytes = config.dram_config().row_bytes

        for batch in scheduler.schedule(requests):
            # Stage 1: base-cache accesses in k-mer order.
            for request in batch.stage1:
                ledger.record("scheduling_queue")
                ledger.record("base_cache")
                address = self._base_address(request.packed_kmer)
                hit = base_cache.access(address)
                if not hit:
                    dram_trace.append(
                        MemoryRequest(row=address // row_bytes, nbytes=BURST_BYTES, stream=0)
                    )
                    ledger.record("dma_ctrl")

            # Stage 2: index-cache accesses, inference and increment fetch
            # in pos order, with keep-open hints for the dynamic policy.
            annotated = pair_requests_by_kmer(batch.stage2)
            for stream_id, (request, keep_open) in enumerate(annotated):
                ledger.record("sched_and_row")
                packed = request.packed_kmer
                modelled = self._index is not None and self._index.has_model(packed)
                if modelled:
                    assert self._index is not None
                    for node_id in self._index.node_ids_for(packed):
                        ledger.record("index_cache")
                        address = self._index_node_address(node_id)
                        hit = index_cache.access(address)
                        if not hit:
                            dram_trace.append(
                                MemoryRequest(
                                    row=address // row_bytes, nbytes=BURST_BYTES, stream=stream_id
                                )
                            )
                            ledger.record("dma_ctrl")
                    inference_lookups += 1
                    ledger.record("inference_engine")
                    predicted = self._index.predict(packed, request.pos)
                    true_index = self._table.occ(packed, request.pos)
                    entries = 2 + abs(true_index - predicted)
                else:
                    true_index = self._table.occ(packed, request.pos)
                    count = self._table.frequency(packed)
                    entries = max(1, min(count, true_index + 1))
                    predicted = max(0, true_index - entries + 1)

                increment_entries += entries
                nbytes = max(
                    1, int(entries * INCREMENT_ENTRY_BYTES * self._chain_ratio)
                )
                ledger.record("decompress", entries)
                address = self._increment_address(packed, predicted)
                cursor = address
                remaining = nbytes
                while remaining > 0:
                    row = cursor // row_bytes
                    room_in_row = row_bytes - (cursor % row_bytes)
                    chunk = min(remaining, room_in_row, BURST_BYTES * 8)
                    dram_trace.append(
                        MemoryRequest(
                            row=row,
                            nbytes=chunk,
                            keep_open_hint=keep_open,
                            stream=stream_id,
                        )
                    )
                    ledger.record("dma_ctrl")
                    cursor += chunk
                    remaining -= chunk

        # Replay DRAM traffic, sharded over channels.
        per_channel = self._run_dram(dram_trace)
        dram_cycles = max((stats.total_cycles for stats in per_channel), default=0)
        dram_stats = self._merge_dram(per_channel, dram_cycles)

        inference_cost = self._engine.batch_cost(inference_lookups)
        # Convert engine cycles (800 MHz) to DRAM-clock cycles (1200 MHz).
        dram_clock = self._config.dram_config().clock_mhz
        inference_cycles = int(
            inference_cost.cycles * dram_clock / self._engine.config.clock_mhz
        )
        total_cycles = max(dram_cycles, inference_cycles)
        seconds = total_cycles / (dram_clock * 1e6)

        bases = (
            bases_processed if bases_processed is not None else self._bases_processed(len(requests))
        )
        accelerator_energy = ledger.total_energy_j(seconds) + inference_cost.energy_pj * 1e-12
        dram_energy = dram_stats.energy_nj * 1e-9

        return AcceleratorRunResult(
            name=name,
            requests=len(requests),
            bases_processed=bases,
            total_cycles=total_cycles,
            dram_cycles=dram_cycles,
            inference_cycles=inference_cycles,
            seconds=seconds,
            base_cache=base_cache.stats,
            index_cache=index_cache.stats,
            dram=dram_stats,
            energy=ledger,
            accelerator_energy_j=accelerator_energy,
            dram_energy_j=dram_energy,
            increment_entries_read=increment_entries,
            dram_requests=len(dram_trace),
            per_channel=per_channel,
        )

    def run_stream(
        self,
        windows: "Iterable[WindowedBatch | Sequence[OccRequest]]",
        name: str = "EXMA",
        replay_workers: int = 1,
        executor: str = "thread",
    ) -> WindowedRunResult:
        """Replay a stream of flushed windows, accounting each flush alone.

        *windows* is an iterator of :class:`~repro.engine.window
        .WindowedBatch` flushes (what :meth:`~repro.engine.window
        .CoalescingWindow.stream` yields) or plain request sequences.
        Each flush is one scheduling epoch: it is replayed with fresh
        queue/cache/DRAM state exactly as :meth:`run` would replay the
        same requests, so a W=1 stream is byte-identical per flush to the
        per-batch path.  A :class:`WindowedBatch` is consumed columnar
        end-to-end — its packed key array feeds the array schedulers
        directly and no request objects exist anywhere in the replay —
        and its bases default to the *issued* (pre-window-merge) count, so
        throughput stays comparable across window capacities while the
        replayed stream shrinks with W.

        Because epochs are independent, ``replay_workers > 1`` fans them
        across this accelerator's persistent worker pool
        (:class:`~repro.runtime.BackendWorkerPool`, the accelerator itself
        as the payload — the process executor ships it once per worker)
        and gathers the per-flush results in flush order: the result is
        **field-for-field identical** to the serial replay, which stays
        streaming (one flush resident at a time) and touches no pool.
        *replay_workers* is honoured verbatim.
        """
        workers = runtime.check_workers(replay_workers, "replay_workers")
        executor = runtime.check_executor(executor)
        batches = 0
        issued = 0

        def accounted():
            nonlocal batches, issued
            for flushed in windows:
                if isinstance(flushed, WindowedBatch):
                    batches += flushed.batches
                    issued += flushed.issued
                else:
                    batches += 1
                    issued += len(flushed)
                yield flushed

        if workers == 1:
            flushes = [replay_epoch(self, name, flushed) for flushed in accounted()]
        else:
            flushes = self._pool_for(self, executor, workers).map_shards(
                replay_epoch, accounted(), name
            )
        return WindowedRunResult(
            name=name, flushes=flushes, capacity=None, batches=batches, issued=issued
        )

    def replay_flush(
        self, flushed: "WindowedBatch", name: str = "EXMA"
    ) -> AcceleratorRunResult:
        """Replay one flushed window as an independent scheduling epoch.

        The single unit of work shared by :meth:`run_stream` and the
        always-on serving layer (:mod:`repro.serving`): the flush's merged
        key array feeds :meth:`run` columnar with fresh queue/cache/DRAM
        state, and bases are accounted from the flush's *issued*
        (pre-window-merge) request count so throughput stays comparable
        across window capacities.  Because both consumers call exactly
        this, a served stream's per-flush results are field-for-field
        identical to the offline :meth:`run_windowed` path over the same
        batch streams.
        """
        return self.run(
            flushed, name=name, bases_processed=self._bases_processed(flushed.issued)
        )

    def run_windowed(
        self,
        batch_streams: "Iterable[Sequence[OccRequest]]",
        window: "int | CoalescingWindow" = 1,
        name: str = "EXMA",
        replay_workers: int = 1,
        executor: str = "thread",
    ) -> WindowedRunResult:
        """Merge consecutive batch streams through a coalescing window and
        replay the flushes.

        The end-to-end windowed pipeline in one call: per-batch request
        streams (typically each batch's columnar
        :class:`~repro.engine.coalesce.RequestStream`) pass through a
        :class:`~repro.engine.window.CoalescingWindow` of capacity W and
        every flush is replayed as one scheduling epoch.  ``window=1``
        reproduces the per-batch path exactly.  *replay_workers* and
        *executor* pass straight to :meth:`run_stream` — windowing
        happens up front, so the flush epochs still fan across the pool.
        """
        if isinstance(window, int):
            window = CoalescingWindow(window)
        result = self.run_stream(
            window.stream(batch_streams),
            name=name,
            replay_workers=replay_workers,
            executor=executor,
        )
        result.capacity = window.capacity
        return result

    def _run_dram(self, trace: list[MemoryRequest]) -> list[DRAMStats]:
        """Shard the trace across channels and replay each channel."""
        config = self._config
        dram_config = config.dram_config()
        channels: list[list[MemoryRequest]] = [[] for _ in range(config.channels)]
        for request in trace:
            channels[request.row % config.channels].append(request)
        results = []
        for channel_trace in channels:
            model = DRAMModel(dram_config, page_policy=config.page_policy)
            results.append(model.process(channel_trace))
        return results

    @staticmethod
    def _merge_dram(per_channel: list[DRAMStats], total_cycles: int) -> DRAMStats:
        """Aggregate per-channel statistics into one record."""
        merged = DRAMStats()
        for stats in per_channel:
            merged.requests += stats.requests
            merged.row_hits += stats.row_hits
            merged.row_misses += stats.row_misses
            merged.row_conflicts += stats.row_conflicts
            merged.activations += stats.activations
            merged.precharges += stats.precharges
            merged.bytes_transferred += stats.bytes_transferred
            merged.data_bus_busy_cycles += stats.data_bus_busy_cycles
            merged.address_bus_busy_cycles += stats.address_bus_busy_cycles
            merged.energy_nj += stats.energy_nj
        merged.total_cycles = total_cycles
        # Utilisation across channels: busy cycles relative to what all
        # channels could have moved in the same window.
        if total_cycles > 0 and per_channel:
            merged.data_bus_busy_cycles = int(
                merged.data_bus_busy_cycles / len(per_channel)
            )
        return merged

    def _bases_processed(self, request_count: int) -> int:
        """DNA bases consumed by *request_count* Occ lookups.

        Each backward-search iteration issues two Occ lookups (low and
        high) and consumes k symbols; an empty stream consumes none.
        """
        if request_count == 0:
            return 0
        return max(1, request_count * self._table.k // 2)


def _request_columns(
    requests: "Sequence[OccRequest]",
) -> tuple[np.ndarray, np.ndarray]:
    """Packed k-mer and position columns of any request container.

    The engine's :class:`~repro.engine.coalesce.RequestStream` and the
    window's :class:`~repro.engine.window.WindowedBatch` hand their arrays
    over directly (no object materialisation); plain sequences are packed
    once.
    """
    if isinstance(requests, (WindowedBatch, RequestStream)):
        return requests.kmers, requests.positions
    count = len(requests)
    kmers = np.fromiter((request.packed_kmer for request in requests), np.int64, count)
    positions = np.fromiter((request.pos for request in requests), np.int64, count)
    return kmers, positions


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (repeat ranks)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _expand_row_spans(
    starts: np.ndarray, nbytes: np.ndarray, row_bytes: int, chunk_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut byte ranges into per-row DMA chunks, vectorized.

    The array form of the reference replay's cursor loop: each range
    ``[start, start + nbytes)`` is cut at DRAM row boundaries, and every
    row segment is fetched in bursts of at most *chunk_cap* bytes with the
    remainder last — exactly the greedy ``min(remaining, room_in_row,
    cap)`` sequence.  Every range's first chunk is that minimum taken at
    its start; only the ranges it leaves unfinished — those crossing a row
    or exceeding the cap, a few per cent of a flush — resume the cursor
    after it through two ``repeat``/``arange`` expansions.

    Returns ``(first_rows, first_sizes, chunks_per_range, rest_rows,
    rest_sizes)``: each range's first chunk and chunk count, then every
    later chunk of the multi-chunk ranges, range-major in ascending-row
    order (the issue order).
    """
    first_rows = starts // row_bytes
    first_sizes = np.minimum(nbytes, (first_rows + 1) * row_bytes - starts)
    np.minimum(first_sizes, chunk_cap, out=first_sizes)
    unfinished = np.flatnonzero(first_sizes < nbytes)
    rest_starts = starts[unfinished] + first_sizes[unfinished]
    rest_ends = starts[unfinished] + nbytes[unfinished]
    rest_first_rows = rest_starts // row_bytes
    rows_per_range = (rest_ends - 1) // row_bytes - rest_first_rows + 1
    range_of_row = np.repeat(np.arange(unfinished.size, dtype=np.int64), rows_per_range)
    row_ids = np.repeat(rest_first_rows, rows_per_range) + _segment_arange(rows_per_range)
    segment_start = np.maximum(rest_starts[range_of_row], row_ids * row_bytes)
    segment_end = np.minimum(rest_ends[range_of_row], (row_ids + 1) * row_bytes)
    segment_len = segment_end - segment_start
    chunks_per_row = -(-segment_len // chunk_cap)
    row_of_chunk = np.repeat(np.arange(row_ids.size, dtype=np.int64), chunks_per_row)
    within_row = _segment_arange(chunks_per_row)
    rest_sizes = np.minimum(
        chunk_cap, segment_len[row_of_chunk] - within_row * chunk_cap
    )
    rest_rows = row_ids[row_of_chunk]
    row_starts = np.cumsum(rows_per_range) - rows_per_range
    chunks_per_range = np.ones(starts.size, dtype=np.int64)
    chunks_per_range[unfinished] += np.add.reduceat(chunks_per_row, row_starts)
    return first_rows, first_sizes, chunks_per_range, rest_rows, rest_sizes
