"""Transaction-level DDR4 main-memory timing model.

The paper evaluates every accelerator against the same DDR4-2400 main
memory (Table I: 4 channels, 3 DIMMs/channel, 4 ranks/DIMM, 16 chips/rank,
2 KB rows, tRCD-tCAS-tRP = 16-16-16) and argues entirely in terms of row
activations, row-buffer hits, data-bus occupancy and address-bus
contention.  This model captures exactly those effects:

* per-bank row-buffer state with open-, close- and *dynamic*-page policies
  (the EXMA controller keeps a row open only while a second request to the
  same k-mer is pending — Section IV-C3);
* a per-channel command/address bus where every PRE/ACT/RD command takes
  one slot, which is what throttles MEDAL's chip-level parallelism
  (Fig. 7);
* a per-channel data bus whose busy fraction is the bandwidth-utilisation
  metric of Fig. 21;
* activation / read / precharge / background energy in the style of
  DRAMPower.

The model is intentionally transaction-level, not cycle-accurate gem5 +
DRAMsim2; DESIGN.md records this substitution.

:meth:`DRAMModel.process` is the per-request object model; the replay's
:meth:`DRAMModel.process_columns` runs one channel's columns as one
compiled pass, or, where that declines, its NumPy + Python specification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .. import native, runtime

#: DDR4 burst length in bytes for a 64-bit channel (BL8).
BURST_BYTES = 64


def _bus_recurrence(
    banks, streams, commands, latencies, bursts, bumps, bank_count: int, stream_count: int
) -> int:
    """The serial bus/bank/stream timing chain over precomputed columns:
    the recurrence half of :meth:`DRAMModel._columns_spec`, the compiled
    pass's specification (tolist/zip, which beats numpy scalar indexing)."""
    bank_ready = [0] * bank_count
    stream_ready = [0] * stream_count
    addr_bus_free = data_bus_free = 0
    for bank, stream, command_count, request_latency, burst, bump in zip(
        *(c.tolist() for c in (banks, streams, commands, latencies, bursts, bumps))
    ):
        issue = bank_ready[bank]
        pending = stream_ready[stream]
        if pending > issue:
            issue = pending
        if addr_bus_free > issue:
            issue = addr_bus_free
        addr_bus_free = issue + command_count
        data_start = issue + request_latency
        if data_bus_free > data_start:
            data_start = data_bus_free
        data_end = data_start + burst
        data_bus_free = data_end
        bank_ready[bank] = data_end + bump
        stream_ready[stream] = data_end
    return data_bus_free


class PagePolicy(enum.Enum):
    """Row-buffer management policy."""

    CLOSE = "close"
    OPEN = "open"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class DDR4Config:
    """Geometry and timing of the DDR4-2400 main memory (Table I)."""

    channels: int = 4
    dimms_per_channel: int = 3
    ranks_per_dimm: int = 4
    chips_per_rank: int = 16
    bank_groups_per_rank: int = 2
    banks_per_group: int = 2
    row_bytes: int = 2048
    trcd: int = 16
    tcas: int = 16
    trp: int = 16
    clock_mhz: float = 1200.0
    bus_bytes_per_cycle: int = 16  # 64-bit bus, double data rate
    address_bus_bits: int = 17

    def __post_init__(self) -> None:
        # Integers only: a float timing would price two paths differently.
        for name in (
            "channels", "dimms_per_channel", "ranks_per_dimm", "chips_per_rank",
            "bank_groups_per_rank", "banks_per_group", "row_bytes", "bus_bytes_per_cycle",
        ):
            runtime.check_workers(getattr(self, name), name)
        for name in ("trcd", "tcas", "trp"):
            runtime.check_workers(getattr(self, name), name, minimum=0)

    @property
    def banks_per_channel(self) -> int:
        """Independently schedulable banks on one channel."""
        return (
            self.dimms_per_channel
            * self.ranks_per_dimm
            * self.bank_groups_per_rank
            * self.banks_per_group
        )

    @property
    def total_capacity_gb(self) -> int:
        """Main-memory capacity in GB (Table I lists 384 GB)."""
        return 384

    def burst_cycles(self, nbytes: int) -> int:
        """Data-bus cycles needed to transfer *nbytes*."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return max(1, -(-nbytes // self.bus_bytes_per_cycle))


@dataclass(frozen=True)
class DRAMEnergyModel:
    """Per-event DRAM energy in nanojoules (DRAMPower-style constants)."""

    activate_nj: float = 2.7
    precharge_nj: float = 1.7
    read_per_64b_nj: float = 4.2
    write_per_64b_nj: float = 4.6
    background_nw_per_cycle: float = 35.0

    def access_energy_nj(self, activations: int, reads_64b: int, precharges: int, cycles: int) -> float:
        """Total energy for a window of activity."""
        return (
            activations * self.activate_nj
            + precharges * self.precharge_nj
            + reads_64b * self.read_per_64b_nj
            + cycles * self.background_nw_per_cycle * 1e-3
        )


@dataclass(frozen=True)
class MemoryRequest:
    """One DRAM read request.

    ``row`` is a global row identifier; the model derives channel and bank
    from it.  ``nbytes`` is the payload actually needed by the requester
    (the data bus still moves whole bursts).  ``keep_open_hint`` is set by
    the EXMA controller when a second request to the same row is already
    pending (dynamic page policy); ``stream`` identifies the independent
    request stream (query) the request belongs to, which determines how
    much latency can be overlapped.
    """

    row: int
    nbytes: int = BURST_BYTES
    keep_open_hint: bool = False
    stream: int = 0


@dataclass(slots=True)
class DRAMStats:
    """Aggregate results of replaying a request trace."""

    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activations: int = 0
    precharges: int = 0
    bytes_transferred: int = 0
    data_bus_busy_cycles: int = 0
    address_bus_busy_cycles: int = 0
    total_cycles: int = 0
    energy_nj: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests that hit an open row."""
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of data-bus cycles carrying useful data (Fig. 21)."""
        if self.total_cycles == 0:
            return 0.0
        return min(1.0, self.data_bus_busy_cycles / self.total_cycles)


#: Stream ids index the per-stream ready cycles, so a negative one would
#: silently alias another stream's in the columnar model.
NEGATIVE_STREAM = "request stream must be non-negative"


def _check_streams(streams: np.ndarray) -> None:
    if streams.size and int(streams.min()) < 0:
        raise ValueError(NEGATIVE_STREAM)


@dataclass
class MemoryTrace:
    """A DRAM request trace as aligned column arrays.

    The columnar twin of ``list[MemoryRequest]``: one int64/bool column per
    request field, in issue order.  The accelerator's replay builds one
    trace per run with pure array arithmetic (no request objects), shards
    it across channels by row, and hands each shard to
    :meth:`DRAMModel.process_columns`.
    """

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    nbytes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    keep_open: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    streams: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.rows.size)

    @classmethod
    def from_requests(cls, requests: "list[MemoryRequest]") -> "MemoryTrace":
        """Pack an object trace into columns (tests and adapters)."""
        streams = np.fromiter((r.stream for r in requests), np.int64, len(requests))
        _check_streams(streams)
        return cls(
            rows=np.fromiter((r.row for r in requests), np.int64, len(requests)),
            nbytes=np.fromiter((r.nbytes for r in requests), np.int64, len(requests)),
            keep_open=np.fromiter(
                (r.keep_open_hint for r in requests), bool, len(requests)
            ),
            streams=streams,
        )

    def take(self, indices: np.ndarray) -> "MemoryTrace":
        """The sub-trace at *indices* (an index array or a slice)."""
        return MemoryTrace(
            rows=self.rows[indices],
            nbytes=self.nbytes[indices],
            keep_open=self.keep_open[indices],
            streams=self.streams[indices],
        )

    def split_channels(self, channels: int) -> "list[MemoryTrace]":
        """Shard by ``row % channels``, preserving per-channel issue order."""
        if channels <= 0:
            raise ValueError("channels must be positive")
        # ``rows % channels`` (floored), spelled with a floor division,
        # which NumPy does several times faster than the remainder; one
        # stable radix sort of the narrow ids makes each shard a slice.
        assignment = self.rows - self.rows // channels * channels
        order = np.argsort(assignment.astype(np.min_scalar_type(channels - 1)), kind="stable")
        ends = np.cumsum(np.bincount(assignment, minlength=channels)).tolist()
        grouped = self.take(order)
        return [grouped.take(slice(start, end)) for start, end in zip([0] + ends, ends)]


@dataclass
class _BankState:
    open_row: int | None = None
    ready_cycle: int = 0


class DRAMModel:
    """Replays an ordered stream of :class:`MemoryRequest` on one channel.

    The model serialises command and data bus usage, lets banks overlap
    their row-cycle latencies, and applies the configured page policy.
    Only one channel is modelled explicitly; the accelerator layer shards
    traffic across channels and aggregates.
    """

    def __init__(
        self,
        config: DDR4Config | None = None,
        page_policy: PagePolicy = PagePolicy.CLOSE,
        energy_model: DRAMEnergyModel | None = None,
    ) -> None:
        self._config = config or DDR4Config()
        self._policy = page_policy
        self._energy = energy_model or DRAMEnergyModel()

    def process(self, requests: list[MemoryRequest]) -> DRAMStats:
        """Replay *requests* in order and return aggregate statistics."""
        cfg = self._config
        stats = DRAMStats()
        banks = [_BankState() for _ in range(cfg.banks_per_channel)]
        addr_bus_free = 0
        data_bus_free = 0
        stream_ready: dict[int, int] = {}

        for request in requests:
            if request.nbytes <= 0:
                raise ValueError("request nbytes must be positive")
            if request.stream < 0:
                raise ValueError(NEGATIVE_STREAM)
            bank_index = request.row % cfg.banks_per_channel
            bank = banks[bank_index]
            stats.requests += 1

            earliest = max(bank.ready_cycle, stream_ready.get(request.stream, 0))

            # Command sequence and its address-bus slots.
            commands = 1  # RD / partial-row column access
            latency = cfg.tcas
            if bank.open_row is None:
                commands += 1  # ACT
                latency += cfg.trcd
                stats.row_misses += 1
                stats.activations += 1
            elif bank.open_row == request.row:
                stats.row_hits += 1
            else:
                commands += 2  # PRE + ACT
                latency += cfg.trp + cfg.trcd
                stats.row_conflicts += 1
                stats.activations += 1
                stats.precharges += 1

            # MEDAL-style chip-level parallelism issues one command pair per
            # chip access; the partial-row payload is smaller but the
            # shared 17-bit address bus still carries every command.
            issue = max(earliest, addr_bus_free)
            addr_bus_free = issue + commands
            stats.address_bus_busy_cycles += commands

            burst = cfg.burst_cycles(request.nbytes)
            data_start = max(issue + latency, data_bus_free)
            data_end = data_start + burst
            data_bus_free = data_end
            stats.data_bus_busy_cycles += burst
            stats.bytes_transferred += request.nbytes

            # Page-policy handling decides the bank's next state.
            close_now = self._should_close(request)
            if close_now:
                bank.open_row = None
                bank.ready_cycle = data_end + cfg.trp
                stats.precharges += 1
            else:
                bank.open_row = request.row
                bank.ready_cycle = data_end

            stream_ready[request.stream] = data_end
            stats.total_cycles = max(stats.total_cycles, data_end)

        reads_64b = max(1, stats.bytes_transferred // BURST_BYTES) if stats.requests else 0
        stats.energy_nj = self._energy.access_energy_nj(
            stats.activations, reads_64b, stats.precharges, stats.total_cycles
        )
        return stats

    def process_columns(self, trace: MemoryTrace) -> DRAMStats:
        """Replay a columnar trace; identical statistics to :meth:`process`.

        One compiled pass over the columns computes every counter; where
        it declines, :meth:`_columns_spec` does.
        """
        cfg = self._config
        count = len(trace)
        if count == 0:
            return DRAMStats()
        if int(trace.nbytes.min()) <= 0:
            raise ValueError("request nbytes must be positive")
        _check_streams(trace.streams)
        counters = native.dram_channel(
            trace.rows, trace.nbytes, trace.keep_open, trace.streams, cfg.banks_per_channel,
            (cfg.tcas, cfg.trcd, cfg.trp), cfg.bus_bytes_per_cycle,
            (PagePolicy.OPEN, PagePolicy.CLOSE, PagePolicy.DYNAMIC).index(self._policy),
        )
        stats = self._columns_spec(trace) if counters is None else DRAMStats(count, *counters)
        reads_64b = max(1, stats.bytes_transferred // BURST_BYTES)
        stats.energy_nj = self._energy.access_energy_nj(
            stats.activations, reads_64b, stats.precharges, stats.total_cycles
        )
        return stats

    def _columns_spec(self, trace: MemoryTrace) -> DRAMStats:
        """The compiled pass's specification and fallback, energy aside.

        Everything that does not genuinely chain from one request to the
        next is vectorized up front: bank assignment, the page-policy
        close decision, the row hit/miss/conflict classification (each
        bank's next state is a pure function of its previous request's row
        and close decision, so one stable per-bank groupby decides every
        request at once), command counts, latencies and burst cycles.
        What remains is the timing recurrence itself — the address-bus and
        data-bus scalars plus the per-bank/per-stream ready cycles that
        actually carry between requests — run by :func:`_bus_recurrence`.
        """
        cfg = self._config
        stats = DRAMStats()
        count = len(trace)
        nbytes = trace.nbytes

        banks = trace.rows % cfg.banks_per_channel
        if self._policy is PagePolicy.CLOSE:
            closes = np.ones(count, dtype=bool)
        elif self._policy is PagePolicy.OPEN:
            closes = np.zeros(count, dtype=bool)
        else:
            closes = ~trace.keep_open

        # Per-bank previous-request classification: a bank presents an
        # open row to request i exactly when its previous request exists
        # and did not close, and the row matches.  Bank ids are narrow,
        # so grouping them is a radix sort.
        order = np.argsort(
            banks.astype(np.min_scalar_type(cfg.banks_per_channel - 1)), kind="stable"
        )
        banks_grouped = banks[order]
        rows_grouped = trace.rows[order]
        open_row = np.zeros(count, dtype=bool)
        open_row[1:] = (banks_grouped[1:] == banks_grouped[:-1]) & ~closes[order][:-1]
        same_row = np.zeros(count, dtype=bool)
        same_row[1:] = rows_grouped[1:] == rows_grouped[:-1]
        hits = np.empty(count, dtype=bool)
        conflicts = np.empty(count, dtype=bool)
        hits[order] = open_row & same_row
        conflicts[order] = open_row & ~same_row
        misses = ~hits & ~conflicts

        commands = 1 + misses + 2 * conflicts
        latency = cfg.tcas + cfg.trcd * (misses | conflicts) + cfg.trp * conflicts
        bursts = np.maximum(1, -(-nbytes // cfg.bus_bytes_per_cycle))
        ready_bumps = cfg.trp * closes

        stats.requests = count
        stats.row_hits = int(hits.sum())
        stats.row_misses = int(misses.sum())
        stats.row_conflicts = int(conflicts.sum())
        stats.activations = stats.row_misses + stats.row_conflicts
        stats.precharges = stats.row_conflicts + int(closes.sum())
        stats.bytes_transferred = int(nbytes.sum())
        stats.data_bus_busy_cycles = int(bursts.sum())
        stats.address_bus_busy_cycles = int(commands.sum())

        columns = (banks, trace.streams, commands, latency, bursts, ready_bumps)
        stats.total_cycles = _bus_recurrence(
            *columns, cfg.banks_per_channel, int(trace.streams.max()) + 1
        )
        return stats

    def _should_close(self, request: MemoryRequest) -> bool:
        """Whether the row is precharged right after this access."""
        if self._policy is PagePolicy.CLOSE:
            return True
        if self._policy is PagePolicy.OPEN:
            return False
        return not request.keep_open_hint


def rows_for_bytes(offset: int, nbytes: int, row_bytes: int) -> list[int]:
    """Row identifiers touched by a byte range (scalar reference helper).

    The columnar replay expands whole byte-range columns at once instead
    (see ``_expand_row_spans`` in :mod:`repro.accel.exma_accelerator`);
    this scalar form remains as the specification the tests check.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if row_bytes <= 0:
        raise ValueError("row_bytes must be positive")
    first = offset // row_bytes
    last = (offset + nbytes - 1) // row_bytes
    return list(range(first, last + 1))
