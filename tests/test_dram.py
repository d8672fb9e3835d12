"""Unit tests for the DDR4 timing/energy model (repro.hw.dram)."""

from __future__ import annotations

import pytest

from repro.hw.dram import (
    BURST_BYTES,
    DDR4Config,
    DRAMEnergyModel,
    DRAMModel,
    MemoryRequest,
    PagePolicy,
    rows_for_bytes,
)


class TestDDR4Config:
    def test_table1_defaults(self):
        config = DDR4Config()
        assert config.channels == 4
        assert config.dimms_per_channel == 3
        assert config.ranks_per_dimm == 4
        assert config.chips_per_rank == 16
        assert config.row_bytes == 2048
        assert (config.trcd, config.tcas, config.trp) == (16, 16, 16)

    def test_banks_per_channel(self):
        assert DDR4Config().banks_per_channel == 3 * 4 * 2 * 2

    def test_burst_cycles(self):
        config = DDR4Config()
        assert config.burst_cycles(64) == 4
        assert config.burst_cycles(1) == 1
        assert config.burst_cycles(2048) == 128

    def test_burst_cycles_invalid(self):
        with pytest.raises(ValueError):
            DDR4Config().burst_cycles(0)

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            DDR4Config(channels=0)

    def test_invalid_timing_raises(self):
        with pytest.raises(ValueError):
            DDR4Config(trcd=-1)

    def test_capacity(self):
        assert DDR4Config().total_capacity_gb == 384


class TestPagePolicies:
    def _same_row_trace(self, count=8):
        return [MemoryRequest(row=5, nbytes=64, stream=i) for i in range(count)]

    def test_close_page_never_hits(self):
        model = DRAMModel(page_policy=PagePolicy.CLOSE)
        stats = model.process(self._same_row_trace())
        assert stats.row_hits == 0
        assert stats.row_misses + stats.row_conflicts == stats.requests

    def test_open_page_hits_on_same_row(self):
        model = DRAMModel(page_policy=PagePolicy.OPEN)
        stats = model.process(self._same_row_trace())
        assert stats.row_hits == 7
        assert stats.row_misses == 1

    def test_open_page_conflict_on_same_bank_different_row(self):
        config = DDR4Config()
        rows = [0, config.banks_per_channel, 0]  # same bank, alternating rows
        model = DRAMModel(config, page_policy=PagePolicy.OPEN)
        stats = model.process([MemoryRequest(row=r) for r in rows])
        assert stats.row_conflicts >= 1

    def test_dynamic_page_respects_hint(self):
        model = DRAMModel(page_policy=PagePolicy.DYNAMIC)
        trace = [
            MemoryRequest(row=9, keep_open_hint=True, stream=0),
            MemoryRequest(row=9, keep_open_hint=False, stream=1),
            MemoryRequest(row=9, keep_open_hint=False, stream=2),
        ]
        stats = model.process(trace)
        assert stats.row_hits == 1  # second access hits, third misses again

    def test_dynamic_beats_close_on_paired_accesses(self):
        trace = []
        for i in range(0, 64, 2):
            trace.append(MemoryRequest(row=i, keep_open_hint=True, stream=i))
            trace.append(MemoryRequest(row=i, keep_open_hint=False, stream=i))
        close_stats = DRAMModel(page_policy=PagePolicy.CLOSE).process(trace)
        dyn_stats = DRAMModel(page_policy=PagePolicy.DYNAMIC).process(trace)
        assert dyn_stats.row_hit_rate > close_stats.row_hit_rate
        assert dyn_stats.total_cycles <= close_stats.total_cycles


class TestTimingAndStats:
    def test_single_access_latency(self):
        config = DDR4Config()
        stats = DRAMModel(config).process([MemoryRequest(row=0)])
        assert stats.total_cycles == config.trcd + config.tcas + config.burst_cycles(64)

    def test_bytes_transferred(self):
        stats = DRAMModel().process([MemoryRequest(row=i, nbytes=64) for i in range(10)])
        assert stats.bytes_transferred == 640

    def test_bandwidth_utilization_bounded(self):
        stats = DRAMModel().process([MemoryRequest(row=i) for i in range(50)])
        assert 0.0 < stats.bandwidth_utilization <= 1.0

    def test_larger_payload_increases_utilization(self):
        small = DRAMModel().process([MemoryRequest(row=i, nbytes=64, stream=i) for i in range(40)])
        large = DRAMModel().process([MemoryRequest(row=i, nbytes=512, stream=i) for i in range(40)])
        assert large.bandwidth_utilization > small.bandwidth_utilization

    def test_independent_streams_overlap(self):
        serial = DRAMModel().process([MemoryRequest(row=i, stream=0) for i in range(20)])
        parallel = DRAMModel().process([MemoryRequest(row=i, stream=i) for i in range(20)])
        assert parallel.total_cycles <= serial.total_cycles

    def test_empty_trace(self):
        stats = DRAMModel().process([])
        assert stats.requests == 0
        assert stats.total_cycles == 0
        assert stats.row_hit_rate == 0.0

    def test_invalid_nbytes_raises(self):
        with pytest.raises(ValueError):
            DRAMModel().process([MemoryRequest(row=0, nbytes=0)])

    def test_address_bus_busy_counts_commands(self):
        stats = DRAMModel(page_policy=PagePolicy.CLOSE).process(
            [MemoryRequest(row=i) for i in range(5)]
        )
        # Close page: first touch of a bank is a miss (ACT + RD = 2 slots).
        assert stats.address_bus_busy_cycles == 10


class TestEnergyModel:
    def test_energy_positive(self):
        stats = DRAMModel().process([MemoryRequest(row=i) for i in range(10)])
        assert stats.energy_nj > 0

    def test_more_activations_more_energy(self):
        hits = DRAMModel(page_policy=PagePolicy.OPEN).process(
            [MemoryRequest(row=0) for _ in range(32)]
        )
        misses = DRAMModel(page_policy=PagePolicy.CLOSE).process(
            [MemoryRequest(row=0) for _ in range(32)]
        )
        assert misses.energy_nj > hits.energy_nj

    def test_access_energy_formula(self):
        model = DRAMEnergyModel()
        energy = model.access_energy_nj(activations=2, reads_64b=3, precharges=2, cycles=0)
        assert energy == pytest.approx(2 * 2.7 + 3 * 4.2 + 2 * 1.7)


class TestRowsForBytes:
    def test_single_row(self):
        assert rows_for_bytes(0, 64, 2048) == [0]

    def test_spanning_rows(self):
        assert rows_for_bytes(2000, 100, 2048) == [0, 1]

    def test_exact_boundary(self):
        assert rows_for_bytes(2048, 2048, 2048) == [1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rows_for_bytes(0, 0, 2048)
        with pytest.raises(ValueError):
            rows_for_bytes(0, 64, 0)

    def test_burst_constant(self):
        assert BURST_BYTES == 64
