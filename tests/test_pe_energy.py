"""Unit tests for the PE-array inference engine and energy accounting."""

from __future__ import annotations

import pytest

from repro.hw.energy import (
    CPU_POWER_W,
    DRAM_SYSTEM_POWER_W,
    EXMA_ACCELERATOR_AREA_MM2,
    EXMA_ACCELERATOR_LEAKAGE_W,
    EXMA_COMPONENTS,
    EnergyLedger,
    SystemEnergyBreakdown,
)
from repro.hw.pe_array import InferenceEngine, PEArrayConfig


class TestPEArrayConfig:
    def test_table1_defaults(self):
        config = PEArrayConfig()
        assert config.arrays == 4
        assert config.rows == config.cols == 8
        assert config.clock_mhz == 800.0

    def test_total_pes(self):
        assert PEArrayConfig().total_pes == 4 * 64

    def test_macs_per_cycle(self):
        assert PEArrayConfig(arrays=2).macs_per_cycle == 128

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PEArrayConfig(arrays=0)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            PEArrayConfig(clock_mhz=0)


class TestInferenceEngine:
    def test_single_lookup_is_one_cycle(self):
        # One shared node + one leaf is ~42 MACs, well within 256 MACs/cycle.
        cost = InferenceEngine().lookup_cost()
        assert cost.cycles == 1
        assert cost.macs == InferenceEngine.SHARED_NODE_MACS + InferenceEngine.LEAF_MACS

    def test_energy_scales_with_macs(self):
        engine = InferenceEngine()
        single = engine.lookup_cost()
        double = engine.lookup_cost(shared_nodes=2, leaves=2)
        assert double.energy_pj > single.energy_pj

    def test_batch_cost_scales(self):
        engine = InferenceEngine()
        small = engine.batch_cost(10)
        large = engine.batch_cost(1000)
        assert large.cycles > small.cycles
        assert large.energy_pj == pytest.approx(100 * small.energy_pj)

    def test_batch_zero_lookups(self):
        cost = InferenceEngine().batch_cost(0)
        assert cost.cycles == 0
        assert cost.energy_pj == 0.0

    def test_more_arrays_fewer_cycles(self):
        two = InferenceEngine(PEArrayConfig(arrays=2)).batch_cost(10000)
        eight = InferenceEngine(PEArrayConfig(arrays=8)).batch_cost(10000)
        assert eight.cycles < two.cycles

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            InferenceEngine().lookup_cost(shared_nodes=-1)
        with pytest.raises(ValueError):
            InferenceEngine().batch_cost(-1)


class TestTable1Constants:
    def test_component_inventory(self):
        names = {c.name for c in EXMA_COMPONENTS}
        assert {"inference_engine", "scheduling_queue", "index_cache", "base_cache",
                "decompress", "sched_and_row", "dma_ctrl"} == names

    def test_total_area_matches_reported(self):
        total = sum(c.area_mm2 for c in EXMA_COMPONENTS)
        assert total == pytest.approx(EXMA_ACCELERATOR_AREA_MM2, rel=0.05)

    def test_leakage_value(self):
        assert EXMA_ACCELERATOR_LEAKAGE_W == pytest.approx(0.2238)

    def test_system_power_constants(self):
        assert DRAM_SYSTEM_POWER_W == 72.0
        assert CPU_POWER_W > 0


class TestEnergyLedger:
    def test_record_and_dynamic_energy(self):
        ledger = EnergyLedger()
        ledger.record("base_cache", 100)
        ledger.record("inference_engine", 10)
        expected_pj = 100 * 17.2 + 10 * 0.25
        assert ledger.dynamic_energy_j() == pytest.approx(expected_pj * 1e-12)

    def test_unknown_component_raises(self):
        ledger = EnergyLedger()
        ledger.record("warp_drive")
        with pytest.raises(KeyError):
            ledger.dynamic_energy_j()

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            EnergyLedger().record("base_cache", -1)

    def test_leakage_energy(self):
        assert EnergyLedger().leakage_energy_j(2.0) == pytest.approx(2 * EXMA_ACCELERATOR_LEAKAGE_W)

    def test_total_energy(self):
        ledger = EnergyLedger()
        ledger.record("dma_ctrl", 1000)
        assert ledger.total_energy_j(1.0) > ledger.dynamic_energy_j()

    def test_negative_seconds_raise(self):
        with pytest.raises(ValueError):
            EnergyLedger().leakage_energy_j(-1.0)


class TestSystemEnergyBreakdown:
    def _breakdown(self, scale=1.0):
        return SystemEnergyBreakdown(
            dram_chip_j=50 * scale,
            dram_io_j=20 * scale,
            accelerator_dynamic_j=1 * scale,
            accelerator_leakage_j=0.5 * scale,
            cpu_j=100 * scale,
        )

    def test_total(self):
        assert self._breakdown().total_j == pytest.approx(171.5)
