"""Unit tests for the accelerator layer: config, metrics, EXMA accelerator, baselines."""

from __future__ import annotations

import pytest

from repro.accel.baselines import (
    CpuThroughputModel,
    SoftwareAlgorithm,
    asic_model,
    exma_analytic_model,
    finder_model,
    fpga_model,
    gpu_model,
    medal_model,
    standard_accelerator_suite,
)
from repro.accel.config import (
    CpuConfig,
    ExmaAcceleratorConfig,
    ex_2stage_config,
    ex_acc_config,
    exma_full_config,
)
from repro.accel.exma_accelerator import ExmaAccelerator
from repro.accel.metrics import ApplicationRun, SearchThroughput, geometric_mean
from repro.exma.search import ExmaSearch
from repro.hw.dram import PagePolicy


class TestConfig:
    def test_cpu_config_table1(self):
        cpu = CpuConfig()
        assert cpu.cores == 16 and cpu.llc_mb == 40 and cpu.llc_mshrs == 64

    def test_accelerator_defaults_table1(self):
        config = ExmaAcceleratorConfig()
        assert config.pe_arrays == 4
        assert config.cam_entries == 512
        assert config.index_cache_bytes == 32 * 1024
        assert config.base_cache_bytes == 1024 * 1024

    def test_variant_configs_stack_features(self):
        assert ex_acc_config().two_stage_scheduling is False
        assert ex_acc_config().page_policy is PagePolicy.CLOSE
        assert ex_2stage_config().two_stage_scheduling is True
        assert exma_full_config().page_policy is PagePolicy.DYNAMIC

    def test_with_overrides(self):
        config = exma_full_config().with_overrides(pe_arrays=8)
        assert config.pe_arrays == 8
        assert config.cam_entries == 512

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            ExmaAcceleratorConfig(pe_arrays=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("channels", 2.5),
            ("cache_line_bytes", True),
            ("base_cache_ways", 8.0),
            ("index_cache_ways", 0),
            ("base_cache_ways", 0),
            ("cam_entries", "512"),
            ("dimms_per_channel", -3),
        ],
    )
    def test_counts_are_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            ExmaAcceleratorConfig(**{field: value})

    def test_invalid_cpu_config_raises(self):
        with pytest.raises(ValueError):
            CpuConfig(cores=0)


class TestMetrics:
    def test_mbase_per_second(self):
        result = SearchThroughput("x", bases_processed=5_000_000, seconds=2.0,
                                  accelerator_power_w=1.0, dram_power_w=72.0)
        assert result.mbase_per_second == pytest.approx(2.5)

    def test_per_watt(self):
        result = SearchThroughput("x", bases_processed=73_000_000, seconds=1.0,
                                  accelerator_power_w=1.0, dram_power_w=72.0)
        assert result.mbase_per_second_per_watt == pytest.approx(1.0)

    def test_invalid_seconds(self):
        with pytest.raises(ValueError):
            SearchThroughput("x", 1, 0.0, 1.0, 1.0)

    def test_application_run_fraction(self):
        run = ApplicationRun("align", "human", fm_index_seconds=8, dynamic_programming_seconds=1,
                             other_seconds=1)
        assert run.fm_index_fraction == pytest.approx(0.8)

    def test_amdahl_speedup(self):
        run = ApplicationRun("align", "human", 8, 1, 1)
        assert run.speedup_with_search_speedup(1e9) == pytest.approx(5.0, rel=1e-3)
        assert run.speedup_with_search_speedup(1.0) == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_invalid(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCpuThroughputModel:
    def test_larger_k_faster_when_same_costs(self):
        model = CpuThroughputModel()
        fm1 = SoftwareAlgorithm("FM-1", 1, structure_size_gb=2.0)
        fm4 = SoftwareAlgorithm("FM-4", 4, structure_size_gb=2.0)
        assert model.bases_per_second(fm4) > model.bases_per_second(fm1)

    def test_tlb_penalty_slows_huge_structures(self):
        model = CpuThroughputModel()
        small = SoftwareAlgorithm("small", 4, structure_size_gb=2.0)
        huge = SoftwareAlgorithm("huge", 4, structure_size_gb=400.0)
        assert model.bases_per_second(huge) < model.bases_per_second(small)

    def test_scan_overhead_slows_search(self):
        model = CpuThroughputModel()
        clean = SoftwareAlgorithm("clean", 21, structure_size_gb=16.0)
        erroneous = SoftwareAlgorithm(
            "err", 21, scan_entries_per_lookup=3000.0, structure_size_gb=16.0
        )
        assert model.bases_per_second(erroneous) < model.bases_per_second(clean)


class TestBaselineAccelerators:
    def test_table2_ordering(self):
        results = {m.name: m.throughput(dataset_size_gb=128.0) for m in standard_accelerator_suite()}
        assert results["ASIC"].mbase_per_second < results["FPGA"].mbase_per_second
        assert results["FPGA"].mbase_per_second < results["MEDAL"].mbase_per_second
        assert results["MEDAL"].mbase_per_second < results["EXMA"].mbase_per_second
        assert results["EXMA"].mbase_per_second > results["GPU"].mbase_per_second

    def test_exma_beats_medal_by_3_to_7x(self):
        medal = medal_model().throughput(dataset_size_gb=128.0)
        exma = exma_analytic_model().throughput(dataset_size_gb=128.0)
        ratio = exma.mbase_per_second / medal.mbase_per_second
        assert 3.0 < ratio < 8.0

    def test_exma_best_efficiency(self):
        results = [m.throughput(dataset_size_gb=128.0) for m in standard_accelerator_suite()]
        best = max(results, key=lambda r: r.mbase_per_second_per_watt)
        assert best.name == "EXMA"

    def test_bandwidth_utilization_ordering(self):
        asic = asic_model().throughput().bandwidth_utilization
        medal = medal_model().throughput().bandwidth_utilization
        exma = exma_analytic_model().throughput().bandwidth_utilization
        assert asic < medal < exma

    def test_finder_hurt_by_small_internal_memory(self):
        small_dataset = finder_model().throughput(dataset_size_gb=2.0)
        large_dataset = finder_model().throughput(dataset_size_gb=128.0)
        assert large_dataset.mbase_per_second < small_dataset.mbase_per_second

    def test_gpu_power_dominates_efficiency(self):
        gpu = gpu_model().throughput()
        fpga = fpga_model().throughput()
        assert gpu.mbase_per_second_per_watt < fpga.mbase_per_second_per_watt

    def test_larger_exma_error_lowers_throughput(self):
        accurate = exma_analytic_model(mean_error_entries=10.0).throughput()
        sloppy = exma_analytic_model(mean_error_entries=2000.0).throughput()
        assert sloppy.mbase_per_second < accurate.mbase_per_second


class TestExmaAcceleratorModel:
    @pytest.fixture(scope="class")
    def requests(self, exma_table, mtl_index):
        search = ExmaSearch(exma_table, index=mtl_index)
        reference_length = exma_table.reference_length
        queries = []
        doubled = exma_table._text  # sentinel-terminated reference
        for start in range(0, reference_length - 20, 80):
            queries.append(doubled[start : start + 16])
        stream, _ = search.request_stream(queries)
        return stream

    @pytest.fixture(scope="class")
    def scaled_config(self):
        return exma_full_config().with_overrides(
            base_cache_bytes=4096, index_cache_bytes=1024, cam_entries=64
        )

    def test_run_produces_positive_throughput(self, exma_table, mtl_index, requests, scaled_config):
        accelerator = ExmaAccelerator(exma_table, mtl_index, scaled_config)
        result = accelerator.run(requests, name="EXMA")
        assert result.throughput.mbase_per_second > 0
        assert result.total_cycles > 0
        assert result.dram_requests > 0

    def test_bases_processed_scales_with_requests(self, exma_table, mtl_index, requests, scaled_config):
        accelerator = ExmaAccelerator(exma_table, mtl_index, scaled_config)
        full = accelerator.run(requests)
        half = accelerator.run(requests[: len(requests) // 2])
        assert full.bases_processed > half.bases_processed

    def test_cache_stats_populated(self, exma_table, mtl_index, requests, scaled_config):
        result = ExmaAccelerator(exma_table, mtl_index, scaled_config).run(requests)
        assert result.base_cache.accesses == len(requests)
        assert 0.0 <= result.base_cache.hit_rate <= 1.0
        assert 0.0 <= result.index_cache.hit_rate <= 1.0

    def test_dynamic_page_policy_raises_row_hits(self, exma_table, mtl_index, requests):
        close_cfg = ex_acc_config().with_overrides(
            base_cache_bytes=4096, index_cache_bytes=1024, cam_entries=64
        )
        dyn_cfg = exma_full_config().with_overrides(
            base_cache_bytes=4096, index_cache_bytes=1024, cam_entries=64
        )
        close_run = ExmaAccelerator(exma_table, mtl_index, close_cfg).run(requests)
        dyn_run = ExmaAccelerator(exma_table, mtl_index, dyn_cfg).run(requests)
        assert dyn_run.dram.row_hit_rate >= close_run.dram.row_hit_rate

    def test_exma_variant_fastest(self, exma_table, mtl_index, requests):
        overrides = dict(base_cache_bytes=4096, index_cache_bytes=1024, cam_entries=64)
        runs = {
            "EX-acc": ExmaAccelerator(
                exma_table, mtl_index, ex_acc_config().with_overrides(**overrides)
            ).run(requests),
            "EXMA": ExmaAccelerator(
                exma_table, mtl_index, exma_full_config().with_overrides(**overrides)
            ).run(requests),
        }
        assert runs["EXMA"].total_cycles <= runs["EX-acc"].total_cycles

    def test_energy_accounting_positive(self, exma_table, mtl_index, requests, scaled_config):
        result = ExmaAccelerator(exma_table, mtl_index, scaled_config).run(requests)
        assert result.accelerator_energy_j > 0
        assert result.dram_energy_j > 0

    def test_run_without_index_still_correct_shape(self, exma_table, requests, scaled_config):
        result = ExmaAccelerator(exma_table, None, scaled_config).run(requests)
        assert result.inference_cycles == 0
        assert result.throughput.mbase_per_second > 0

    def test_empty_request_stream(self, exma_table, mtl_index, scaled_config):
        result = ExmaAccelerator(exma_table, mtl_index, scaled_config).run([])
        assert result.requests == 0
        assert result.total_cycles == 0
