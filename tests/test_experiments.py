"""Tests for the per-figure experiment harnesses (small scales).

These tests run every experiment end-to-end at the smallest sensible scale
and assert the qualitative claims the paper makes — orderings, monotone
trends, rough ratios — rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    build_workload,
    run_fig1,
    run_fig6,
    run_fig10,
    run_fig11_12,
    run_fig13,
    run_fig18,
    run_fig19_20,
    run_fig21,
    run_fig22,
    run_fig23,
    run_table1,
    run_table2,
)
from repro.experiments.common import sample_queries
from repro.experiments.fig10_exma_tradeoff import exma_size_sweep

pytestmark = pytest.mark.slow  # regenerates every experiment end-to-end

SMALL = 12_000


@pytest.fixture(scope="module")
def fig6_result():
    return run_fig6(genome_length=SMALL, seed=0)


@pytest.fixture(scope="module")
def fig18_result():
    return run_fig18(genome_length=SMALL, seed=0, datasets=("human", "pinus"))


class TestWorkloadBuilder:
    def test_workload_components(self):
        workload = build_workload("human", genome_length=8000, k=4, query_count=10)
        assert workload.table.k == 4
        assert len(workload.queries) == 10
        assert len(workload.requests) > 0
        assert workload.reference.name == "human"

    def test_sample_queries_lengths(self):
        reference = build_workload("human", genome_length=8000, k=4, query_count=5).reference
        queries = sample_queries(reference.sequence, count=5, length=30)
        assert len(queries) == 5
        assert all(len(q) <= 30 for q in queries)


class TestFig1:
    def test_breakdown_rows_cover_all_workloads(self):
        rows = run_fig1(genome_length=8000, read_count=4)
        assert len(rows) == 8
        for row in rows:
            total = row.fm_index_fraction + row.dynamic_programming_fraction + row.other_fraction
            assert total == pytest.approx(1.0)

    def test_fm_index_is_major_component(self):
        rows = run_fig1(genome_length=8000, read_count=4)
        mean_fm = sum(row.fm_index_fraction for row in rows) / len(rows)
        assert mean_fm > 0.3  # paper: 31 %-81 % of execution time


class TestFig6:
    def test_row_accesses_have_little_locality(self, fig6_result):
        trace = fig6_result.row_trace
        assert trace.accesses > 0
        assert trace.consecutive_same_bucket_rate < 0.6
        assert trace.distinct_buckets > trace.accesses * 0.25

    def test_fm_size_exponential_lisa_linear(self, fig6_result):
        fm = fig6_result.fm_sizes_gb
        lisa = fig6_result.lisa_sizes_gb
        assert fm[6] / fm[5] > 3.0
        assert lisa[32] / lisa[21] < 2.0
        assert fm[6] > 300  # paper: 374 GB
        assert 80 < fm[5] < 120  # paper: 105 GB

    def test_lisa_errors_nonzero(self, fig6_result):
        assert fig6_result.lisa_error_stats.mean_error > 0
        assert fig6_result.lisa_error_stats.max_error >= fig6_result.lisa_error_stats.mean_error

    def test_cpu_throughput_ordering(self, fig6_result):
        norm = fig6_result.cpu_throughput_normalised
        assert norm["FM-1"] == pytest.approx(1.0)
        # k-step gains are modest and non-monotonic (FM-6 below FM-5).
        assert norm["FM-5"] < 2.5
        assert norm["FM-6"] < norm["FM-5"]
        # LISA beats conventional FM-Index; perfect index and perfect cache
        # add progressively more.
        assert norm["LISA-21"] > norm["FM-1"]
        assert norm["LISA-21P"] >= norm["LISA-21"]
        assert norm["LISA-21PC"] > norm["LISA-21P"]


class TestFig10:
    def test_size_sweep_components(self):
        rows = exma_size_sweep(10, 17)
        by_step = {row.step: row for row in rows}
        # Increments and SA are constant; bases grow 4x per step.
        assert by_step[12].increments_gb == pytest.approx(by_step[16].increments_gb)
        assert by_step[16].bases_gb == pytest.approx(4 * by_step[15].bases_gb, rel=0.01)
        # 15-step total near the paper's 29.5 GB.
        assert 25 < by_step[15].total_gb < 35

    def test_throughput_panel(self):
        result = run_fig10(genome_length=SMALL, seed=0)
        norm = result.throughput_normalised
        assert norm["LISA-21"] == pytest.approx(1.0)
        assert norm["EXMA-15M"] > 0.9  # EXMA-15M competitive with LISA-21
        assert "EXMA-15" in norm and "EXMA-17" in norm
        assert result.parameter_counts["EXMA-15M"] > 0


class TestFig11_12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11_12(genome_length=SMALL, k=5, seed=0)

    def test_distributions_similar(self, result):
        # Kolmogorov-Smirnov distance is bounded by 1; similar CDFs stay
        # well below that.
        assert 0.0 <= result.similarity.mean_pairwise_ks_distance < 0.9
        assert result.similarity.kmer_count > 1

    def test_profile_fractions_sum_to_one(self, result):
        assert sum(b.kmer_fraction for b in result.buckets) == pytest.approx(1.0, abs=0.01)
        assert sum(b.search_time_fraction for b in result.buckets) == pytest.approx(1.0, abs=0.01)

    def test_heavy_kmers_take_disproportionate_time(self, result):
        buckets = [b for b in result.buckets if b.kmer_fraction > 0]
        heaviest = buckets[-1]
        assert heaviest.search_time_fraction >= heaviest.kmer_fraction


class TestFig13:
    def test_mtl_uses_fewer_parameters(self):
        result = run_fig13(genome_length=SMALL, k=5, seed=0, mtl_epochs=60, samples_per_kmer=30)
        assert result.mtl_parameters < result.naive_parameters
        assert result.heavy.kmer_count > 0
        assert result.heavy.naive.mean_error >= 0
        assert result.heaviest.mtl.mean_error >= 0


class TestFig18:
    def test_all_datasets_present(self, fig18_result):
        assert {row.dataset for row in fig18_result.rows} == {"human", "pinus"}

    def test_accelerator_beats_software(self, fig18_result):
        for row in fig18_result.rows:
            assert row.ex_acc > row.exma15_software

    def test_full_exma_is_best_variant(self, fig18_result):
        for row in fig18_result.rows:
            assert row.exma >= row.ex_acc
            assert row.exma >= row.ex_2stage * 0.95

    def test_exma_software_beats_cpu(self, fig18_result):
        for row in fig18_result.rows:
            assert row.exma15_software > 1.0


class TestFig19_20:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig19_20(
            search_speedup=23.6, datasets=("human",), genome_length=8000, read_count=4
        )

    def test_speedups_above_one(self, result):
        assert all(outcome.speedup > 1.0 for outcome in result.outcomes)

    def test_gmean_speedup_in_paper_range(self, result):
        assert 1.5 < result.gmean_speedup() < 12.0

    def test_energy_reduced(self, result):
        assert all(outcome.normalised_energy < 1.0 for outcome in result.outcomes)
        assert result.gmean_energy() < 0.6

    def test_energy_breakdown_components(self, result):
        outcome = result.outcomes[0]
        assert outcome.exma_energy.accelerator_dynamic_j >= 0
        assert outcome.exma_energy.cpu_j < outcome.baseline_energy.cpu_j


class TestFig21_23:
    def test_bandwidth_utilization_ordering(self):
        utilization = run_fig21()
        assert utilization["ASIC"] < utilization["MEDAL"] < utilization["EXMA"]
        assert utilization["EXMA"] > 0.8

    def test_dse_points_cover_all_groups(self):
        points = run_fig22(genome_length=SMALL, seed=0)
        groups = {p.group for p in points}
        assert groups == {"DIMMs", "PE arrays", "CAM entries", "base cache"}
        assert all(p.normalised_throughput > 0 for p in points)

    def test_chain_compression_comparison(self):
        comparison = run_fig23(dataset="pinus", genome_length=SMALL, k=5, seed=0)
        assert comparison.lisa_original_gb > comparison.exma_original_gb
        assert comparison.exma_chain_gb < comparison.exma_original_gb
        assert comparison.exma_chain_gb < comparison.lisa_bdi_gb
        assert 0.0 < comparison.measured_chain_ratio < 1.0


class TestTables:
    def test_table1_area_consistent(self):
        table1 = run_table1()
        assert table1.area_matches_reported
        assert table1.dram_timings == (16, 16, 16)
        assert table1.cpu_cores == 16
        assert table1.dram_capacity_gb == 384

    def test_table2_rows_and_ordering(self):
        rows = run_table2()
        names = [row.name for row in rows]
        assert names == ["GPU", "FPGA", "ASIC", "MEDAL", "FindeR", "EXMA"]
        by_name = {row.name: row for row in rows}
        assert by_name["EXMA"].mbase_per_second == max(r.mbase_per_second for r in rows)
        assert by_name["EXMA"].mbase_per_second_per_watt == max(
            r.mbase_per_second_per_watt for r in rows
        )
        assert by_name["ASIC"].mbase_per_second == min(r.mbase_per_second for r in rows)

    def test_table2_exma_vs_medal_ratio(self):
        rows = {row.name: row for row in run_table2()}
        ratio = rows["EXMA"].mbase_per_second / rows["MEDAL"].mbase_per_second
        assert 3.0 < ratio < 8.0  # paper reports 4.9x
