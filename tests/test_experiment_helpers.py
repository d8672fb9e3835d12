"""Unit tests for experiment helper functions and formatters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.fig06_prior import cpu_throughput_comparison, size_vs_step
from repro.experiments.fig10_exma_tradeoff import exma_size_sweep
from repro.experiments.fig11_12_increments import bucket_edges
from repro.experiments.fig18_throughput import (
    concurrency_gain,
    cpu_lisa_baseline,
    exma_software_throughput,
)
from repro.experiments.common import (
    MTL_SAMPLES,
    MTL_THRESHOLD,
    build_serving_stack,
    build_stack,
    build_workload,
    naive_index,
    serving_stack,
)
from repro.exma.mtl_index import MTLIndex
from repro.experiments import (
    format_fig1,
    format_fig13,
    format_fig18,
    format_fig19,
    format_fig20,
    format_table2,
    run_fig1,
    run_fig13,
    run_fig18,
    run_fig19_20,
    run_table2,
)


class TestStackBuilder:
    """``build_stack`` memoises on normalised values and shares one table
    between stacks that differ only in their index."""

    def test_index_is_the_recipe_trained_directly(self):
        stack = build_stack("human", 6000, 4, 3, mtl_epochs=5)
        direct = MTLIndex(
            stack.table, model_threshold=16, samples_per_kmer=64, epochs=5, seed=3
        )
        assert (MTL_THRESHOLD, MTL_SAMPLES) == (16, 64)
        for column in ("_weights", "_biases", "_buckets"):
            assert np.array_equal(getattr(stack.index, column), getattr(direct, column))
            assert getattr(stack.index, column).dtype == getattr(direct, column).dtype

    def test_a_threshold_variant_shares_the_table(self):
        default = build_stack("human", 6000, 4, 3, mtl_epochs=5)
        variant = build_stack("human", 6000, 4, 3, mtl_epochs=5, mtl_threshold=8)
        assert variant.table is default.table
        assert variant.index is not default.index
        assert build_stack("human", 6000, 4, 3, mtl_epochs=5, mtl_threshold=16) is default

    def test_no_epochs_no_index(self):
        stack = build_stack("human", 6000, 4, 3)
        assert stack.index is None
        assert stack.table is build_stack("human", 6000, 4, 3, mtl_epochs=5).table
        assert build_stack("human", 6000, 4, 3, mtl_threshold=8) is stack

    def test_spelling_does_not_matter(self):
        assert build_stack(genome_length=6000, k=4, seed=3) is build_stack("human", 6000, 4, 3)
        assert build_workload(genome_length=8000, k=4, query_count=5) is build_workload(
            "human", 8000, 4, 5
        )

    def test_workload_sits_on_the_stack(self):
        workload = build_workload("human", 8000, 4, 5)
        stack = build_stack("human", 8000, 4, 0, mtl_epochs=150)
        assert (workload.reference, workload.table, workload.mtl_index) == (
            stack.reference,
            stack.table,
            stack.index,
        )

    def test_naive_index_is_memoised_per_table(self):
        table = build_stack("human", 6000, 4, 3).table
        assert naive_index(table) is naive_index(table)

    def test_serving_stack_shares_the_table_not_the_machines(self):
        reference = build_stack("human", 6000, 4, 3).reference.sequence
        backend, accelerator = serving_stack(reference, 4)
        again, _, _ = build_serving_stack(6000, 3, 4, 20, 8)
        assert backend is not again
        assert backend.table is again.table is build_stack("human", 6000, 4, 3).table
        assert accelerator is not serving_stack(reference, 4)[1]


class TestFig6Helpers:
    def test_size_vs_step_ranges(self):
        fm_sizes, lisa_sizes = size_vs_step(max_step=32)
        assert set(fm_sizes) == set(range(1, 17))
        assert set(lisa_sizes) == set(range(1, 33))
        assert all(fm_sizes[k] < fm_sizes[k + 1] for k in range(1, 16))

    def test_cpu_throughput_comparison_uses_error(self):
        accurate = cpu_throughput_comparison(lisa_mean_error=1.0)
        sloppy = cpu_throughput_comparison(lisa_mean_error=5000.0)
        assert sloppy["LISA-21"] < accurate["LISA-21"]
        assert accurate["FM-1"] == sloppy["FM-1"] == 1.0


class TestFig10Helpers:
    def test_size_sweep_bounds(self):
        rows = exma_size_sweep(8, 17)
        assert [row.step for row in rows] == list(range(8, 18))
        assert all(row.total_gb > 0 for row in rows)

    def test_size_sweep_monotone_total(self):
        rows = exma_size_sweep(8, 17)
        totals = [row.total_gb for row in rows]
        assert totals == sorted(totals)


class TestFig11Helpers:
    def test_bucket_edges_scale_with_reference(self):
        small = bucket_edges(10_000)
        large = bucket_edges(10_000_000)
        assert max(large) > max(small)
        assert all(edge >= 2 for edge in small)
        assert small == sorted(small)


class TestFig18Helpers:
    def test_concurrency_gain_formula(self):
        assert concurrency_gain(512, 64, 0.5) == pytest.approx(4.0)
        assert concurrency_gain(32, 64, 0.5) == 1.0

    def test_concurrency_gain_invalid(self):
        with pytest.raises(ValueError):
            concurrency_gain(cpu_mshrs=0)

    def test_cpu_baseline_slower_on_larger_genomes(self):
        assert cpu_lisa_baseline("pinus") < cpu_lisa_baseline("human")

    def test_exma_software_beats_cpu_baseline(self):
        workload = build_workload("human", genome_length=8000, k=4, query_count=10)
        assert exma_software_throughput(workload, "human") > cpu_lisa_baseline("human")


class TestFormatters:
    def test_format_fig1(self):
        rows = run_fig1(genome_length=6000, read_count=3)
        text = format_fig1(rows)
        assert "FM-Index" in text and "alignment-Illumina" in text

    def test_format_fig13(self):
        result = run_fig13(genome_length=6000, k=4, mtl_epochs=30, samples_per_kmer=10)
        text = format_fig13(result)
        assert "parameters" in text

    def test_format_fig18(self):
        result = run_fig18(genome_length=8000, datasets=("human",))
        text = format_fig18(result)
        assert "EX-acc" in text and "human" in text

    def test_format_fig19_and_20(self):
        result = run_fig19_20(datasets=("human",), genome_length=6000, read_count=3)
        assert "gmean" in format_fig19(result)
        assert "gmean" in format_fig20(result)

    def test_format_table2(self):
        text = format_table2(run_table2())
        assert "MEDAL" in text and "Mbase/s" in text
