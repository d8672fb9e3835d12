"""Unit and integration tests for the genome-analysis applications."""

from __future__ import annotations

import pytest

from repro.apps.alignment import AlignerCounters, ReadAligner, alignment_accuracy
from repro.apps.annotation import AnnotationCounters, ExactWordAnnotator, words_from_reference
from repro.apps.assembly import AssemblyCounters, OverlapAssembler, error_correct_reads, n50
from repro.apps.compression import (
    CompressionCounters,
    LiteralToken,
    MatchToken,
    ReferenceCompressor,
    compressed_size_bytes,
)
from repro.apps.pipeline import (
    APPLICATIONS,
    WorkCounters,
    application_energy,
    default_breakdown_model,
    run_application,
)
from repro.engine import FMIndexBackend, ShardedQueryEngine
from repro.genome.datasets import build_dataset
from repro.genome.reads import ILLUMINA, PACBIO, ReadSimulator
from repro.genome.sequence import random_genome
from repro.index.fmindex import FMIndex


@pytest.fixture(scope="module")
def reference() -> str:
    # Mostly unique sequence so perfect reads have a single best placement.
    from repro.genome.sequence import RepeatProfile

    return random_genome(
        3000, repeat_profile=RepeatProfile(repeat_fraction=0.02, tandem_fraction=0.0), seed=33
    )


@pytest.fixture(scope="module")
def aligner(reference) -> ReadAligner:
    return ReadAligner(reference, min_seed_length=15)


class TestReadAligner:
    def test_perfect_read_maps_to_origin(self, aligner, reference):
        read = reference[500:580]
        result = aligner.align_read(read)
        assert result.mapped
        assert abs(result.position - 500) <= 5

    def test_reverse_complement_read_maps(self, aligner, reference):
        from repro.genome.alphabet import reverse_complement

        read = reverse_complement(reference[900:980])
        result = aligner.align_read(read)
        assert result.mapped
        assert result.reverse
        assert abs(result.position - 900) <= 5

    def test_read_with_errors_still_maps(self, aligner, reference):
        read = list(reference[1200:1300])
        read[30] = "A" if read[30] != "A" else "C"
        read[70] = "G" if read[70] != "G" else "T"
        result = aligner.align_read("".join(read))
        assert result.mapped
        assert abs(result.position - 1200) <= 10

    def test_foreign_read_unmapped_or_low_score(self, aligner):
        foreign = "ACGT" * 25
        result = aligner.align_read(foreign)
        perfect_score = 100 * 2
        assert (not result.mapped) or result.score < perfect_score * 0.8

    def test_counters_accumulate(self, aligner, reference):
        counters = AlignerCounters()
        aligner.align_read(reference[100:180], counters=counters)
        aligner.align_read(reference[300:380], counters=counters)
        assert counters.reads == 2
        assert counters.seeding_bases_searched > 0
        assert counters.extension_cells > 0

    def test_align_batch_and_accuracy(self, reference):
        reads = ReadSimulator(reference, ILLUMINA, seed=1).simulate(read_length=90, count=12)
        aligner = ReadAligner(reference)
        results, counters = aligner.align_batch(reads)
        assert counters.reads == 12
        assert alignment_accuracy(results, reads) > 0.7

    def test_empty_read_raises(self, aligner):
        with pytest.raises(ValueError):
            aligner.align_read("")

    def test_accuracy_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            alignment_accuracy([], [None])  # type: ignore[list-item]

    def test_invalid_parameters(self, reference):
        with pytest.raises(ValueError):
            ReadAligner(reference, min_seed_length=0)
        with pytest.raises(ValueError):
            ReadAligner(reference, max_seed_hits=0)


class TestAssembly:
    def test_reassembles_tiled_reads(self):
        genome = random_genome(600, seed=44)
        reads = [genome[i : i + 100] for i in range(0, 500, 40)]
        assembler = OverlapAssembler(min_overlap=30)
        counters = AssemblyCounters()
        contigs = assembler.assemble(reads, counters)
        assert counters.contigs == len(contigs)
        longest = max(contigs, key=len)
        assert len(longest) > 300
        assert longest.sequence in genome

    def test_disjoint_reads_stay_separate(self):
        genome = random_genome(2000, seed=45)
        reads = [genome[0:100], genome[1000:1100]]
        contigs = OverlapAssembler(min_overlap=30).assemble(reads)
        assert len(contigs) == 2

    def test_empty_input(self):
        assert OverlapAssembler().assemble([]) == []

    def test_overlap_detection(self):
        genome = random_genome(300, seed=46)
        a, b = genome[0:120], genome[80:200]
        overlaps = OverlapAssembler(min_overlap=20).find_overlaps([a, b])
        assert any(o.source == 0 and o.target == 1 and o.length == 40 for o in overlaps)

    def test_n50(self):
        class FakeContig(str):
            pass

        from repro.apps.assembly import Contig

        contigs = [Contig("A" * 100, (0,)), Contig("A" * 50, (1,)), Contig("A" * 10, (2,))]
        assert n50(contigs) == 100

    def test_n50_empty(self):
        assert n50([]) == 0

    def test_invalid_min_overlap(self):
        with pytest.raises(ValueError):
            OverlapAssembler(min_overlap=0)

    def test_error_correction_fixes_isolated_error(self):
        genome = ("ACGTTGCA" * 40) + random_genome(200, seed=47)
        fm = FMIndex(genome)
        clean = genome[16:61]
        corrupted = clean[:20] + ("A" if clean[20] != "A" else "C") + clean[21:]
        corrected = error_correct_reads([corrupted], fm, kmer=9, min_support=3)[0]
        mismatches_before = sum(1 for a, b in zip(corrupted, clean) if a != b)
        mismatches_after = sum(1 for a, b in zip(corrected, clean) if a != b)
        assert mismatches_after <= mismatches_before


class TestAnnotation:
    def test_word_positions_exact(self, reference):
        fm = FMIndex(reference)
        annotator = ExactWordAnnotator(fm)
        word = reference[100:124]
        annotation = annotator.annotate_word(word)
        assert 100 in annotation.positions
        assert annotation.count >= 1

    def test_absent_word_empty(self, reference):
        annotator = ExactWordAnnotator(FMIndex(reference))
        annotation = annotator.annotate_word("ACGT" * 10)
        assert annotation.count == len(
            [i for i in range(len(reference) - 39) if reference[i : i + 40] == "ACGT" * 10]
        )

    def test_counters(self, reference):
        annotator = ExactWordAnnotator(FMIndex(reference))
        counters = AnnotationCounters()
        words = words_from_reference(reference, word_length=20, stride=500)
        annotator.annotate(words, counters)
        assert counters.words == len(words)
        assert counters.bases_searched == 20 * len(words)
        assert counters.occurrences >= len(words)

    def test_words_from_reference_parameters(self, reference):
        words = words_from_reference(reference, word_length=24, stride=300)
        assert all(len(w) == 24 for w in words)
        with pytest.raises(ValueError):
            words_from_reference(reference, word_length=0)

    def test_empty_word_raises(self, reference):
        with pytest.raises(ValueError):
            ExactWordAnnotator(FMIndex(reference)).annotate_word("")


class TestCompression:
    def test_roundtrip(self, reference):
        fm = FMIndex(reference)
        compressor = ReferenceCompressor(fm, reference)
        donor = reference[200:600]
        tokens = compressor.compress(donor)
        assert compressor.decompress(tokens) == donor

    def test_similar_sequence_compresses_well(self, reference):
        fm = FMIndex(reference)
        compressor = ReferenceCompressor(fm, reference)
        counters = CompressionCounters()
        donor = reference[100:700]
        compressor.compress(donor, counters)
        assert counters.compression_ratio < 0.3

    def test_foreign_sequence_stays_literal(self, reference):
        fm = FMIndex(reference)
        compressor = ReferenceCompressor(fm, reference)
        counters = CompressionCounters()
        foreign = random_genome(300, seed=48)
        tokens = compressor.compress(foreign, counters)
        assert compressor.decompress(tokens) == foreign
        assert counters.compression_ratio > 0.5

    def test_roundtrip_with_mutations(self, reference):
        fm = FMIndex(reference)
        compressor = ReferenceCompressor(fm, reference)
        donor = list(reference[300:800])
        for i in range(0, len(donor), 97):
            donor[i] = "A" if donor[i] != "A" else "G"
        sequence = "".join(donor)
        assert compressor.decompress(compressor.compress(sequence)) == sequence

    def test_token_sizes(self):
        tokens = [MatchToken(0, 100), LiteralToken("ACGT")]
        assert compressed_size_bytes(tokens) == 6 + 2 + 4

    def test_invalid_parameters(self, reference):
        fm = FMIndex(reference)
        with pytest.raises(ValueError):
            ReferenceCompressor(fm, reference, min_match=0)
        with pytest.raises(ValueError):
            ReferenceCompressor(fm, reference).compress("")


class TestPipeline:
    def test_run_application_all_apps(self):
        reference = build_dataset("human", simulated_length=6000, seed=0)
        for application in APPLICATIONS:
            work = run_application(application, reference, ILLUMINA, read_count=4, seed=0)
            assert work.fm_bases_searched > 0

    def test_alignment_has_dp_work(self):
        reference = build_dataset("human", simulated_length=6000, seed=1)
        work = run_application("alignment", reference, ILLUMINA, read_count=4, seed=1)
        assert work.dp_cells > 0

    def test_unknown_application_raises(self):
        reference = build_dataset("human", simulated_length=3000, seed=2)
        with pytest.raises(ValueError):
            run_application("folding", reference, ILLUMINA)

    def test_breakdown_fractions_sum_to_one(self):
        model = default_breakdown_model()
        run = model.breakdown("alignment", "human", WorkCounters(1000, 500, 100))
        total = run.fm_index_fraction + (
            run.dynamic_programming_seconds + run.other_seconds
        ) / run.total_seconds
        assert total == pytest.approx(1.0)

    def test_application_energy_exma_lower(self):
        model = default_breakdown_model()
        run = model.breakdown("alignment", "human", WorkCounters(100_000, 5_000, 2_000))
        baseline, exma = application_energy(run, search_speedup=23.6)
        assert exma.total_j < baseline.total_j

    def test_application_energy_invalid_speedup(self):
        model = default_breakdown_model()
        run = model.breakdown("alignment", "human", WorkCounters(10, 1, 1))
        with pytest.raises(ValueError):
            application_energy(run, search_speedup=0.0)

    def test_higher_error_profile_shifts_breakdown(self):
        reference = build_dataset("human", simulated_length=6000, seed=3)
        illumina = run_application("alignment", reference, ILLUMINA, read_count=4, seed=3)
        pacbio = run_application("alignment", reference, PACBIO, read_count=4, read_length=300, seed=3)
        model = default_breakdown_model()
        frac_illumina = model.breakdown("alignment", "human", illumina).fm_index_fraction
        frac_pacbio = model.breakdown("alignment", "human", pacbio).fm_index_fraction
        # Error-rich long reads spend relatively more time outside seeding.
        assert frac_pacbio <= frac_illumina + 0.2


class TestShardedAppPaths:
    """A sharded engine passed to an application must not change its result."""

    def test_annotator_sharded_engine_identical(self, reference):
        fm = FMIndex(reference)
        words = words_from_reference(reference, word_length=20, stride=150)
        serial = ExactWordAnnotator(FMIndex(reference)).annotate(words)
        counters = AnnotationCounters()
        engine = ShardedQueryEngine(FMIndexBackend(fm_index=fm), shards=4, executor="thread")
        with engine:
            sharded = ExactWordAnnotator(fm, engine=engine).annotate(words, counters)
        assert sharded == serial
        assert counters.words == len(words)


class TestWindowedAppPaths:
    """Opt-in scheduling windows record streams without changing results."""

    def test_aligner_windowed_results_identical_and_flushes_recorded(self, reference):
        simulator = ReadSimulator(reference, ILLUMINA, seed=9)
        reads = simulator.simulate(read_length=80, count=8)
        plain = ReadAligner(reference, min_seed_length=15)
        windowed = ReadAligner(reference, min_seed_length=15, window=2)
        plain_results, plain_counters = plain.align_batch(reads)
        windowed_results, windowed_counters = windowed.align_batch(reads)
        assert windowed_results == plain_results
        assert windowed_counters == plain_counters
        assert windowed.window_capacity == 2
        # One seeding pass buffered; the partial window flushes on demand.
        assert windowed.windowed_flushes == ()
        flushed = windowed.flush_window()
        assert flushed is not None
        assert flushed.batches == 1
        assert flushed.unique <= flushed.issued
        assert windowed.windowed_flushes == (flushed,)
        # Window full after a second pass: push flushes without an explicit call.
        windowed.align_batch(reads)
        windowed.align_batch(reads)
        assert len(windowed.windowed_flushes) == 2
        assert windowed.windowed_flushes[-1].batches == 2

    def test_aligner_without_window_noops(self, aligner):
        assert aligner.window_capacity is None
        assert aligner.flush_window() is None
        assert aligner.windowed_flushes == ()

    def test_annotator_windowed_annotations_identical(self, reference):
        fm = FMIndex(reference)
        words = words_from_reference(reference, word_length=20, stride=150)
        plain = ExactWordAnnotator(FMIndex(reference)).annotate(words)
        annotator = ExactWordAnnotator(fm, window=2)
        assert annotator.annotate(words) == plain
        assert annotator.windowed_flushes == ()
        # A second batch fills the W=2 window and flushes the merged stream.
        assert annotator.annotate(words) == plain
        flushes = annotator.windowed_flushes
        assert len(flushes) == 1
        assert flushes[0].batches == 2
        # Identical word batches: the second batch merges away entirely, so
        # at least half of the issued requests are eliminated.
        assert flushes[0].unique <= flushes[0].issued // 2
        assert annotator.flush_window() is None  # nothing pending

    def test_windowed_flushes_feed_the_accelerator(self, reference):
        from repro.accel import ExmaAccelerator, ExmaAcceleratorConfig
        from repro.exma.table import ExmaTable

        fm = FMIndex(reference)
        words = words_from_reference(reference, word_length=20, stride=150)
        annotator = ExactWordAnnotator(fm, window=2)
        annotator.annotate(words)
        annotator.annotate(words)
        config = ExmaAcceleratorConfig().with_overrides(
            base_cache_bytes=2048, index_cache_bytes=1024, cam_entries=32
        )
        accelerator = ExmaAccelerator(ExmaTable(reference, k=4), None, config)
        result = accelerator.run_stream(annotator.windowed_flushes)
        assert result.windows == 1
        assert result.batches == 2
        assert result.merge_ratio >= 2.0
        assert result.total_cycles > 0

    def test_pipeline_window_keeps_work_counters_identical(self):
        reference = build_dataset("human", simulated_length=5000, seed=4)
        for application in ("alignment", "annotate"):
            plain = run_application(application, reference, ILLUMINA, read_count=4, seed=4)
            flushes: list = []
            windowed = run_application(
                application, reference, ILLUMINA, read_count=4, seed=4, window=2,
                window_flushes=flushes,
            )
            assert windowed == plain, application
            # The recorded stream surfaces through the collector.
            assert flushes, application
            assert all(flushed.unique <= flushed.issued for flushed in flushes)

    def test_aligner_rejects_invalid_window(self, reference):
        with pytest.raises(ValueError):
            ReadAligner(reference, window=0)
