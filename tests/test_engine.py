"""Cross-backend equivalence tests for the batched query engine.

For randomized references and mixed query sets (hits, mutated
near-misses, absent strings), every backend — 1-step FM-Index, EXMA
(exact, naive-learned and MTL Occ resolution), LISA (binary-search and
RMI) — must return identical BW-matrix intervals and identical located
positions, batched or one query at a time.
"""

from __future__ import annotations

import pytest

from repro.engine import QueryEngine, available_backends
from repro.engine.backends import ExmaBackend, FMIndexBackend, LisaBackend, create_backend
from repro.exma.mtl_index import MTLIndex
from repro.exma.search import ExmaSearch
from repro.exma.table import ExmaTable
from repro.genome.alphabet import AlphabetError
from repro.index.fmindex import FMIndex
from repro.lisa.search import LisaIndex
from repro.testing import brute_force_find, reference_and_queries

#: (genome_length, query_count, query_length, seed) per randomized case.
CASES = [(400, 24, 12, 0), (700, 30, 17, 1), (1000, 40, 21, 2)]


def _interval_pairs(intervals):
    return [(interval.low, interval.high) for interval in intervals]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"n{c[0]}-q{c[1]}")
def case(request):
    genome_length, count, length, seed = request.param
    reference, queries = reference_and_queries(
        genome_length=genome_length, count=count, length=length, seed=seed
    )
    # Lengths that are not multiples of any backend step exercise the
    # partial-chunk paths; add a couple explicitly.
    queries += [reference[5:18], reference[50:50 + 11], "ACGT"]
    return reference, queries


@pytest.fixture(scope="module")
def backends(case):
    reference, _ = case
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=40, seed=0)
    return {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": LisaBackend(
            lisa_index=LisaIndex(reference, k=3, use_learned_index=True)
        ),
    }


class TestCrossBackendEquivalence:
    def test_all_registered_backends_covered(self, backends):
        assert set(backends) == set(available_backends())

    def test_intervals_identical_across_backends(self, case, backends):
        """Non-empty match intervals agree exactly; misses are empty everywhere.

        (Backends consume different numbers of symbols per step, so an
        absent query aborts at different points — the empty interval's
        bounds are backend-specific, its emptiness is not.)
        """
        reference, queries = case
        expected = [FMIndex(reference).backward_search(q) for q in queries]
        for name, backend in backends.items():
            got = backend.search_batch(queries)
            for query, want, have in zip(queries, expected, got):
                if want.empty:
                    assert have.empty, f"backend {name} found absent query {query!r}"
                else:
                    assert (have.low, have.high) == (want.low, want.high), (
                        f"backend {name} diverged on {query!r}"
                    )

    def test_positions_match_brute_force(self, case, backends):
        reference, queries = case
        oracle = [brute_force_find(reference, q) for q in queries]
        for name, backend in backends.items():
            found = backend.find_batch(queries)
            assert found == oracle, f"backend {name} locate diverged"

    def test_batch_matches_single_query(self, case, backends):
        reference, queries = case
        for name, backend in backends.items():
            batched = _interval_pairs(backend.search_batch(queries))
            singles = _interval_pairs(backend.search(q) for q in queries)
            assert batched == singles, f"backend {name} batch != single"

    def test_batch_order_independent(self, case, backends):
        _, queries = case
        shuffled = list(reversed(queries))
        for name, backend in backends.items():
            forward = dict(zip(queries, _interval_pairs(backend.search_batch(queries))))
            backward = dict(zip(shuffled, _interval_pairs(backend.search_batch(shuffled))))
            assert forward == backward, f"backend {name} order-dependent"


class TestEngineAgainstSequentialPaths:
    def test_engine_matches_fmindex_find(self, case):
        reference, queries = case
        fm = FMIndex(reference)
        engine = QueryEngine(FMIndexBackend(fm_index=fm))
        positions, _ = engine.find_batch(queries)
        assert positions == [fm.find(q) for q in queries]

    def test_engine_matches_exma_search(self, case):
        reference, queries = case
        table = ExmaTable(reference, k=4)
        sequential = ExmaSearch(table)
        engine = QueryEngine(ExmaBackend(table=table))
        batched = _interval_pairs(engine.search_batch(queries).intervals)
        assert batched == _interval_pairs(sequential.backward_search(q) for q in queries)

    def test_engine_matches_lisa_search(self, case):
        reference, queries = case
        lisa = LisaIndex(reference, k=3, use_learned_index=False)
        engine = QueryEngine(LisaBackend(lisa_index=lisa))
        batched = _interval_pairs(engine.search_batch(queries).intervals)
        assert batched == _interval_pairs(lisa.backward_search(q) for q in queries)

    def test_learned_resolution_never_changes_results(self, case):
        """Prediction accuracy affects cost counters, never intervals."""
        reference, queries = case
        table = ExmaTable(reference, k=4)
        exact = ExmaBackend(table=table)
        mtl = ExmaBackend(
            table=table,
            index=MTLIndex(table, model_threshold=4, samples_per_kmer=16, epochs=5, seed=3),
        )
        assert _interval_pairs(exact.search_batch(queries)) == _interval_pairs(
            mtl.search_batch(queries)
        )


class TestEngineApi:
    def test_empty_batch(self):
        engine = QueryEngine.from_reference("ACGTACGTACGT", name="fmindex")
        result = engine.search_batch([])
        assert result.intervals == [] and result.stats.queries == 0

    def test_empty_query_raises(self):
        engine = QueryEngine.from_reference("ACGTACGTACGT", name="fmindex")
        with pytest.raises(ValueError):
            engine.search_batch(["ACGT", ""])

    @pytest.mark.parametrize("name", ["fmindex", "exma"])
    def test_batch_encoder_keeps_the_alphabet_errors(self, name):
        """One encode over the joined batch must still reject what the
        per-query encoder rejected, wherever in the batch it sits."""
        engine = QueryEngine.from_reference("ACGTACGTACGTTGCA", name=name)
        with pytest.raises(AlphabetError, match="N"):
            engine.search_batch(["ACGTACGT", "ACGTNCGT", "ACG"])
        # A sentinel inside a query body: never a searchable symbol.
        with pytest.raises(ValueError, match=r"\$|sentinel") as raised:
            engine.search_batch(["ACGTACGT", "ACG", "AC$TACGT"])
        assert isinstance(raised.value, AlphabetError) == (name == "exma")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("nope", "ACGT")

    def test_single_query_wrappers(self):
        reference, queries = reference_and_queries(genome_length=300, count=4, seed=7)
        engine = QueryEngine.from_reference(reference, name="fmindex")
        query = queries[0]
        assert engine.find(query) == brute_force_find(reference, query)
        assert engine.occurrence_count(query) == len(brute_force_find(reference, query))

    def test_batch_result_counts_and_matched(self):
        reference = "ACGTACGTACGT"
        engine = QueryEngine.from_reference(reference, name="fmindex")
        result = engine.search_batch(["ACGT", "TTTT"])
        assert result.counts == [3, 0]
        assert result.matched == 1

    def test_stats_populated(self):
        reference, queries = reference_and_queries(genome_length=500, count=16, seed=4)
        engine = QueryEngine.from_reference(reference, name="fmindex")
        stats = engine.search_batch(queries).stats
        assert stats.queries == len(queries)
        assert stats.occ_requests_issued >= stats.occ_requests_unique > 0
        assert stats.iterations > 0
        assert stats.lockstep_iterations <= max(len(q) for q in queries)
        assert len(stats.requests) == stats.occ_requests_unique


class TestBatchedSeeding:
    def test_batch_mems_match_sequential(self):
        reference, _ = reference_and_queries(genome_length=1500, count=0, seed=5)
        fm = FMIndex(reference)
        backend = FMIndexBackend(fm_index=fm)
        reads = [reference[i : i + 70] for i in range(0, 1200, 111)]
        # Corrupt some reads so seeds split, exercising restarts.
        reads += [read[:30] + "A" + read[31:] for read in reads[:3]]
        batched = backend.maximal_exact_matches_batch(reads, min_length=12)
        for read, seeds in zip(reads, batched):
            expected = fm.maximal_exact_matches(read, min_length=12)
            assert [
                (s.read_start, s.read_end, s.interval.low, s.interval.high) for s in seeds
            ] == [
                (s.read_start, s.read_end, s.interval.low, s.interval.high) for s in expected
            ]
