"""Queries in as a :class:`QueryBatch`, answers out as columns.

Every backend takes the same encoded batch and returns ``(lows, highs)``.
This file pins what that must not change: the answers of the
``offline-search`` benchmark stack's 2 000 reads (a sha256 over the
columns), the intervals of mixed-length batches on all six backends, the
answers and stats of simulated reads of 47, 50, 101 and 150 symbols on all
six, the one validation every backend shares, and sharded ≡ serial on the
columns and on :class:`BatchStats` field for field.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import QueryEngine, available_backends
from repro.engine.backends import ExmaBackend, create_backend
from repro.engine.coalesce import BatchStats, BatchTrace
from repro.engine.sharded import ShardedQueryEngine
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.genome.alphabet import AlphabetError, QueryBatch
from repro.genome.datasets import build_dataset
from repro.genome.reads import ILLUMINA, ReadSimulator
from repro.genome.sequence import random_genome
from repro.testing import backend_search

STATS_FIELDS = (
    "queries",
    "lockstep_iterations",
    "iterations",
    "occ_requests_issued",
    "occ_requests_unique",
    "base_reads",
    "increment_entries_read",
    "index_predictions",
    "binary_comparisons",
    "prediction_errors",
    "requests",
)


def _digest(lows, highs) -> str:
    """sha256 over the int64 bytes of the lows, then the highs."""
    columns = [np.asarray(column, dtype=np.int64) for column in (lows, highs)]
    return hashlib.sha256(b"".join(column.tobytes() for column in columns)).hexdigest()


# --------------------------------------------------------------------- #
# The benchmark stack's answers
# --------------------------------------------------------------------- #

#: ``(lows, highs)`` of the 2 000 ``offline-search`` reads (seed 0) on the
#: EXMA table (k = 6) and on the FM-Index, as the code before the columns
#: returned them.  The two structures agree on every hit; a miss's empty
#: interval has structure-specific bounds.
GOLDEN_OFFLINE_SEARCH = {
    "exma": "19f5da09b241fbde2c6e1b20dd63c6548ecbeade6a6874f5f0e2c07038ad6164",
    "fmindex": "f0542ae6287a51d559684291dc377c74c52140d0291ade0198a5b2b3607f59dc",
}


def _offline_search_reads(reference: str, count: int = 2_000, seed: int = 1) -> list[str]:
    """The ``offline-search`` reads: Illumina-profile 48-mer prefixes,
    forward and reverse strands taken in turn."""
    reads = ReadSimulator(reference, ILLUMINA, seed=seed).simulate(
        read_length=48, count=2 * count + 64
    )
    strands: dict[bool, list[str]] = {False: [], True: []}
    for read in reads:
        strands[read.reverse].append(read.sequence[:48])
    return [read for pair in zip(strands[False], strands[True]) for read in pair][:count]


def test_offline_search_answers_are_pinned():
    reference = build_dataset("human", simulated_length=60_000, seed=0).sequence
    queries = _offline_search_reads(reference)
    assert len(queries) == 2_000 and {len(query) for query in queries} == {47, 48}
    engines = {
        "exma": QueryEngine(ExmaBackend(table=ExmaTable(reference, k=6))),
        "fmindex": QueryEngine.from_reference(reference, name="fmindex"),
    }
    for name, engine in engines.items():
        results = [engine.search_batch(queries[at : at + 256]) for at in range(0, 2_000, 256)]
        lows = np.concatenate([result.lows for result in results])
        highs = np.concatenate([result.highs for result in results])
        assert lows.dtype == highs.dtype == np.int64
        assert _digest(lows, highs) == GOLDEN_OFFLINE_SEARCH[name], name


# --------------------------------------------------------------------- #
# Mixed lengths on all six backends
# --------------------------------------------------------------------- #

K = 4
MIXED_REFERENCE = random_genome(2000, seed=31)


def _mixed_batches() -> dict[str, list[str]]:
    """Hits and misses of every length 1 … 3k + 2 (rows shorter than k
    have a tail and no step), repeats, batches of tails only, of whole
    chunks only, and one short row."""
    rng = np.random.default_rng(7)

    def hit(length: int) -> str:
        start = int(rng.integers(0, len(MIXED_REFERENCE) - length))
        return MIXED_REFERENCE[start : start + length]

    def miss(length: int) -> str:
        return "".join("ACGT"[code] for code in rng.integers(0, 4, size=length))

    lengths = range(1, 3 * K + 3)
    mixed = [hit(n) for n in lengths] + [miss(n) for n in lengths]
    mixed += [mixed[3], mixed[K], mixed[-1], mixed[0]]
    return {
        "mixed": mixed,
        "all tails": [hit(n) for n in range(1, K)] * 2 + [miss(n) for n in range(1, K)],
        "whole chunks": [hit(n * K) for n in range(1, 4)] + [miss(2 * K)],
        "one short row": [hit(K - 1)],
    }


MIXED_BATCHES = _mixed_batches()

#: Per batch, the digest of its intervals on the FM-Index and on the five
#: k-step backends, as the code before the columns returned them.
GOLDEN_MIXED = {
    "mixed": (
        "008085d65cabdf0721c24518c86c0cf53c409484b904b567388ba45d4f444849",
        "8f8803a473ad8335171e5d9179c417a27cbc6a46b5f21d61e90eba807cd690cf",
    ),
    "all tails": ("bb6f6fcd7a944aa1a401792b1722e2f3936204238811c9230dbf929f98039b86",) * 2,
    "whole chunks": (
        "afda555614a4869429c821a78a5a6867e1ae91bf1cb72569bfafb8c004757e8b",
        "48e8a3cc0c6f5fec579ee23ad415949beb8d14a35dff8b68194a1eb07e66c5a2",
    ),
    "one short row": ("47208b464d47e211f567342f6d6603aa595fe060fe5ee7a34c4af60af01fa1da",) * 2,
}


@pytest.fixture(scope="module")
def backends():
    table = ExmaTable(MIXED_REFERENCE, k=K)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=20, seed=0)
    built = {
        "fmindex": create_backend("fmindex", MIXED_REFERENCE),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", MIXED_REFERENCE, k=K, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": create_backend("lisa", MIXED_REFERENCE, k=K),
        "lisa-learned": create_backend("lisa-learned", MIXED_REFERENCE, k=K),
    }
    assert set(built) == set(available_backends())
    return built


@pytest.mark.parametrize("batch", MIXED_BATCHES)
@pytest.mark.parametrize("name", available_backends())
def test_mixed_lengths_keep_their_intervals(backends, name, batch):
    queries = MIXED_BATCHES[batch]
    result = QueryEngine(backends[name]).search_batch(queries)
    fm_digest, k_step_digest = GOLDEN_MIXED[batch]
    expected = fm_digest if name == "fmindex" else k_step_digest
    assert _digest(result.lows, result.highs) == expected
    assert result.counts == np.maximum(result.highs - result.lows, 0).tolist()
    assert [(i.low, i.high) for i in result.intervals] == list(
        zip(result.lows.tolist(), result.highs.tolist())
    )
    assert [(i.low, i.high) for i in backend_search(backends[name], queries)] == list(
        zip(result.lows.tolist(), result.highs.tolist())
    )


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name", available_backends())
def test_sharded_columns_and_stats_equal_serial(backends, name, executor):
    queries = MIXED_BATCHES["mixed"] + MIXED_BATCHES["all tails"]
    serial = QueryEngine(backends[name]).search_batch(queries)
    with ShardedQueryEngine(backends[name], shards=3, executor=executor) as engine:
        sharded = engine.search_batch(QueryBatch.from_strings(queries))
    assert sharded.lows.tolist() == serial.lows.tolist()
    assert sharded.highs.tolist() == serial.highs.tolist()
    for field in STATS_FIELDS:
        assert getattr(sharded.stats, field) == getattr(serial.stats, field), field
    assert sharded == serial


def test_an_empty_batch_gives_empty_columns(backends):
    for name, backend in backends.items():
        result = QueryEngine(backend).search_batch(QueryBatch.from_strings([]))
        assert result.lows.size == result.highs.size == 0, name
        assert result.counts == [] and result.intervals == [] and result.stats.queries == 0


# --------------------------------------------------------------------- #
# Simulated reads at real lengths
# --------------------------------------------------------------------- #

#: Short-read lengths: at k = 4, tails of 3, 2, 1 and 2 symbols.
READ_LENGTHS = (47, 50, 101, 150)


def _reads(length: int, count: int = 256) -> list[str]:
    """*count* Illumina-profile reads of exactly *length* symbols from the
    mixed-lengths reference (seed *length*): each is simulated 8 symbols
    longer and cut, so that no deletion shortens it."""
    reads = ReadSimulator(MIXED_REFERENCE, ILLUMINA, seed=length).simulate(
        read_length=length + 8, count=count
    )
    queries = [read.sequence[:length] for read in reads]
    assert {len(query) for query in queries} == {length}
    return queries


def _stats_digest(stats: BatchStats) -> str:
    """sha256 over every counter, the prediction errors, the request
    stream's k-mer and position columns and the trace's tails with their
    costs."""
    counters = [getattr(stats, field) for field in STATS_FIELDS[:9]] + stats.prediction_errors
    columns = [np.asarray(counters, np.int64), stats.requests.kmers, stats.requests.positions]
    digest = hashlib.sha256(b"".join(column.astype(np.int64).tobytes() for column in columns))
    digest.update(repr(list(zip(stats.trace.tails, stats.trace.tail_contributions))).encode())
    return digest.hexdigest()


#: Per read length, the digest of the reads' intervals on the FM-Index and
#: on the five k-step backends, taken before tails were resolved in the
#: compiled pass.
GOLDEN_READS = {
    47: (
        "312046bf0359d1106e21e9bcbe92a4a3d039152e21c1567a063e3f01729c1d48",
        "3546dc76593863d007fc29ccd22b52d3219b0b6c5098ac51bbfae99577194e18",
    ),
    50: (
        "50b63162c548aaa64d5311dfc79f8d5bb5d1a824bd35942acce6fa29a8cf6cf4",
        "55b66e567bf8cced9e1ee6194b75f4fa4f09a5e47c07e7961e1aa28d663648a1",
    ),
    101: (
        "bac8e67cb51e364fc0d768790678d28c4771ae2d00e3add939a0295c355e6193",
        "bcf86aae433e6a3b7585fceeacc95d7fa4abd7bc54669b48fceedee8752d92f2",
    ),
    150: (
        "3edcce999b73e619b48180375f24c0e85cccf63ed5a781c012e3dfa3c81b203f",
        "29d7ec9d114061b4f9dd82819ef4b82fab7fd4f91d81d9eecb4407f54b3e6ce7",
    ),
}

#: Per read length and backend, :func:`_stats_digest` of a traced search,
#: taken at the same commit.
GOLDEN_READ_STATS = {
    47: {
        "exma": "dd625d76f591b3ef7cd50d1591a668afdfedeaeaed5db72b32f91f80662729dd",
        "exma-learned": "804bd1c861a1c207c0a13883422984fafbb404a64c776c86dc2a7e631051d71f",
        "exma-mtl": "bdc4f8dc20f2d5dc1d49a4d1f7f410660a5c9f04256130f4c5187075b50a1728",
        "fmindex": "a50ac22e2ef99379eb775a1f9ac70d283f425025fff1784831739c3a76c08e08",
        "lisa": "a16a38ea55729e32afc66045b3373c8dd0703c18907a25eee5a49af5f148a2af",
        "lisa-learned": "9bb2e2046c47ad2bd474ce22ed1bff7889c03be551e05552e9357b653ef399c3",
    },
    50: {
        "exma": "3603ca902bd618ee9256d9825d9631f84e154c21755de6591a3791a2dcd3796c",
        "exma-learned": "0ee02bebd35fd8b2cfb399305c687bf2e3ca841ed2519953c862707785954c29",
        "exma-mtl": "f68411422c387d820792dbb574c60f605672c13d418e5d5bf5798fb70c304efb",
        "fmindex": "ab4529c3bd4d4efdca5f3763058a4a1a2f08eaf0850f6ca08922096f22deddf3",
        "lisa": "5195409018d690c9cb53b00433b0d1dc7eb807fe084314df9505ee7a06f29f7b",
        "lisa-learned": "2e8bbf86a77611b2bc6bc8f6d542956e8cc2483d9a882819fa10bebd95be7743",
    },
    101: {
        "exma": "58700618f958c77466931736013ad1cf25436c5c0e114a514b680d1645550456",
        "exma-learned": "66bfc6ff64fa92c653fb096e25571615b679daf061579c60f971f57f39894fe6",
        "exma-mtl": "c00b91c0c37938f0b1565563c790d1478c44bc2ee005c69410c95ed7c16665cc",
        "fmindex": "cc5d1d6489e7aa789e42396d3c326fc31d80200c48675c980630e1cff92b5aca",
        "lisa": "a8f57f2d3edad184c9ac0cadbbf62d3cc2e8674648100dfc6cd7288987aed3ee",
        "lisa-learned": "6c3b5f8bd0d4c89e617667525fc4b955026ea15c5a852c41709766757796fbe3",
    },
    150: {
        "exma": "927833c649aaa7cefb5b6d3afe6e35a5d98c72505c84ab13728b0bbf4091409b",
        "exma-learned": "e089558345ebef962eda107e1255b73a66b0e75f3c6affdbd4f35fc6f2959607",
        "exma-mtl": "caa95526653988e5204746462d35344be0c5655d5a25475a3798a7686a99e611",
        "fmindex": "bdd5f1b7bf0ead32dfea6ca4fb2a477a234486c8945f61db65adc7538d666875",
        "lisa": "35fc5e735c36eca4683b9fc0c947438fd5d38b55128237eaf8318a4a0c2d0b74",
        "lisa-learned": "8e051d61c313da23c9ac0720ca6d16938890acd5d2f04cbc7349bcdc54cae155",
    },
}


@pytest.mark.parametrize("length", READ_LENGTHS)
@pytest.mark.parametrize("name", available_backends())
def test_read_lengths_keep_their_answers_and_stats(backends, name, length):
    """A traced search's answers and stats are pinned, and an untraced
    search (one stats record a batch on the EXMA backends) gives the same
    answers and every stats field alike."""
    queries = _reads(length)
    traced = BatchStats(trace=BatchTrace())
    intervals = [(i.low, i.high) for i in backend_search(backends[name], queries, traced)]
    fm_digest, k_step_digest = GOLDEN_READS[length]
    assert _digest(*zip(*intervals)) == (fm_digest if name == "fmindex" else k_step_digest)
    assert _stats_digest(traced) == GOLDEN_READ_STATS[length][name]
    result = QueryEngine(backends[name]).search_batch(queries)
    assert list(zip(result.lows.tolist(), result.highs.tolist())) == intervals
    for field in STATS_FIELDS:
        assert getattr(result.stats, field) == getattr(traced, field), field


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name", available_backends())
def test_sharded_reads_equal_serial(backends, name, executor):
    """256 reads of 101 symbols, each with a one-symbol tail: the sharded
    merge rebuilds the serial columns and stats, traced or not."""
    queries = _reads(101)
    serial = QueryEngine(backends[name]).search_batch(queries)
    traced = BatchStats(trace=BatchTrace())
    backend_search(backends[name], queries, traced)
    with ShardedQueryEngine(backends[name], shards=3, executor=executor) as engine:
        sharded = engine.search_batch(QueryBatch.from_strings(queries))
    assert sharded.lows.tolist() == serial.lows.tolist()
    assert sharded.highs.tolist() == serial.highs.tolist()
    for field in STATS_FIELDS:
        assert getattr(sharded.stats, field) == getattr(serial.stats, field), field
        assert getattr(traced, field) == getattr(serial.stats, field), field
    assert sharded == serial


# --------------------------------------------------------------------- #
# One validation for every backend
# --------------------------------------------------------------------- #

#: Invalid query -> the error every backend raises, with its message.
INVALID = {
    "": (ValueError, "query must be non-empty"),
    "$": (AlphabetError, "invalid DNA symbol: '$'"),
    "AC$GT": (AlphabetError, "invalid DNA symbol: '$'"),
    "ACGTACGTACG$": (AlphabetError, "invalid DNA symbol: '$'"),
    "ACGTN": (AlphabetError, "invalid DNA symbol: 'N'"),
    "acgt": (AlphabetError, "invalid DNA symbol: 'a'"),
    "ACGTé": (AlphabetError, "invalid DNA symbol: 'é'"),
}


@pytest.mark.parametrize("query", INVALID, ids=repr)
@pytest.mark.parametrize("name", available_backends())
def test_invalid_queries_are_refused_alike(backends, name, query):
    kind, message = INVALID[query]
    with pytest.raises(ValueError) as direct:
        backend_search(backends[name], [query])
    with QueryEngine(backends[name], shards=2) as engine:
        with pytest.raises(ValueError) as sharded:
            engine.search_batch(["ACGT", query])
    for raised in (direct, sharded):
        assert type(raised.value) is kind
        assert str(raised.value) == message
