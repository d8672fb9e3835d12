"""Queries in as a :class:`QueryBatch`, answers out as columns.

Every backend takes the same encoded batch and returns ``(lows, highs)``.
This file pins what that must not change: the answers of the
``offline-search`` benchmark stack's 2 000 reads (a sha256 over the
columns), the intervals of mixed-length batches on all six backends, the
one validation every backend shares, and sharded ≡ serial on the columns
and on :class:`BatchStats` field for field.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import QueryEngine, available_backends
from repro.engine.backends import ExmaBackend, create_backend
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
