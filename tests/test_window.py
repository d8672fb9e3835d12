"""Hand-computed oracle + property tests for the coalescing window.

The window semantics are pinned by two oracles: a window of W=1 equals
per-batch coalescing exactly (each flush is ``coalesce_requests`` applied
to that one batch), and W>1 never emits more post-merge requests than the
sum of the per-batch counts.  For capacities that divide each other the
total post-merge count is monotone non-increasing in W — every 2W-window
is the union of two aligned W-windows — and hypothesis checks that on
arbitrary streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.coalesce import RequestStream, coalesce_requests
from repro.engine.window import CoalescingWindow, WindowedBatch
from repro.exma.search import OccRequest


def R(kmer: int, pos: int) -> OccRequest:
    return OccRequest(packed_kmer=kmer, pos=pos)


class TestWindowOracle:
    """Tiny request streams worked out by hand."""

    def test_w1_equals_per_batch_coalescing_exactly(self):
        # Batch carries a duplicated pair and an unsorted order; W=1 must
        # produce exactly what coalesce_requests produces for the batch.
        batch = [R(7, 4), R(3, 0), R(7, 4), R(3, 9)]
        window = CoalescingWindow(1)
        flushed = window.push(batch)
        assert flushed is not None
        step = coalesce_requests(
            np.array([r.packed_kmer for r in batch]),
            np.array([r.pos for r in batch]),
            span=10,
        )
        oracle = [
            R(int(k), int(p)) for k, p in zip(step.kmers.tolist(), step.positions.tolist())
        ]
        assert list(flushed.requests) == oracle == [R(3, 0), R(3, 9), R(7, 4)]
        assert flushed.issued == 4
        assert flushed.unique == 3
        assert flushed.merged == 1
        assert flushed.batches == 1

    def test_w2_merges_cross_batch_duplicates_once(self):
        # (3,0) appears in both batches: the window resolves it once.
        first = [R(3, 0), R(7, 4)]
        second = [R(3, 0), R(1, 2)]
        window = CoalescingWindow(2)
        assert window.push(first) is None
        assert window.pending == 1
        flushed = window.push(second)
        assert flushed is not None
        assert list(flushed.requests) == [R(1, 2), R(3, 0), R(7, 4)]
        assert flushed.issued == 4
        assert flushed.unique == 3
        assert flushed.batches == 2
        assert window.pending == 0

    def test_w2_never_exceeds_sum_of_per_batch_counts(self):
        # Disjoint batches: merging buys nothing, but costs nothing either.
        first = [R(1, 1)]
        second = [R(2, 2)]
        flushes = list(CoalescingWindow(2).stream([first, second]))
        assert sum(f.unique for f in flushes) == 2 == len(first) + len(second)

    def test_flush_emits_trailing_partial_window(self):
        window = CoalescingWindow(4)
        assert window.push([R(1, 1)]) is None
        assert window.push([R(1, 1), R(2, 2)]) is None
        flushed = window.flush()
        assert flushed is not None
        assert flushed.batches == 2
        assert flushed.issued == 3
        assert list(flushed.requests) == [R(1, 1), R(2, 2)]
        assert window.flush() is None

    def test_stream_yields_full_then_partial_windows(self):
        batches = [[R(1, 1)], [R(2, 2)], [R(3, 3)]]
        flushes = list(CoalescingWindow(2).stream(batches))
        assert [f.batches for f in flushes] == [2, 1]
        assert [f.unique for f in flushes] == [2, 1]

    def test_pushed_stream_is_snapshotted_not_aliased(self):
        """A buffered columnar stream must not grow with its producer:
        pushing ``stats.requests`` and then searching another batch into
        the same stats object may not leak the later requests into the
        flushed window."""
        stream = RequestStream()
        stream.append_step(np.array([1 * 10 + 0, 2 * 10 + 5]), 10)
        window = CoalescingWindow(capacity=4)
        window.push(stream)
        stream.append_step(np.array([7 * 10 + 7]), 10)  # producer keeps going
        flushed = window.flush()
        assert flushed.issued == 2
        assert flushed.requests == (R(1, 0), R(2, 5))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CoalescingWindow(0)

    def test_windowed_batch_counters(self):
        flushed = WindowedBatch.from_requests((R(1, 1),), batches=2, issued=5)
        assert flushed.unique == 1
        assert flushed.merged == 4


class TestColumnarFlush:
    """The flush path never materialises request objects."""

    def test_flush_stays_columnar_until_requests_accessed(self):
        stream = RequestStream()
        stream.append_step(np.array([1 * 10 + 0, 2 * 10 + 5]), 10)
        flushed = CoalescingWindow(1).push(stream)
        assert flushed is not None
        assert not flushed.materialised
        assert flushed.keys.dtype == np.int64
        assert np.array_equal(flushed.kmers, [1, 2])
        assert np.array_equal(flushed.positions, [0, 5])
        assert not flushed.materialised  # column access keeps it columnar
        assert flushed.requests == (R(1, 0), R(2, 5))
        assert flushed.materialised

    def test_flush_keys_are_unique_and_sorted(self):
        batches = [[R(3, 1), R(3, 1), R(1, 9)], [R(3, 1), R(2, 0)]]
        flushed = CoalescingWindow(2)
        flushed.push(batches[0])
        merged = flushed.push(batches[1])
        assert merged is not None
        assert np.array_equal(merged.keys, np.unique(merged.keys))
        assert merged.unique == 3
        assert merged.issued == 5

    def test_mixed_span_chunks_rebase_onto_widest_span(self):
        narrow = RequestStream()
        narrow.append_step(np.array([2 * 4 + 3]), 4)  # (2, 3) with span 4
        wide = RequestStream()
        wide.append_step(np.array([2 * 100 + 3, 5 * 100 + 7]), 100)
        window = CoalescingWindow(2)
        window.push(narrow)
        merged = window.push(wide)
        assert merged is not None
        # (2, 3) appears in both spans: one survivor after the re-base.
        assert merged.unique == 2
        assert merged.requests == (R(2, 3), R(5, 7))

    def test_mixed_span_merge_equals_pairwise_dedupe(self):
        # Three batches, several chunks each, packed under spans 8, 50 and
        # 1000, with pairs repeated inside a chunk, across chunks and
        # across spans: the merge must equal the sorted set of pairs.
        rng = np.random.default_rng(4)
        window = CoalescingWindow(3)
        pairs: set[tuple[int, int]] = set()
        merged = None
        for span in (8, 50, 1000):
            stream = RequestStream()
            for _ in range(3):
                kmers = rng.integers(0, 6, 40)
                positions = rng.integers(0, 8, 40)
                stream.append_step(np.sort(kmers * span + positions), span)
                pairs.update(zip(kmers.tolist(), positions.tolist()))
            merged = window.push(stream)
        assert merged is not None
        assert merged.span == 1000 and merged.issued == 360
        assert list(zip(merged.kmers.tolist(), merged.positions.tolist())) == sorted(pairs)

    def test_all_duplicate_window_keeps_one_copy(self):
        batch = [R(3, 1), R(1, 9), R(2, 0)]
        window = CoalescingWindow(4)
        for _ in range(3):
            assert window.push(list(batch)) is None
        merged = window.push(list(batch))
        assert merged is not None
        assert merged.requests == (R(1, 9), R(2, 0), R(3, 1))
        assert (merged.issued, merged.unique, merged.merged) == (12, 3, 9)
        single = CoalescingWindow(1).push([R(7, 7)] * 5)
        assert single is not None and single.keys.tolist() == [7 * single.span + 7]

    def test_windowed_batch_is_a_sequence(self):
        flushed = CoalescingWindow(1).push([R(4, 2), R(1, 1)])
        assert flushed is not None
        assert len(flushed) == 2
        assert flushed[0] == R(1, 1)
        assert list(flushed) == [R(1, 1), R(4, 2)]


# --------------------------------------------------------------------- #
# Properties on arbitrary streams
# --------------------------------------------------------------------- #

request_strategy = st.builds(
    R, st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)
)
stream_strategy = st.lists(
    st.lists(request_strategy, min_size=0, max_size=12), min_size=1, max_size=12
)


class TestWindowProperties:
    @given(stream=stream_strategy)
    @settings(max_examples=60, deadline=None)
    def test_post_merge_counts_monotone_over_power_of_two_windows(self, stream):
        totals = [
            sum(f.unique for f in CoalescingWindow(w).stream(stream))
            for w in (1, 2, 4, 8)
        ]
        assert totals == sorted(totals, reverse=True)

    @given(stream=stream_strategy, capacity=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_issued_requests_conserved_and_bounded(self, stream, capacity):
        flushes = list(CoalescingWindow(capacity).stream(stream))
        assert sum(f.issued for f in flushes) == sum(len(batch) for batch in stream)
        per_batch_total = sum(f.unique for f in CoalescingWindow(1).stream(stream))
        assert sum(f.unique for f in flushes) <= per_batch_total
        for flushed in flushes:
            assert flushed.unique <= flushed.issued
            assert flushed.batches <= capacity
            # Unique within a flush, sorted (kmer, pos)-major.
            pairs = [(r.packed_kmer, r.pos) for r in flushed.requests]
            assert pairs == sorted(set(pairs))

    @given(stream=stream_strategy)
    @settings(max_examples=30, deadline=None)
    def test_whole_stream_window_equals_global_dedupe(self, stream):
        flushes = list(CoalescingWindow(len(stream)).stream(stream))
        assert len(flushes) == 1
        merged = flushes[0].requests
        expected = sorted({(r.packed_kmer, r.pos) for batch in stream for r in batch})
        assert [(r.packed_kmer, r.pos) for r in merged] == expected
