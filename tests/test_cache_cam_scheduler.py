"""Unit tests for caches, the scheduling CAM and request schedulers."""

from __future__ import annotations

import pytest

from repro.exma.search import OccRequest
from repro.hw.cache import SetAssociativeCache
from repro.hw.cam import CamConfig, SchedulingQueue
from repro.hw.scheduler import FrFcfsScheduler, TwoStageScheduler, pair_requests_by_kmer


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_same_line_different_offsets_hit(self):
        cache = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        cache.access(0)
        assert cache.access(63) is True

    def test_lru_eviction(self):
        # 2 sets x 2 ways of 64 B lines: addresses 0, 128, 256 map to set 0.
        cache = SetAssociativeCache(256, line_bytes=64, associativity=2)
        cache.access(0)
        cache.access(128)
        cache.access(256)  # evicts line 0
        assert cache.access(0) is False

    def test_lru_promotes_on_hit(self):
        cache = SetAssociativeCache(256, line_bytes=64, associativity=2)
        cache.access(0)
        cache.access(128)
        cache.access(0)  # promote line 0
        cache.access(256)  # evicts 128, not 0
        assert cache.access(0) is True
        assert cache.access(128) is False

    def test_hit_rate(self):
        cache = SetAssociativeCache(1024)
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, line_bytes=64, associativity=8)

    def test_negative_address_raises(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1024).access(-1)

    def test_bigger_cache_hits_more(self):
        addresses = [i * 64 for i in range(64)] * 2
        small = SetAssociativeCache(1024)
        large = SetAssociativeCache(8192)
        for address in addresses:
            small.access(address)
            large.access(address)
        assert large.stats.hit_rate > small.stats.hit_rate


def make_request(kmer: int, pos: int) -> OccRequest:
    return OccRequest(packed_kmer=kmer, pos=pos)


class TestSchedulingQueue:
    def test_capacity_matches_table1(self):
        assert CamConfig().entries == 512
        assert CamConfig().entry_bits == 128

    def test_push_until_full(self):
        queue = SchedulingQueue(CamConfig(entries=2))
        assert queue.push(make_request(1, 1))
        assert queue.push(make_request(2, 2))
        assert not queue.push(make_request(3, 3))
        assert queue.full

    def test_sort_by_kmer(self):
        queue = SchedulingQueue()
        for request in (make_request(3, 0), make_request(1, 5), make_request(2, 2)):
            queue.push(request)
        queue.sort_by_kmer()
        assert [r.packed_kmer for r in queue.peek()] == [1, 2, 3]

    def test_sort_by_pos(self):
        queue = SchedulingQueue()
        for request in (make_request(3, 9), make_request(1, 5), make_request(2, 2)):
            queue.push(request)
        queue.sort_by_pos()
        assert [r.pos for r in queue.peek()] == [2, 5, 9]

    def test_drain_empties_queue(self):
        queue = SchedulingQueue()
        queue.push(make_request(1, 1))
        assert len(queue.drain()) == 1
        assert len(queue) == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CamConfig(entries=0)


class TestSchedulers:
    def _requests(self):
        return [make_request(kmer=i % 7, pos=(i * 37) % 100) for i in range(20)]

    def test_frfcfs_preserves_order(self):
        batches = list(FrFcfsScheduler(CamConfig(entries=8)).schedule(self._requests()))
        flattened = [r for batch in batches for r in batch.stage1]
        assert flattened == self._requests()

    def test_frfcfs_batch_size(self):
        batches = list(FrFcfsScheduler(CamConfig(entries=8)).schedule(self._requests()))
        assert all(len(batch) <= 8 for batch in batches)
        assert sum(len(batch) for batch in batches) == 20

    def test_frfcfs_stage_orders_identical(self):
        batch = next(iter(FrFcfsScheduler(CamConfig(entries=32)).schedule(self._requests())))
        assert batch.stage1 == batch.stage2

    def test_two_stage_sorts_stage1_by_kmer(self):
        batch = next(iter(TwoStageScheduler(CamConfig(entries=32)).schedule(self._requests())))
        kmers = [r.packed_kmer for r in batch.stage1]
        assert kmers == sorted(kmers)

    def test_two_stage_sorts_stage2_by_pos(self):
        batch = next(iter(TwoStageScheduler(CamConfig(entries=32)).schedule(self._requests())))
        positions = [r.pos for r in batch.stage2]
        assert positions == sorted(positions)

    def test_two_stage_preserves_all_requests(self):
        batches = list(TwoStageScheduler(CamConfig(entries=8)).schedule(self._requests()))
        scheduled = sorted(
            (r.packed_kmer, r.pos) for batch in batches for r in batch.stage1
        )
        expected = sorted((r.packed_kmer, r.pos) for r in self._requests())
        assert scheduled == expected

    def test_two_stage_batches_bounded_by_cam(self):
        batches = list(TwoStageScheduler(CamConfig(entries=4)).schedule(self._requests()))
        assert all(len(batch) <= 4 for batch in batches)

    def test_empty_input(self):
        assert list(TwoStageScheduler().schedule([])) == []
        assert list(FrFcfsScheduler().schedule([])) == []


class TestKeepOpenHints:
    def test_pair_hint_set_when_same_kmer_pending(self):
        batch = (make_request(5, 1), make_request(5, 9), make_request(6, 2))
        annotated = pair_requests_by_kmer(batch)
        assert annotated[0][1] is True
        assert annotated[1][1] is False
        assert annotated[2][1] is False

    def test_three_requests_same_kmer(self):
        batch = (make_request(4, 1), make_request(4, 2), make_request(4, 3))
        hints = [hint for _, hint in pair_requests_by_kmer(batch)]
        assert hints == [True, True, False]

    def test_empty_batch(self):
        assert pair_requests_by_kmer(()) == []
