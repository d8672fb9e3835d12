"""Set-associative caches for the EXMA accelerator.

The accelerator integrates two on-chip caches (Table I): a 1 MB 8-way
eDRAM *base cache* holding EXMA base entries and a 32 KB 16-way SRAM
*index cache* holding MTL index nodes.  Both are modelled as classic
set-associative LRU caches over abstract line addresses; the 2-stage
scheduling experiments (Fig. 15/16/18) are entirely about how request
ordering changes these caches' hit rates.

Two implementations share the semantics:

* :class:`SetAssociativeCache` — the per-access object model, kept as the
  reference the oracle suite replays against;
* :func:`simulate_lru_hits` — the columnar replay's set-grouped array
  simulation of a whole cold-start access sequence at once, exact LRU
  (identical hit mask to calling :meth:`SetAssociativeCache.access` in
  order on a fresh cache).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .jit import jit_recurrence


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """A set-associative cache with LRU replacement over line addresses.

    Args:
        capacity_bytes: total cache capacity.
        line_bytes: bytes per cache line.
        associativity: ways per set.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 64, associativity: int = 8) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("capacity, line size and associativity must be positive")
        if capacity_bytes % (line_bytes * associativity) != 0:
            raise ValueError("capacity must be a multiple of line_bytes * associativity")
        self._line_bytes = line_bytes
        self._associativity = associativity
        self._num_sets = capacity_bytes // (line_bytes * associativity)
        self._sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(self._num_sets)]
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self._num_sets * self._associativity * self._line_bytes

    @property
    def line_bytes(self) -> int:
        """Cache line size in bytes."""
        return self._line_bytes

    @property
    def associativity(self) -> int:
        """Ways per set."""
        return self._associativity

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on hit.  Misses allocate."""
        if address < 0:
            raise ValueError("address must be non-negative")
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        ways[tag] = None
        if len(ways) > self._associativity:
            ways.popitem(last=False)
        return False

    def contains(self, address: int) -> bool:
        """Whether the line holding *address* is currently cached."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def flush(self) -> None:
        """Invalidate every line (the paper flushes EXMA data from the CPU
        hierarchy before searches start; the accelerator caches start cold)."""
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching contents."""
        self.stats = CacheStats()


def simulate_lru_hits(
    addresses: np.ndarray,
    capacity_bytes: int,
    line_bytes: int = 64,
    associativity: int = 8,
) -> np.ndarray:
    """Hit mask of a cold set-associative LRU cache over a whole sequence.

    Exactly equivalent to constructing a fresh :class:`SetAssociativeCache`
    and calling :meth:`~SetAssociativeCache.access` once per address in
    order — but computed as *set-grouped array processing*:

    * accesses are grouped by set with one stable argsort, and runs of
      the same line within a set collapse first (every access after a
      run's head is a guaranteed hit that leaves the LRU stack unchanged,
      because the line just became most-recently-used);
    * the surviving run heads advance every set's LRU stack together, one
      resident access per set per round, on a ``(sets, ways)`` recency
      matrix whose rows are laid out in descending access-count order so
      each round touches a plain prefix slice.

    The serial dimension is the deepest set's collapsed access count
    instead of the sequence length, so the cost collapses whenever
    traffic spreads over more than a handful of sets.  Degenerate shapes
    (nearly everything landing in one set) fall back to a flat sequential
    pass over the pre-decoded set/tag columns — same exact semantics
    without the per-round array overhead.

    Returns a boolean array aligned with *addresses* (True = hit).
    """
    if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
        raise ValueError("capacity, line size and associativity must be positive")
    if capacity_bytes % (line_bytes * associativity) != 0:
        raise ValueError("capacity must be a multiple of line_bytes * associativity")
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and int(addresses.min()) < 0:
        raise ValueError("address must be non-negative")
    hits = np.empty(addresses.size, dtype=bool)
    if addresses.size == 0:
        return hits

    num_sets = capacity_bytes // (line_bytes * associativity)
    tags = addresses // line_bytes
    set_indices = tags % num_sets

    order = np.argsort(set_indices, kind="stable")
    sorted_sets = set_indices[order]
    sorted_tags = tags[order]

    # Collapse same-line runs within each set's subsequence.
    run_head = np.ones(sorted_tags.size, dtype=bool)
    run_head[1:] = (sorted_tags[1:] != sorted_tags[:-1]) | (
        sorted_sets[1:] != sorted_sets[:-1]
    )
    hit_grouped = np.empty(sorted_tags.size, dtype=bool)
    hit_grouped[~run_head] = True
    head_slots = np.flatnonzero(run_head)
    head_tags = sorted_tags[head_slots]
    head_sets = sorted_sets[head_slots]

    _, group_start, group_size = np.unique(
        head_sets, return_index=True, return_counts=True
    )
    rounds = int(group_size.max())

    if _lru_heads_jit is not None:
        # Compiled flat exact-LRU pass: the same recency update as the
        # round/sequential fallbacks, one scalar loop over the heads in
        # their set-grouped order.  Beats both fallbacks at every shape,
        # and releases the GIL for the epoch-parallel replay workers.
        group_of_head = np.repeat(
            np.arange(group_size.size, dtype=np.int64), group_size
        )
        head_hits = _lru_heads_jit(
            np.ascontiguousarray(head_tags, dtype=np.int64),
            group_of_head,
            int(associativity),
            int(group_size.size),
        )
    elif rounds * 8 > head_tags.size and rounds > 32:
        # Skewed towards few sets: per-round matrices would be narrower
        # than their own dispatch overhead.  Same semantics, flat pass.
        head_hits = np.empty(head_tags.size, dtype=bool)
        _simulate_sequential(head_sets, head_tags, associativity, head_hits)
    else:
        head_hits = _simulate_rounds(
            head_tags, group_start, group_size, associativity, rounds
        )
    hit_grouped[head_slots] = head_hits
    hits[order] = hit_grouped
    return hits


def _lru_heads(
    head_tags: np.ndarray,
    group_of_head: np.ndarray,
    associativity: int,
    group_count: int,
) -> np.ndarray:
    """Exact LRU over collapsed run heads, one scalar pass (numba shape).

    *head_tags*/*group_of_head* are the set-grouped head columns that
    :func:`simulate_lru_hits` builds; each group's heads appear in their
    original access order, so per-group LRU over this order equals
    per-set LRU over the original sequence.  Tags are non-negative, so
    ``-1`` marks an empty way — the same convention as
    :func:`_simulate_rounds`.
    """
    state = np.full((group_count, associativity), -1, dtype=np.int64)
    hits = np.empty(head_tags.size, dtype=np.bool_)
    for index in range(head_tags.size):
        group = group_of_head[index]
        tag = head_tags[index]
        way = associativity - 1
        hit = False
        for probe in range(associativity):
            if state[group, probe] == tag:
                way = probe
                hit = True
                break
        for slot in range(way, 0, -1):
            state[group, slot] = state[group, slot - 1]
        state[group, 0] = tag
        hits[index] = hit
    return hits


#: numba-compiled head-LRU pass, or ``None`` when numba is absent/disabled.
_lru_heads_jit = jit_recurrence(_lru_heads)


def _simulate_rounds(
    head_tags: np.ndarray,
    group_start: np.ndarray,
    group_size: np.ndarray,
    associativity: int,
    rounds: int,
) -> np.ndarray:
    """Advance every set's LRU stack one access per round, vectorized."""
    # Lay the recency matrix out in descending access-count order: the
    # sets still active in round r are then exactly rows [0, active_r),
    # so every round works on prefix slices instead of fancy gathers.
    by_depth = np.argsort(-group_size, kind="stable")
    depth_rank = np.empty(by_depth.size, dtype=np.int64)
    depth_rank[by_depth] = np.arange(by_depth.size)

    group_of_head = np.repeat(np.arange(group_size.size), group_size)
    round_of_head = np.arange(head_tags.size) - np.repeat(group_start, group_size)
    round_major = np.lexsort((depth_rank[group_of_head], round_of_head))
    tags_round_major = head_tags[round_major]
    active_per_round = np.bincount(round_of_head, minlength=rounds)
    bounds = np.concatenate(([0], np.cumsum(active_per_round)))

    # tags are non-negative (addresses are), so -1 marks an empty way.
    state = np.full((group_size.size, associativity), -1, dtype=np.int64)
    shifted = np.empty_like(state)
    ways = np.arange(associativity)
    hit_round_major = np.empty(head_tags.size, dtype=bool)
    for round_index in range(rounds):
        begin, end = bounds[round_index], bounds[round_index + 1]
        active = end - begin
        resident = state[:active]
        tag_now = tags_round_major[begin:end]
        match = resident == tag_now[:, None]
        hit = match.any(axis=1)
        # Hits rotate [0, way] right by one; misses rotate the whole row
        # (LRU eviction), which is the same rotation with way = ways - 1.
        way = np.where(hit, match.argmax(axis=1), associativity - 1)
        shifted[:active, 0] = tag_now
        shifted[:active, 1:] = resident[:, :-1]
        state[:active] = np.where(
            ways[None, :] <= way[:, None], shifted[:active], resident
        )
        hit_round_major[begin:end] = hit
    head_hits = np.empty(head_tags.size, dtype=bool)
    head_hits[round_major] = hit_round_major
    return head_hits


def _simulate_sequential(
    sorted_sets: np.ndarray,
    sorted_tags: np.ndarray,
    associativity: int,
    hits: np.ndarray,
) -> None:
    """Flat exact-LRU pass over set-grouped columns (skew fallback)."""
    stacks: dict[int, OrderedDict[int, None]] = {}
    for position, (set_index, tag) in enumerate(
        zip(sorted_sets.tolist(), sorted_tags.tolist())
    ):
        stack = stacks.get(set_index)
        if stack is None:
            stack = stacks[set_index] = OrderedDict()
        if tag in stack:
            stack.move_to_end(tag)
            hits[position] = True
            continue
        hits[position] = False
        stack[tag] = None
        if len(stack) > associativity:
            stack.popitem(last=False)
