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
* :func:`simulate_lru_hits` — the columnar replay's state-free
  stack-distance evaluation of a whole cold-start access sequence at
  once, exact LRU (identical hit mask to calling
  :meth:`SetAssociativeCache.access` in order on a fresh cache).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def simulate_lru_hits(
    addresses: np.ndarray,
    capacity_bytes: int,
    line_bytes: int = 64,
    associativity: int = 8,
) -> np.ndarray:
    """Hit mask of a cold set-associative LRU cache over a whole sequence.

    Exactly equivalent to constructing a fresh :class:`SetAssociativeCache`
    and calling :meth:`~SetAssociativeCache.access` once per address in
    order — but computed from the sequence alone, with no recency state:

    * accesses are grouped by set with one stable (radix) argsort of the
      narrow set ids, and runs of the same line within a set collapse
      first (every access after a run's head is a guaranteed hit that
      leaves the LRU stack unchanged, because the line just became
      most-recently-used);
    * a surviving run head hits iff its line was touched before and fewer
      than ``ways`` *distinct* lines of its set were touched since — the
      LRU stack-distance criterion.  One stable argsort by line gives
      every head its previous and next occurrence; a head whose reuse gap
      (heads in between) is below ``ways`` hits outright, a first
      occurrence misses outright, and the remaining ambiguous heads count
      the distinct lines in between as the in-between heads that are
      *live* — whose own next occurrence lies beyond the querying head —
      over look-back windows that double until the count reaches
      ``ways`` (miss) or the window reaches the previous occurrence
      (hit).

    Any position is inspected by at most ``ways`` exact look-backs (each
    querying head adds one more distinct line in front of it), and a
    doubling window at most doubles a look-back, so the work is
    O(n · ways) on every trace — a hot line alternating with a streaming
    one, a cycle of ``ways + 1`` lines, everything aliased to one set —
    and the look-back matrices are transient.

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
    tags -= tags.min()
    # ``tags % num_sets``, spelled with a floor division (NumPy divides
    # by a scalar several times faster than it takes the remainder),
    # reusing one temporary column.
    set_indices = tags // num_sets
    set_indices *= num_sets
    np.subtract(tags, set_indices, out=set_indices)
    set_indices = set_indices.astype(np.min_scalar_type(num_sets - 1))
    order = np.argsort(set_indices, kind="stable")
    sorted_tags = tags[order]

    # Collapse same-line runs within each set's subsequence (a line maps
    # to one set, so a change of set is a change of line).
    run_head = np.empty(sorted_tags.size, dtype=bool)
    run_head[0] = True
    np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=run_head[1:])
    head_slots = np.flatnonzero(run_head)
    hit_grouped = np.ones(sorted_tags.size, dtype=bool)
    hit_grouped[head_slots] = _head_hits(sorted_tags[head_slots], associativity)
    hits[order] = hit_grouped
    return hits


def _head_hits(head_tags: np.ndarray, ways: int) -> np.ndarray:
    """Stack-distance hit mask of set-grouped, run-collapsed line tags.

    Each set's heads are contiguous and in access order, and a line
    belongs to one set, so everything between a head and its previous
    occurrence is traffic of its own set.
    """
    count = head_tags.size
    by_tag = np.argsort(
        head_tags.astype(np.min_scalar_type(int(head_tags.max()))), kind="stable"
    )
    same = head_tags[by_tag[1:]] == head_tags[by_tag[:-1]]
    earlier, later = by_tag[:-1][same], by_tag[1:][same]
    # Heads strictly between a head and its previous occurrence (run
    # collapse makes that at least one; 0 marks a first occurrence).
    gap = np.zeros(count, dtype=np.int64)
    gap[later] = later - earlier - 1
    # Distance to each head's next occurrence, behind a zero front pad so
    # a look-back window may start before the first head.
    reach = np.zeros(2 * count, dtype=np.int64)
    reach[count:] = count
    reach[count + earlier] = later - earlier

    head_hits = (gap > 0) & (gap < ways)
    pending = np.flatnonzero(gap >= ways)
    pending_gap = gap[pending]
    live = np.zeros(pending.size, dtype=np.int64)
    near, far = 0, ways
    while pending.size:
        # Offsets (near, far] behind each pending head, oldest first; the
        # head at offset d is live when its next occurrence is further
        # than d away, and only offsets inside the gap count.
        offsets = np.arange(far, near, -1)
        window = sliding_window_view(reach, far - near)[pending + (count - far)]
        live += np.count_nonzero(
            (window > offsets) & (offsets <= pending_gap[:, None]), axis=1
        )
        full = live >= ways
        decided = full | (pending_gap <= far)
        head_hits[pending[decided & ~full]] = True
        pending, pending_gap, live = (
            pending[~decided], pending_gap[~decided], live[~decided]
        )
        near, far = far, 2 * far
    return head_hits
