"""The EXMA scheduling queue: a sorting content-addressable memory.

The accelerator buffers incoming FM-Index requests — (k-mer, pos) pairs —
in a CAM of 512 entries, 128 bits each (Table I).  The CAM supports the
sort operations the 2-stage scheduler needs: order the resident requests by
k-mer (stage 1) or by pos (stage 2).  Each DNA symbol is encoded with
3 bits ($, A, C, G, T), so a 128-bit entry comfortably holds a 15-mer plus
a 32-bit position, matching the paper's sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exma.search import OccRequest

#: Bits used to encode one DNA symbol in a CAM entry.
SYMBOL_BITS = 3

#: Bits used for the position field of a CAM entry.
POSITION_BITS = 32


@dataclass(frozen=True)
class CamConfig:
    """Scheduling-queue geometry."""

    entries: int = 512
    entry_bits: int = 128

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entry_bits <= 0:
            raise ValueError("entries and entry_bits must be positive")


class SchedulingQueue:
    """A bounded queue of Occ requests with CAM-style sorting.

    Requests beyond the capacity stay in an overflow list and only enter
    the CAM as entries drain — which is why a 256-entry CAM "cannot fully
    satisfy 2-stage scheduling" (Fig. 22): the scheduler can only reorder
    what is physically resident.
    """

    def __init__(self, config: CamConfig | None = None) -> None:
        self._config = config or CamConfig()
        self._entries: list[OccRequest] = []

    @property
    def capacity(self) -> int:
        """Maximum number of resident requests."""
        return self._config.entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Whether the CAM is at capacity."""
        return len(self._entries) >= self.capacity

    def push(self, request: OccRequest) -> bool:
        """Insert a request; returns False when the CAM is full."""
        if self.full:
            return False
        self._entries.append(request)
        return True

    def sort_by_kmer(self) -> None:
        """Stage-1 sort: lexicographic by k-mer (packed code order)."""
        self._entries.sort(key=lambda r: r.packed_kmer)

    def sort_by_pos(self) -> None:
        """Stage-2 sort: by position value."""
        self._entries.sort(key=lambda r: r.pos)

    def drain(self) -> list[OccRequest]:
        """Remove and return every resident request in current order."""
        drained = self._entries
        self._entries = []
        return drained

    def peek(self) -> list[OccRequest]:
        """The resident requests in current order (no removal)."""
        return list(self._entries)
