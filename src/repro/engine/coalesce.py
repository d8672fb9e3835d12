"""Request coalescing for batched backward search.

Each lockstep iteration of a batched search issues two Occ requests per
live query — ``(kmer, low)`` and ``(kmer, high)``.  Across a batch many of
those pairs repeat: queries share k-mers (the k-mer working set is tiny
compared to the batch) and queries tracking the same match share interval
bounds.  The paper's accelerator merges duplicate requests on the DRAM
side (Fig. 14/15) so each unique ``(kmer, pos)`` pair is resolved exactly
once per scheduling window; :func:`coalesce_requests` is the software
mirror of that merge, and :class:`BatchStats` records how much traffic it
removed so the ``hw/`` cost model can replay the post-merge stream.

The post-merge stream itself is **columnar**: :class:`RequestStream` keeps
the per-step unique ``(kmer, pos)`` pairs as packed int64 arrays, and the
accelerator's columnar replay (:meth:`repro.accel.exma_accelerator
.ExmaAccelerator.run`) consumes those arrays directly — neither the hot
recording loop nor the replay ever leaves NumPy.
:class:`~repro.exma.search.OccRequest` objects materialise only when a
legacy consumer (``to_search_stats``, the object-path reference replay,
tests) iterates the stream.

For sharded runs, backends additionally record each step's per-unique-
request accounting *contributions* (:class:`StepContribution`: increment
entries, predictions and their errors, binary comparisons) keyed by the
step's packed keys.  Those contributions are what lets
:func:`repro.engine.sharded.merge_shard_stats` rebuild serial-exact
counters by pure array dedupe — no replay pass over the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exma.search import ExmaSearchStats, OccRequest

__all__ = [
    "BatchStats",
    "BatchTrace",
    "CoalescedStep",
    "RequestStream",
    "StepContribution",
    "StepTrace",
    "TailContribution",
    "coalesce_requests",
    "pack_requests",
]


def pack_requests(requests: Sequence[OccRequest]) -> tuple[np.ndarray, int]:
    """Pack request objects into one ``kmer * span + pos`` int64 key array.

    The single definition of the packing scheme shared by every consumer
    that turns an object sequence into columns (:meth:`RequestStream
    .extend`, the window buffer, :meth:`~repro.engine.window.WindowedBatch
    .from_requests`): *span* is the exclusive position bound
    ``max(pos) + 1`` (1 for an empty sequence), so ascending key order is
    the lexicographic ``(kmer, pos)`` order.
    """
    if not requests:
        return np.empty(0, dtype=np.int64), 1
    kmers = np.array([request.packed_kmer for request in requests], dtype=np.int64)
    positions = np.array([request.pos for request in requests], dtype=np.int64)
    span = int(positions.max()) + 1
    return kmers * span + positions, span


@dataclass(frozen=True)
class CoalescedStep:
    """The unique Occ requests of one lockstep iteration.

    ``kmers``/``positions`` hold each unique ``(kmer, pos)`` pair once,
    sorted by ``(kmer, pos)`` — the k-mer-major order the accelerator's
    stage-1 scheduler wants.  ``inverse`` maps every originally issued
    request slot back to its unique pair, so results computed once per
    unique pair scatter back to all issuers.  ``keys`` carries the packed
    ``kmer * span + pos`` form of the same pairs (sorted ascending), which
    sharded traces store verbatim so the cross-shard union never has to
    re-pack anything.
    """

    kmers: np.ndarray
    positions: np.ndarray
    inverse: np.ndarray
    issued: int
    keys: np.ndarray
    span: int

    @property
    def unique(self) -> int:
        """Number of unique (kmer, pos) pairs."""
        return int(self.kmers.size)

    @property
    def unique_kmers(self) -> int:
        """Number of distinct k-mers among the unique pairs.

        ``kmers`` is k-mer-major sorted, so distinct values are counted
        from the boundaries without another ``np.unique`` sort.
        """
        if self.kmers.size == 0:
            return 0
        return int(np.count_nonzero(np.diff(self.kmers))) + 1

    @property
    def merged(self) -> int:
        """Requests eliminated by coalescing in this step."""
        return self.issued - self.unique

    def scatter(self, unique_values: np.ndarray) -> np.ndarray:
        """Broadcast per-unique-pair results back to every issued request."""
        return unique_values[self.inverse]


def coalesce_requests(kmers: np.ndarray, positions: np.ndarray, span: int) -> CoalescedStep:
    """Merge duplicate ``(kmer, pos)`` requests of one lockstep iteration.

    Args:
        kmers: packed k-mer code per issued request.
        positions: Occ position per issued request, each in ``[0, span)``.
        span: exclusive upper bound on positions (reference length + 1),
            used to pack each pair into one sortable integer key.
    """
    kmers = np.asarray(kmers, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if kmers.shape != positions.shape:
        raise ValueError("kmers and positions must have identical shapes")
    keys = kmers * span + positions
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    return CoalescedStep(
        kmers=unique_keys // span,
        positions=unique_keys % span,
        inverse=inverse,
        issued=int(keys.size),
        keys=unique_keys,
        span=span,
    )


class RequestStream(Sequence):
    """Columnar post-coalescing request stream with a lazy object view.

    One chunk of packed ``kmer * span + pos`` int64 keys per lockstep
    step, in schedule order — the exact array the coalescer produced, so
    appending a step is O(1) and a traced sharded run ships each step's
    keys over the process-pool pipe **once** (the trace references the
    same array objects; pickle memoises them).  ``kmers``/``positions``
    decompose the keys on demand (cached), and
    :class:`~repro.exma.search.OccRequest` objects are built only when
    something indexes or iterates the stream, cached until it grows.
    """

    __slots__ = ("_key_chunks", "_spans", "_size", "_columns", "_view")

    def __init__(self) -> None:
        self._key_chunks: list[np.ndarray] = []
        self._spans: list[int] = []
        self._size = 0
        self._columns: tuple[np.ndarray, np.ndarray] | None = None
        self._view: list[OccRequest] | None = None

    def append_step(self, keys: np.ndarray, span: int) -> None:
        """Append one step's packed unique keys (stored by reference)."""
        self._key_chunks.append(keys)
        self._spans.append(int(span))
        self._size += int(keys.size)
        self._columns = None
        self._view = None

    def extend(self, other: "RequestStream" | Iterable[OccRequest]) -> None:
        """Concatenate another stream (O(chunks)) or any request iterable."""
        if isinstance(other, RequestStream):
            self._key_chunks.extend(other._key_chunks)
            self._spans.extend(other._spans)
            self._size += other._size
            self._columns = None
            self._view = None
            return
        requests = list(other)
        if requests:
            self.append_step(*pack_requests(requests))

    def chunks(self) -> list[tuple[np.ndarray, int]]:
        """The per-step ``(packed keys, span)`` pairs, arrays by reference.

        The key arrays are never mutated in place after being appended, so
        handing them out by reference is also a snapshot: a consumer — the
        :class:`~repro.engine.window.CoalescingWindow` buffer — can hold
        the chunk list while the producing stats object keeps growing.
        """
        return list(zip(self._key_chunks, self._spans))

    def snapshot(self) -> "RequestStream":
        """A copy decoupled from future growth of this stream.

        The per-step key arrays are shared (the engine never mutates them
        in place); only the chunk bookkeeping is copied, so a consumer —
        e.g. :meth:`repro.engine.window.CoalescingWindow.push` — can hold
        the stream while the producing ``BatchStats`` keeps accumulating.
        """
        copy = RequestStream()
        copy._key_chunks = list(self._key_chunks)
        copy._spans = list(self._spans)
        copy._size = self._size
        return copy

    def _decomposed(self) -> tuple[np.ndarray, np.ndarray]:
        if self._columns is None:
            if not self._key_chunks:
                empty = np.empty(0, dtype=np.int64)
                self._columns = (empty, empty)
            else:
                kmers = np.concatenate(
                    [keys // span for keys, span in zip(self._key_chunks, self._spans)]
                )
                positions = np.concatenate(
                    [keys % span for keys, span in zip(self._key_chunks, self._spans)]
                )
                self._columns = (kmers, positions)
        return self._columns

    @property
    def kmers(self) -> np.ndarray:
        """All k-mer codes, concatenated in schedule order."""
        return self._decomposed()[0]

    @property
    def positions(self) -> np.ndarray:
        """All Occ positions, concatenated in schedule order."""
        return self._decomposed()[1]

    def materialize(self) -> list[OccRequest]:
        """The stream as :class:`OccRequest` objects (cached until it grows)."""
        if self._view is None:
            kmers, positions = self._decomposed()
            self._view = [
                OccRequest(packed_kmer=kmer, pos=pos)
                for kmer, pos in zip(kmers.tolist(), positions.tolist())
            ]
        return self._view

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[OccRequest]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestStream):
            return (
                self._size == other._size
                and np.array_equal(self.kmers, other.kmers)
                and np.array_equal(self.positions, other.positions)
            )
        if isinstance(other, (list, tuple)):
            return self.materialize() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestStream({self._size} requests, {len(self._key_chunks)} steps)"


@dataclass(frozen=True)
class StepContribution:
    """Per-unique-request accounting of one coalesced step.

    Each array is aligned with the step's unique requests (sorted
    ``(kmer, pos)`` order); ``None`` means the backend contributes nothing
    to that counter family.  The values depend only on the ``(kmer, pos)``
    pair and the index structure — never on which batch or shard issued
    the request — which is what makes cross-shard dedupe by packed key
    exact:

    * ``entries`` — increment entries read resolving the request;
    * ``predicted`` — mask of requests answered through a learned index
      (each contributes one ``index_predictions``);
    * ``errors`` — prediction error per request (consumed where
      ``predicted`` is set, in key order — the serial append order);
    * ``comparisons`` — binary-search comparisons per request.
    """

    entries: np.ndarray | None = None
    predicted: np.ndarray | None = None
    errors: np.ndarray | None = None
    comparisons: np.ndarray | None = None

    _COLUMNS = ("entries", "predicted", "errors", "comparisons")


@dataclass(frozen=True)
class TailContribution:
    """Accounting owed by one *distinct* partial-chunk tail.

    Tails are resolved once per distinct string before the lockstep loop;
    like step contributions, the costs depend only on the tail and the
    index, so the cross-shard merge keeps the first-seen occurrence and
    drops duplicates.
    """

    base_reads: int = 0
    comparisons: int = 0
    predictions: int = 0
    errors: tuple[int, ...] = ()


@dataclass(frozen=True)
class StepTrace:
    """One lockstep step of a shard trace: packed keys + contributions."""

    keys: np.ndarray
    contribution: StepContribution | None = None


@dataclass
class BatchTrace:
    """Step-aligned record of the unique requests of one batched search.

    Lockstep step indices are batch-invariant (step *t* consumes the same
    symbol/chunk of every query regardless of which other queries share
    the batch), so per-shard traces of a split batch can be unioned step
    by step to recover exactly the unique request sets the *whole* batch
    would have produced serially.  ``steps`` holds one :class:`StepTrace`
    per lockstep iteration — the packed ``kmer * span + pos`` keys exactly
    as the coalescer emitted them, plus the per-request accounting
    contributions; ``tails`` the distinct partial-chunk strings resolved
    before the lockstep loop, in first-seen order, with their costs in the
    aligned ``tail_contributions``.  :func:`repro.engine.sharded
    .merge_shard_stats` turns merged traces back into serial-exact
    counters by pure array dedupe.

    Merge contract (all current backends satisfy it): every step charges
    **one base read per distinct k-mer** in its unique request set, plus
    whatever the contributions say; a backend with a different base-read
    rule must extend :class:`StepContribution` rather than bend this one.
    """

    steps: list[StepTrace] = field(default_factory=list)
    tails: list[str] = field(default_factory=list)
    tail_contributions: list[TailContribution] = field(default_factory=list)


@dataclass
class BatchStats:
    """Counters accumulated while searching one batch of queries.

    The counters mirror :class:`repro.exma.search.ExmaSearchStats` (so the
    existing hardware model and experiment harnesses can consume them)
    plus the batching-specific quantities: lockstep iterations executed,
    requests issued before coalescing, and requests surviving it.
    ``requests`` holds the *coalesced* stream, in schedule order — the
    input :meth:`repro.accel.exma_accelerator.ExmaAccelerator.run` replays
    — as a columnar :class:`RequestStream`.
    """

    queries: int = 0
    lockstep_iterations: int = 0
    iterations: int = 0
    occ_requests_issued: int = 0
    occ_requests_unique: int = 0
    base_reads: int = 0
    increment_entries_read: int = 0
    index_predictions: int = 0
    binary_comparisons: int = 0
    prediction_errors: list[int] = field(default_factory=list)
    requests: RequestStream = field(default_factory=RequestStream)
    #: When set, backends record each step's packed keys and accounting
    #: contributions here, so a sharded run can be merged back into
    #: serial-exact counters (see :mod:`repro.engine.sharded`).
    trace: "BatchTrace | None" = None
    #: When False, lockstep steps are recorded without their per-request
    #: :class:`StepContribution` — backends skip computing it — so
    #: ``increment_entries_read``, ``index_predictions``,
    #: ``prediction_errors`` and ``binary_comparisons`` cover the
    #: partial-chunk tails only.  Intervals, the coalescing counters and
    #: ``requests`` are unaffected: the setting for a caller that replays
    #: the stream through the accelerator, which prices every merged
    #: request itself (the serving layer).
    priced: bool = True

    @property
    def requests_merged(self) -> int:
        """Duplicate requests removed by coalescing across the batch."""
        return self.occ_requests_issued - self.occ_requests_unique

    @property
    def coalescing_factor(self) -> float:
        """Issued-to-unique request ratio (1.0 means nothing merged)."""
        if self.occ_requests_unique == 0:
            return 1.0
        return self.occ_requests_issued / self.occ_requests_unique

    @property
    def mean_error(self) -> float:
        """Mean prediction error across learned-index lookups."""
        if not self.prediction_errors:
            return 0.0
        return sum(self.prediction_errors) / len(self.prediction_errors)

    def record_step(
        self, step: CoalescedStep, contribution: StepContribution | None = None
    ) -> None:
        """Account one coalesced lockstep iteration.

        Performs *all* of the step's stats bookkeeping: the stream
        counters, one base read per distinct k-mer (every backend fetches
        a k-mer's base entry / increment list / count row once per step),
        and the per-request *contribution* accounting — increment entries,
        predictions with their errors, binary comparisons.  When a trace
        is attached, the step's packed keys and contribution are recorded
        for the sharded merge.
        """
        self.lockstep_iterations += 1
        self.occ_requests_issued += step.issued
        self.occ_requests_unique += step.unique
        self.base_reads += step.unique_kmers
        # The stream and the trace reference the *same* keys array, so a
        # traced shard pickles each step's requests exactly once.
        self.requests.append_step(step.keys, step.span)
        if not self.priced:
            contribution = None
        if contribution is not None:
            self.apply_contribution(contribution)
        if self.trace is not None:
            self.trace.steps.append(StepTrace(keys=step.keys, contribution=contribution))

    def apply_contribution(self, contribution: StepContribution) -> None:
        """Fold one step's per-request accounting into the counters."""
        if contribution.entries is not None:
            self.increment_entries_read += int(contribution.entries.sum())
        if contribution.comparisons is not None:
            self.binary_comparisons += int(contribution.comparisons.sum())
        if contribution.predicted is not None:
            self.index_predictions += int(np.count_nonzero(contribution.predicted))
            if contribution.errors is not None:
                self.prediction_errors.extend(
                    contribution.errors[contribution.predicted].tolist()
                )

    def record_tail(self, tail: str, contribution: TailContribution) -> None:
        """Account one *distinct* partial-chunk tail resolved pre-lockstep.

        Backends call this once per cache-missing tail, with the costs its
        resolution incurred, so the trace carries both the shard-distinct
        tail set and the accounting needed for an exact replay-free merge.
        """
        self.base_reads += contribution.base_reads
        self.binary_comparisons += contribution.comparisons
        self.index_predictions += contribution.predictions
        self.prediction_errors.extend(contribution.errors)
        if self.trace is not None:
            self.trace.tails.append(tail)
            self.trace.tail_contributions.append(contribution)

    def merge(self, other: "BatchStats") -> None:
        """Accumulate another batch's counters into this one.

        This is the *consecutive batches* merge — counters add up because
        the batches were searched independently.  It is NOT the right way
        to combine the per-shard stats of one split batch: duplicate
        requests across shards would double-count the coalescing-dependent
        counters; :func:`repro.engine.sharded.merge_shard_stats` performs
        that merge exactly via the step traces.
        """
        self.queries += other.queries
        self.lockstep_iterations += other.lockstep_iterations
        self.iterations += other.iterations
        self.occ_requests_issued += other.occ_requests_issued
        self.occ_requests_unique += other.occ_requests_unique
        self.base_reads += other.base_reads
        self.increment_entries_read += other.increment_entries_read
        self.index_predictions += other.index_predictions
        self.binary_comparisons += other.binary_comparisons
        self.prediction_errors.extend(other.prediction_errors)
        self.requests.extend(other.requests)

    def to_search_stats(self) -> ExmaSearchStats:
        """Convert to the legacy per-query stats record.

        Lets everything written against :class:`ExmaSearchStats` (the
        accelerator model, the figure harnesses) consume a batched run
        unchanged.  This is the one conversion that materialises the
        columnar request stream into objects.
        """
        return ExmaSearchStats(
            iterations=self.iterations,
            occ_lookups=self.occ_requests_unique,
            base_reads=self.base_reads,
            increment_entries_read=self.increment_entries_read,
            index_predictions=self.index_predictions,
            prediction_errors=list(self.prediction_errors),
            requests=list(self.requests),
        )
