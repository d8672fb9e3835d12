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
recording loop nor the replay ever leaves NumPy.  The scheduling window's
flush (:meth:`repro.engine.window.CoalescingWindow.flush`) is the same
container, one merged chunk long.
:class:`~repro.exma.search.OccRequest` objects materialise only when a
legacy consumer (the object-path reference replay, tests) iterates the
stream.

The search-side cost counters (increment entries, predictions and their
errors, binary comparisons) are **priced on read**.  Costs that resolving
a step produces anyway (tails, LISA's probe counts) are folded in as a
:class:`StepContribution` when recorded.  EXMA's costs are extra work (MTL
inference, the increment scan), which the accelerator replay pays for
itself.  So an EXMA step records only its keys and the Occ values it
resolved, and the first read of a priced counter prices every pending
step of the batch in one call.

For sharded runs, backends additionally record each step's per-unique-
request contributions and pending Occ values keyed by the step's packed
keys.  Those columns let :func:`repro.engine.sharded.merge_shard_stats`
rebuild serial-exact counters by pure array dedupe, with no replay pass
over the index.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..exma.search import OccRequest

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

    The single definition of the packing scheme, behind
    :meth:`RequestStream.of`, the one conversion of an object sequence
    into columns: *span* is the exclusive position bound
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
    kmers = unique_keys // span
    return CoalescedStep(
        kmers=kmers,
        positions=unique_keys - kmers * span,
        inverse=inverse,
        issued=int(keys.size),
        keys=unique_keys,
        span=span,
    )


class RequestStream(Sequence):
    """Columnar post-coalescing request stream with a lazy object view.

    The one request container from search to replay.  The engine appends
    one chunk of packed ``kmer * span + pos`` int64 keys per lockstep
    step, in schedule order — the exact array the coalescer produced, so
    appending a step is O(1) and a traced sharded run ships each step's
    keys over the process-pool pipe **once** (the trace references the
    same array objects; pickle memoises them).  An EXMA search also
    hands each step's Occ values over, stored by reference beside its
    keys, so the replay never ranks a key the search already ranked.
    A :class:`~repro.engine.window.CoalescingWindow` flush is a stream of
    one chunk, the merged unique keys with their Occ values, that says
    how many ``batches`` it merged and how many requests were ``issued``
    into it; an engine stream is a one-batch flush of its own length.
    ``kmers``/``positions``/``occ`` decompose the keys on demand (cached),
    and :class:`~repro.exma.search.OccRequest` objects are built only by
    :meth:`materialize`, when something indexes or iterates the stream.
    """

    __slots__ = (
        "_key_chunks", "_spans", "_occ_chunks", "_size", "_columns", "_view", "_issued",
        "batches",
    )

    def __init__(self) -> None:
        self._key_chunks: list[np.ndarray] = []
        self._spans: list[int] = []
        self._occ_chunks: list[np.ndarray | None] = []
        self._size = 0
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None
        self._view: list[OccRequest] | None = None
        self._issued: int | None = None
        #: Query batches merged into this stream.
        self.batches = 1

    @classmethod
    def of(cls, requests: Sequence[OccRequest]) -> "RequestStream":
        """*requests* as a stream: a stream is returned as it is, any other
        request sequence is packed once, without Occ values.  The one
        place that asks which container it was given."""
        if isinstance(requests, RequestStream):
            return requests
        stream = cls()
        requests = list(requests)
        if requests:
            stream.append_step(*pack_requests(requests))
        return stream

    @property
    def issued(self) -> int:
        """Requests entering the window that merged this stream (its own
        length unless a flush set it)."""
        return self._size if self._issued is None else self._issued

    @issued.setter
    def issued(self, count: int) -> None:
        self._issued = int(count)

    @property
    def unique(self) -> int:
        """Requests in the stream: those surviving the merge."""
        return self._size

    def append_step(self, keys: np.ndarray, span: int, occ: np.ndarray | None = None) -> None:
        """Append one step's packed unique keys and, when the step ranked
        them, their Occ values (both stored by reference)."""
        self._key_chunks.append(keys)
        self._spans.append(int(span))
        self._occ_chunks.append(occ)
        self._size += int(keys.size)
        self._columns = None
        self._view = None

    def chunks(self) -> list[tuple[np.ndarray, int, np.ndarray | None]]:
        """The per-step ``(packed keys, span, Occ or None)`` triples,
        arrays by reference.

        The arrays are never mutated in place after being appended, so
        handing them out by reference is also a snapshot: a consumer — the
        :class:`~repro.engine.window.CoalescingWindow` buffer — can hold
        the chunk list while the producing stats object keeps growing.
        """
        return list(zip(self._key_chunks, self._spans, self._occ_chunks))

    def _decomposed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if self._columns is None:
            if not self._key_chunks:
                empty = np.empty(0, dtype=np.int64)
                self._columns = (empty, empty, empty)
            else:
                # ``keys % span`` as ``keys - kmers * span``: NumPy's
                # remainder by a scalar is several times slower.
                chunks = list(zip(self._key_chunks, self._spans))
                kmer_chunks = [keys // span for keys, span in chunks]
                occ = None
                if all(chunk is not None for chunk in self._occ_chunks):
                    occ = _joined(self._occ_chunks)
                self._columns = (
                    _joined(kmer_chunks),
                    _joined([keys - k * span for (keys, span), k in zip(chunks, kmer_chunks)]),
                    occ,
                )
        return self._columns

    @property
    def kmers(self) -> np.ndarray:
        """All k-mer codes, concatenated in schedule order."""
        return self._decomposed()[0]

    @property
    def positions(self) -> np.ndarray:
        """All Occ positions, concatenated in schedule order."""
        return self._decomposed()[1]

    @property
    def occ(self) -> np.ndarray | None:
        """Every request's Occ value, aligned with :attr:`kmers`, or
        ``None`` when a chunk came without them (packed from objects, or
        from a backend that does not rank EXMA keys)."""
        return self._decomposed()[2]

    def materialize(self) -> list[OccRequest]:
        """The stream as :class:`OccRequest` objects (cached until it grows)."""
        if self._view is None:
            kmers, positions, _ = self._decomposed()
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
                (self._size, self.batches, self.issued)
                == (other._size, other.batches, other.issued)
                and np.array_equal(self.kmers, other.kmers)
                and np.array_equal(self.positions, other.positions)
            )
        if isinstance(other, (list, tuple)):
            return self.materialize() == list(other)
        return NotImplemented


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated; a single array as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass(frozen=True)
class StepContribution:
    """Per-unique-request accounting of one coalesced step.

    Each array is aligned with the step's unique requests (sorted
    ``(kmer, pos)`` order), or with several steps' requests concatenated
    in step order when pending steps are priced together; ``None`` means
    the backend contributes nothing to that counter family.  The values
    depend only on the ``(kmer, pos)``
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
    """One lockstep step of a shard trace: packed keys plus either the
    eager contribution or, for a step priced on read, its Occ values."""

    keys: np.ndarray
    contribution: StepContribution | None = None
    occ: np.ndarray | None = None


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
    contributions or the Occ values a step priced on read needs; ``tails``
    the distinct partial-chunk strings resolved
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


#: Prices pending lockstep steps: ``(keys, occ) -> StepContribution`` over
#: the packed keys and Occ values of one or more steps, concatenated in
#: step order (:meth:`repro.engine.backends.ExmaBackend._step_contribution`).
StepPricer = Callable[[np.ndarray, np.ndarray], StepContribution]


@dataclass
class BatchStats:
    """Counters accumulated while searching one batch of queries.

    The counters mirror :class:`repro.exma.search.ExmaSearchStats` plus
    the batching-specific quantities: lockstep iterations executed,
    requests issued before coalescing, and requests surviving it.
    ``requests`` holds the *coalesced* stream, in schedule order — the
    input :meth:`repro.accel.exma_accelerator.ExmaAccelerator.run` replays
    — as a columnar :class:`RequestStream`.

    The cost counters ``increment_entries_read``, ``index_predictions``,
    ``binary_comparisons`` and ``prediction_errors`` (and ``mean_error``,
    :meth:`merge`) are priced on read.  A step recorded with its Occ
    values stays *pending*.  The first read prices
    every pending step with one call to the pricer the backend attached
    (:meth:`price_with`), folded in step order.  So every counter, and the
    order of ``prediction_errors``, equals pricing each step as it ran,
    and a batch whose cost counters nobody reads never prices them.
    Pending steps live in this object and die with it.
    """

    queries: int = 0
    lockstep_iterations: int = 0
    iterations: int = 0
    occ_requests_issued: int = 0
    occ_requests_unique: int = 0
    base_reads: int = 0
    requests: RequestStream = field(default_factory=RequestStream)
    #: When set, backends record each step's packed keys and accounting
    #: contributions here, so a sharded run can be merged back into
    #: serial-exact counters (see :mod:`repro.engine.sharded`).
    trace: "BatchTrace | None" = None
    _entries: int = field(default=0, init=False, repr=False)
    _predictions: int = field(default=0, init=False, repr=False)
    _comparisons: int = field(default=0, init=False, repr=False)
    _errors: list[int] = field(default_factory=list, init=False, repr=False)
    #: ``(keys, occ, steps)`` of every step, or untraced batch of *steps*
    #: steps, recorded but not yet priced.
    _pending: list[tuple[np.ndarray, np.ndarray, int]] = field(
        default_factory=list, init=False, repr=False
    )
    _pricer: StepPricer | None = field(default=None, init=False, repr=False)
    #: Settling is check-then-act: two readers must not both price.
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    @property
    def coalescing_factor(self) -> float:
        """Issued-to-unique request ratio (1.0 means nothing merged)."""
        if self.occ_requests_unique == 0:
            return 1.0
        return self.occ_requests_issued / self.occ_requests_unique

    @property
    def increment_entries_read(self) -> int:
        """Increment entries read resolving the unique requests."""
        self._settle()
        return self._entries

    @property
    def index_predictions(self) -> int:
        """Requests answered through a learned index."""
        self._settle()
        return self._predictions

    @property
    def binary_comparisons(self) -> int:
        """Binary-search comparisons resolving the unique requests."""
        self._settle()
        return self._comparisons

    @property
    def prediction_errors(self) -> list[int]:
        """Error of every learned-index prediction, in schedule order."""
        self._settle()
        return self._errors

    @property
    def mean_error(self) -> float:
        """Mean prediction error across learned-index lookups."""
        errors = self.prediction_errors
        if not errors:
            return 0.0
        return sum(errors) / len(errors)

    @property
    def pending_steps(self) -> int:
        """Lockstep steps recorded but not yet priced."""
        return sum(steps for _, _, steps in self._pending)

    def price_with(self, pricer: StepPricer) -> None:
        """Attach the pricer of pending steps (the searching backend's).

        Steps already pending under a different pricer are priced first.
        A stats object that arrived without one (see :meth:`__getstate__`)
        simply takes *pricer* for the steps it carries.
        """
        if self._pricer is not None and pricer != self._pricer:
            self._settle()
        self._pricer = pricer

    def _settle(self) -> None:
        """Price every pending step now; a no-op once nothing is pending."""
        if not self._pending:
            return
        with self._lock:
            if not self._pending:
                return
            if self._pricer is None:
                raise RuntimeError(
                    "pending steps have no pricer: attach the searching "
                    "backend's with price_with()"
                )
            contribution = self._pricer(
                _joined([keys for keys, _, _ in self._pending]),
                _joined([occ for _, occ, _ in self._pending]),
            )
            self._fold(contribution)
            # Emptied last: a reader that sees no pending step must also
            # see every counter it priced.
            self._pending = []

    def record_step(
        self,
        keys: np.ndarray,
        span: int,
        issued: int,
        distinct_kmers: int,
        occ: np.ndarray | None = None,
        contribution: StepContribution | None = None,
    ) -> None:
        """Account one coalesced lockstep iteration from its sorted unique
        packed *keys*, *issued* request count and *distinct_kmers*.

        Performs *all* of the step's stats bookkeeping: the stream
        counters, one base read per distinct k-mer (every backend fetches
        a k-mer's base entry / increment list / count row once per step),
        and the per-request cost accounting — folded now from
        *contribution*, or left pending with the step's unique Occ values
        *occ* until a priced counter is read.  When a trace is attached,
        the step's packed keys, contribution and Occ values are recorded
        for the sharded merge.
        """
        self.occ_requests_issued += issued
        self.record_unique(keys, span, distinct_kmers, contribution, occ)
        if self.trace is not None:
            self.trace.steps.append(StepTrace(keys=keys, contribution=contribution, occ=occ))

    def record_batch(
        self,
        *,
        queries: int,
        iterations: int,
        steps: int,
        issued: int,
        base_reads: int,
        keys: np.ndarray,
        span: int,
        occ: np.ndarray,
    ) -> None:
        """Account a whole untraced batch at once: its *queries*, per-query
        *iterations*, lockstep *steps*, *issued* requests and *base_reads*
        (tails and steps together), and the steps' unique packed *keys*
        with their Occ values *occ*, concatenated in step order.  The keys
        and Occ values are one stream chunk and one pending entry, so the
        counters, the stream's columns and the pricing equal a
        :meth:`record_step` per step.  A traced batch records its steps one
        by one instead: the sharded merge needs them apart."""
        self.queries += queries
        self.iterations += iterations
        self.lockstep_iterations += steps
        self.occ_requests_issued += issued
        self.occ_requests_unique += int(keys.size)
        self.base_reads += base_reads
        if steps:
            self.requests.append_step(keys, span, occ)
            self._pending.append((keys, occ, steps))

    def record_unique(
        self,
        keys: np.ndarray,
        span: int,
        distinct_kmers: int,
        contribution: StepContribution | None = None,
        occ: np.ndarray | None = None,
    ) -> None:
        """Account one step's unique requests: the half of
        :meth:`record_step` a shard merge rebuilds from a trace."""
        self.lockstep_iterations += 1
        self.occ_requests_unique += int(keys.size)
        self.base_reads += distinct_kmers
        # The stream and the trace reference the *same* keys and Occ
        # arrays, so a traced shard pickles each step's requests once.
        self.requests.append_step(keys, span, occ)
        if contribution is not None:
            self.apply_contribution(contribution)
        if occ is not None:
            self._pending.append((keys, occ, 1))

    def apply_contribution(self, contribution: StepContribution) -> None:
        """Fold one step's per-request accounting into the counters.

        Pending steps are priced first, so prediction errors stay in the
        order the steps ran.
        """
        self._settle()
        self._fold(contribution)

    def _fold(self, contribution: StepContribution) -> None:
        if contribution.entries is not None:
            self._entries += int(contribution.entries.sum())
        if contribution.comparisons is not None:
            self._comparisons += int(contribution.comparisons.sum())
        if contribution.predicted is not None:
            self._predictions += int(np.count_nonzero(contribution.predicted))
            if contribution.errors is not None:
                self._errors.extend(contribution.errors[contribution.predicted].tolist())

    def record_tail(self, tail: str, contribution: TailContribution) -> None:
        """Account one *distinct* partial-chunk tail resolved pre-lockstep.

        Backends call this once per cache-missing tail, with the costs its
        resolution incurred, so the trace carries both the shard-distinct
        tail set and the accounting needed for an exact replay-free merge.
        """
        self._settle()
        self.base_reads += contribution.base_reads
        self._comparisons += contribution.comparisons
        self._predictions += contribution.predictions
        self._errors.extend(contribution.errors)
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
        self._settle()
        other._settle()
        self.queries += other.queries
        self.lockstep_iterations += other.lockstep_iterations
        self.iterations += other.iterations
        self.occ_requests_issued += other.occ_requests_issued
        self.occ_requests_unique += other.occ_requests_unique
        self.base_reads += other.base_reads
        self._entries += other._entries
        self._predictions += other._predictions
        self._comparisons += other._comparisons
        self._errors.extend(other._errors)
        for chunk in other.requests.chunks():
            self.requests.append_step(*chunk)

    def __eq__(self, other: object) -> bool:
        """Field-for-field equality, cost counters priced on both sides."""
        if not isinstance(other, BatchStats):
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        return (
            self.queries,
            self.lockstep_iterations,
            self.iterations,
            self.occ_requests_issued,
            self.occ_requests_unique,
            self.base_reads,
            self.increment_entries_read,
            self.index_predictions,
            self.binary_comparisons,
            self.prediction_errors,
            self.requests,
            self.trace,
        )

    def __getstate__(self) -> dict:
        """Pickle without the lock and the pricer.

        A process shard's stats cross back as plain arrays, pending steps
        included, and carry no backend: the parent prices them with its
        own (:func:`repro.engine.sharded.merge_shard_stats`).
        """
        state = self.__dict__.copy()
        del state["_lock"]
        state["_pricer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
