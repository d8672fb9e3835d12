"""Search backends: one batched interface over every index structure.

A :class:`SearchBackend` answers a :class:`~repro.genome.alphabet
.QueryBatch` of exact-match queries with BW-matrix intervals, as ``lows``
and ``highs`` columns.  Each backend wraps one of the repository's search
structures — the 1-step :class:`~repro.index.fmindex.FMIndex`, an EXMA
table (exact, naive-learned or MTL Occ resolution) or LISA's IP-BWT — and
implements the same lockstep discipline: all live queries advance their
``(low, high)`` intervals together, one multi-symbol step per iteration,
with the step's Occ requests coalesced (:mod:`repro.engine.coalesce`)
before they touch the underlying structure.  Backends register themselves
in a name registry so applications, experiments and the CLI can select
one with a string.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import native
from ..exma.search import OccIndex
from ..exma.table import ExmaTable
from ..genome.alphabet import (
    FULL_ALPHABET, SENTINEL, QueryBatch, decode, pack_kmer, unpack_kmer,
)
from ..index.fmindex import FMIndex, Interval
from ..lisa.search import LisaIndex
from .coalesce import (
    BatchStats,
    StepContribution,
    TailContribution,
    coalesce_requests,
)

__all__ = [
    "SearchBackend",
    "FMIndexBackend",
    "ExmaBackend",
    "LisaBackend",
    "available_backends",
    "create_backend",
    "register_backend",
]


class SearchBackend(abc.ABC):
    """Batched exact-match search over one index structure.

    Subclasses implement :meth:`search_batch` (the lockstep core) and
    :meth:`locate`; single queries, finding and counting live in
    :class:`~repro.engine.engine.QueryEngine`, over batches.
    """

    #: Registry name, set by :func:`register_backend`.
    name: str = "abstract"

    @abc.abstractmethod
    def search_batch(
        self, batch: QueryBatch, stats: BatchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The BW-matrix interval of every query of *batch* as int64
        ``(lows, highs)`` columns, advancing all queries in lockstep."""

    @abc.abstractmethod
    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        """Reference positions of a BW-matrix interval (sorted)."""

    @property
    @abc.abstractmethod
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""


def _full_interval(batch: QueryBatch, reference_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Every query's starting interval: all ``reference_length`` rows."""
    size = len(batch)
    return np.zeros(size, dtype=np.int64), np.full(size, reference_length, dtype=np.int64)


def _distinct_tails(lengths: np.ndarray, codes: np.ndarray, k: int):
    """The rows whose length is not a multiple of *k*, their distinct
    tails (last ``length % k`` symbols) in first-seen order, and each
    row's index into them.  A tail code outside ``$ACGT`` raises
    :class:`~repro.genome.alphabet.AlphabetError`."""
    sizes = lengths % k
    rows = np.flatnonzero(sizes)
    if not rows.size:
        return rows, [], []
    sizes = sizes[rows]
    # The tails' codes back to back, decoded at once: tail j ends at ends[j].
    ends = np.cumsum(sizes)
    shift = np.repeat(np.cumsum(lengths)[rows] - ends, sizes)
    text = decode(codes[shift + np.arange(ends[-1])])
    first: dict[str, int] = {}
    spans = zip(ends.tolist(), sizes.tolist())
    which = [first.setdefault(text[end - size : end], len(first)) for end, size in spans]
    return rows, list(first), which


def _resolve_tails(
    batch: QueryBatch, k: int, lows, highs, stats: BatchStats | None, resolve
) -> None:
    """Start every query whose length is not a multiple of *k* at its tail,
    its last ``length % k`` symbols, before the lockstep steps.  Tails are
    coalesced: each distinct one, in first-seen order, is resolved once by
    ``resolve(tail) -> (low, high, TailContribution)`` and recorded."""
    rows, tails, which = _distinct_tails(batch.lengths, batch.codes, k)
    if not rows.size:
        return
    resolved = [resolve(tail) for tail in tails]
    lows[rows], highs[rows] = np.array([bounds[:2] for bounds in resolved], dtype=np.int64)[which].T
    if stats is not None:
        stats.iterations += rows.size
        for tail, (_, _, contribution) in zip(tails, resolved):
            stats.record_tail(tail, contribution)


def _packed_chunks(lengths: np.ndarray, codes: np.ndarray, k: int):
    """Every k-symbol window of the concatenated *codes* packed 2 bits a
    symbol (-1 where a code is outside 1..4), each query's first offset and
    its count of whole chunks.  Chunk *t* of query *i*, the *t*-th consumed
    right to left, is the window at ``starts[i] + (steps[i] - 1 - t) * k``."""
    # Padded so that even a batch shorter than k has a window.
    windows = sliding_window_view(np.append(codes.astype(np.int64) - 1, [-1] * k), k)
    packed = windows @ 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    packed[((windows < 0) | (windows > 3)).any(axis=1)] = -1
    return packed, np.cumsum(lengths) - lengths, lengths // k


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_REGISTRY: dict[str, Callable[..., SearchBackend]] = {}


def register_backend(name: str):
    """Class decorator registering a backend factory under *name*.

    The decorated class must accept ``(reference, **kwargs)``; prebuilt
    structures can still be passed through the keyword arguments each
    backend documents.
    """

    def decorate(factory: Callable[..., SearchBackend]):
        _REGISTRY[name] = factory
        if isinstance(factory, type):
            factory.name = name
        return factory

    return decorate


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, reference: str, **kwargs) -> SearchBackend:
    """Build a registered backend over *reference*."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory(reference, **kwargs)


# --------------------------------------------------------------------- #
# FM-Index (1-step) backend
# --------------------------------------------------------------------- #


@register_backend("fmindex")
class FMIndexBackend(SearchBackend):
    """Lockstep batched backward search over the 1-step FM-Index.

    One lockstep iteration consumes one DNA symbol of every live query.
    The step's ``(symbol, pos)`` Occ requests are coalesced and answered
    with a single gather from the index's dense cumulative Occ table.
    (Row-locality accounting at ``bucket_width`` granularity stays on the
    sequential path's :class:`~repro.index.fmindex.SearchTrace`; the
    batched stats count issued/unique requests, not bucket reuse.)

    Args:
        reference: reference string over ``ACGT``.
        fm_index: prebuilt index to wrap (skips construction).
    """

    def __init__(self, reference: str | None = None, fm_index: FMIndex | None = None) -> None:
        if fm_index is None:
            if reference is None:
                raise ValueError("either reference or fm_index is required")
            fm_index = FMIndex(reference)
        self._fm = fm_index

    @property
    def reference_length(self) -> int:
        return self._fm.reference_length

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        return self._fm.locate(interval, limit=limit)

    def search_batch(
        self, batch: QueryBatch, stats: BatchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        n = self._fm.reference_length
        lows, highs = _full_interval(batch, n)
        if not len(batch):
            return lows, highs
        occ = self._fm.occ_prefix_sums()
        count = self._fm.count_table
        lengths = batch.lengths
        ends = np.cumsum(lengths)
        alive = np.ones(len(batch), dtype=bool)
        if stats is not None:
            stats.queries += len(batch)

        # Step t consumes every live query's t-th symbol from its end.
        for step_index in range(int(lengths.max())):
            active = alive & (lengths > step_index)
            if not np.any(active):
                break
            symbols = batch.codes[ends[active] - 1 - step_index].astype(np.int64)
            step = coalesce_requests(
                np.concatenate([symbols, symbols]),
                np.concatenate([lows[active], highs[active]]),
                span=n + 1,
            )
            occ_unique = occ[step.positions, step.kmers].astype(np.int64)
            occ_all = step.scatter(occ_unique)
            n_active = int(symbols.size)
            lows[active] = count[symbols] + occ_all[:n_active]
            highs[active] = count[symbols] + occ_all[n_active:]
            alive &= lows < highs

            if stats is not None:
                stats.iterations += n_active
                # One gather from the dense Occ table per unique symbol per
                # step: record_step charges exactly that base-read rule.
                stats.record_step(step.keys, step.span, step.issued, step.unique_kmers)

        return lows, highs

    # ------------------------------------------------------------------ #
    # Batched seeding
    # ------------------------------------------------------------------ #

    def maximal_exact_matches_batch(
        self, reads: Sequence[str], min_length: int = 10
    ) -> list[list["Seed"]]:
        """Greedy maximal exact matches of many reads, in lockstep.

        Runs the exact per-read state machine of
        :meth:`repro.index.fmindex.FMIndex.maximal_exact_matches` — same
        seeds, same order — but advances every read together and answers
        each global step's backward extensions with one coalesced batch of
        Occ lookups, so seeding a read batch drives the memory system the
        way the paper's request streams do.
        """
        from ..index.fmindex import Seed

        n = self._fm.reference_length
        occ = self._fm.occ_prefix_sums()
        count = self._fm.count_table

        states = []
        for read in reads:
            states.append(
                {
                    "read": read,
                    "end": len(read),
                    "start": len(read),
                    "low": 0,
                    "high": n,
                    "last_good": None,
                    "seeds": [],
                    "done": len(read) == 0,
                }
            )

        while True:
            extenders: list[tuple[dict, int]] = []
            for state in states:
                if state["done"]:
                    continue
                symbol = state["read"][state["start"] - 1] if state["start"] > 0 else None
                if (
                    symbol is not None
                    and symbol in FULL_ALPHABET
                    and symbol != SENTINEL
                ):
                    extenders.append((state, FULL_ALPHABET.index(symbol)))
                else:
                    self._finish_segment(state, Seed, min_length, n)
            if not extenders:
                if all(state["done"] for state in states):
                    break
                continue

            symbols = np.array([code for _, code in extenders], dtype=np.int64)
            lows = np.array([state["low"] for state, _ in extenders], dtype=np.int64)
            highs = np.array([state["high"] for state, _ in extenders], dtype=np.int64)
            step = coalesce_requests(
                np.concatenate([symbols, symbols]),
                np.concatenate([lows, highs]),
                span=n + 1,
            )
            occ_all = step.scatter(occ[step.positions, step.kmers].astype(np.int64))
            n_active = symbols.size
            new_lows = count[symbols] + occ_all[:n_active]
            new_highs = count[symbols] + occ_all[n_active:]

            for i, (state, _) in enumerate(extenders):
                if new_lows[i] < new_highs[i]:
                    state["low"] = int(new_lows[i])
                    state["high"] = int(new_highs[i])
                    state["start"] -= 1
                    state["last_good"] = (state["low"], state["high"])
                else:
                    self._finish_segment(state, Seed, min_length, n)

        return [list(reversed(state["seeds"])) for state in states]

    @staticmethod
    def _finish_segment(state: dict, seed_cls, min_length: int, full_high: int) -> None:
        """Emit the current maximal match (if long enough) and restart."""
        start, end = state["start"], state["end"]
        if state["last_good"] is not None and end - start >= min_length:
            low, high = state["last_good"]
            state["seeds"].append(
                seed_cls(read_start=start, read_end=end, interval=Interval(low, high))
            )
        # Restart before the current seed (non-overlapping seeds).
        end = start if start < end else end - 1
        state["end"] = end
        state["start"] = end
        state["low"] = 0
        state["high"] = full_high
        state["last_good"] = None
        if end <= 0:
            state["done"] = True


# --------------------------------------------------------------------- #
# EXMA backend
# --------------------------------------------------------------------- #


@register_backend("exma")
class ExmaBackend(SearchBackend):
    """Lockstep batched backward search over an EXMA table.

    A query whose length is not a multiple of k starts at its tail, its
    last ``length % k`` symbols, resolved from the table's per-k-mer
    counts.  One lockstep iteration then consumes one k-mer of every
    live query.  The step's ``(kmer, pos)`` requests are coalesced
    exactly once across the whole batch — the software mirror of the
    accelerator's DRAM-side merge — then rank-queried once each.  The
    tails and every step of a batch run in one compiled call,
    :func:`repro.native.lockstep`, with :func:`_lockstep_spec` as its
    oracle and fallback, and the batch is one stats record (a traced
    batch records each tail and step).  The steps' cost (increment
    scan, MTL inference) is priced on read: the first read of a cost
    counter prices the whole batch with one ``index.predict_many`` (one
    MLP forward per shared MTL node).

    Args:
        reference: DNA reference (ignored when *table* is given).
        k: EXMA step number for table construction.
        table: prebuilt :class:`ExmaTable` to wrap.
        index: optional Occ index (naive learned or MTL).  Resolution is
            always exact; the index only adds the predict/verify cost
            accounting, as in :class:`repro.exma.search.ExmaSearch`.
    """

    def __init__(
        self,
        reference: str | None = None,
        k: int = 6,
        table: ExmaTable | None = None,
        index: OccIndex | None = None,
    ) -> None:
        if table is None:
            if reference is None:
                raise ValueError("either reference or table is required")
            table = ExmaTable(reference, k=k)
        self._table = table
        self._index = index
        #: The table's ``occ_batch`` that resolves each spec step, and the
        #: index's columnar face: ``has_model`` as a mask over packed codes
        #: (one gather classifies every priced request) and the
        #: ``predict_many`` that prices the modelled ones.  Bound here
        #: rather than looked up per step on purpose: a tracer that later
        #: wraps the class attributes (``bench/trace.py`` books
        #: ``ExmaTable.occ_batch`` and ``MTLIndex.predict_many`` spans to
        #: the replay) must keep seeing search-side calls as search time.
        self._occ_batch = table.occ_batch
        self._modelled = self._predict_many = None
        if index is not None:
            self._modelled = index.modelled_lookup(table.kmer_count)
            self._predict_many = index.predict_many
        self._span = table.reference_length + 1
        self._frequencies: np.ndarray | None = None

    @property
    def table(self) -> ExmaTable:
        """The wrapped EXMA table."""
        return self._table

    @property
    def index(self) -> OccIndex | None:
        """The Occ index in use, if any."""
        return self._index

    @property
    def reference_length(self) -> int:
        return self._table.reference_length

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        high = interval.high if limit is None else min(interval.high, interval.low + limit)
        return self._table.locate(interval.low, high)

    def search_batch(
        self, batch: QueryBatch, stats: BatchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        table = self._table
        n = table.reference_length
        lows, highs = _full_interval(batch, n)
        if not len(batch):
            return lows, highs
        inputs = (batch.lengths, batch.codes, table.k, lows, highs, table.count_table())
        result = native.lockstep(
            *inputs, table.sentinel_codes, table.increments, table._kmer_rank_base, n
        )
        if result is None:
            result = _lockstep_spec(*inputs, self._occ_batch, self._span, table.prefix_interval)
        lows, highs, keys, occ, offsets, issued, distinct, tails = result
        if stats is not None:
            self._record(stats, len(batch), keys, occ, offsets, issued, distinct, tails[tails != 0])
        return lows, highs

    def _record(self, stats: BatchStats, queries: int, keys, occ, offsets, issued, distinct,
                tails) -> None:
        """Account one searched batch: *tails* holds the tail code of each
        query that has one, the rest is the pass's step columns.  Each
        distinct tail costs one base read.  Untraced, the batch is one
        :meth:`BatchStats.record_batch`; with a trace (a shard of a
        sharded search), the distinct tails, as strings in first-seen
        order, and then the steps are recorded one by one for the merge.
        The steps' cost is priced on read (see :class:`BatchStats`)."""
        stats.price_with(self._step_contribution)
        issued, distinct = issued.tolist(), distinct.tolist()
        requests = sum(issued)
        iterations = tails.size + requests // 2
        if stats.trace is None:
            stats.record_batch(
                queries=queries, iterations=iterations, steps=len(issued), issued=requests,
                base_reads=len(set(tails.tolist())) + sum(distinct),
                keys=keys, span=self._span, occ=occ,
            )
            return
        stats.queries += queries
        stats.iterations += iterations
        for tail in _tail_text(tails):
            stats.record_tail(tail, TailContribution(base_reads=1))
        offsets = offsets.tolist()
        for step, (count, kmers) in enumerate(zip(issued, distinct)):
            begin, end = offsets[step], offsets[step + 1]
            stats.record_step(keys[begin:end], self._span, count, kmers, occ[begin:end])

    def _step_contribution(self, keys: np.ndarray, occ_values: np.ndarray) -> StepContribution:
        """Per-unique-request resolution costs of packed ``kmer * span + pos``
        *keys* with their Occ values: one step, or a batch's pending steps
        concatenated in step order (the :class:`BatchStats` pricer).

        Exact resolution reads ceil-log2 of the k-mer's increment-list
        length per request (binary search), computed for every request at
        once: ``frexp`` exponents are exactly ``bit_length`` for the int64
        frequencies.  Modelled k-mers (learned / MTL index) instead read
        the predicted entry plus successor plus the linear overshoot, and
        contribute one prediction with its error per request: all modelled
        requests are priced by a single ``predict_many`` call.
        """
        if self._frequencies is None:
            # frequencies() copies the 4^k counts table; fetch it once per
            # backend, not once per priced batch.
            self._frequencies = self._table.frequencies()
        kmers = keys // self._span
        positions = keys - kmers * self._span  # NumPy's remainder is slower
        freqs = self._frequencies[kmers]
        entries = np.maximum(
            1, np.frexp(freqs.astype(np.float64))[1].astype(np.int64)
        )
        if self._modelled is None:
            return StepContribution(entries=entries)
        modelled = self._modelled[kmers]
        if not modelled.any():
            return StepContribution(entries=entries)
        overshoot = np.abs(
            occ_values[modelled] - self._predict_many(kmers[modelled], positions[modelled])
        )
        errors = np.zeros(kmers.size, dtype=np.int64)
        errors[modelled] = overshoot
        # Predicted entry + successor, plus the linear overshoot.
        entries[modelled] = 2 + overshoot
        return StepContribution(entries=entries, predicted=modelled, errors=errors)


def _tail_text(tails: np.ndarray) -> list[str]:
    """The distinct tails among tail codes *tails* (each the tail packed
    2 bits a symbol behind a leading 1) as strings, in first-seen order."""
    codes, first = np.unique(tails, return_index=True)
    text = []
    for code in codes[np.argsort(first)].tolist():
        size = (code.bit_length() - 1) // 2
        text.append(unpack_kmer(code - (1 << 2 * size), size))
    return text


def _lockstep_spec(
    lengths, codes, k: int, lows, highs, counts, occ_batch, span: int, prefix_interval
):
    """:func:`repro.native.lockstep`'s specification and fallback: the
    tails and lockstep steps of :meth:`ExmaBackend.search_batch`.

    The queries are a :class:`QueryBatch`'s *lengths* and concatenated
    *codes*, starting at *lows* and *highs* (the full interval in a
    search).  A query whose length is not a multiple of *k* starts
    instead at its tail, its last ``length % k`` symbols: each distinct
    tail is resolved once by ``prefix_interval(tail) -> (low, high)``
    (:meth:`ExmaTable.prefix_interval`, the one-tail oracle), and its tail
    code is the tail packed 2 bits a symbol behind a leading 1 (0 for a
    query without a tail).  A query then has ``length // k`` whole
    chunks, consumed right to left, each packed 2 bits a symbol.  Step
    *t* coalesces the ``(kmer, low)`` and ``(kmer, high)`` requests of
    every live query (one with a non-empty interval) with a chunk *t*,
    resolves the unique ones with one *occ_batch* call and moves each
    issuer to ``counts[kmer] + occ``; the first step with no live query
    ends the pass.  Returns the final lows and highs, every step's unique
    keys and Occ concatenated, the step offsets into them, each step's
    issued and distinct-k-mer counts, and each query's tail code.  The
    inputs are left as they were.  A tail with a symbol outside ``ACGT``
    raises :class:`~repro.genome.alphabet.AlphabetError` (a
    ``ValueError``); a bound outside ``[0, span)``, or a chunk with a
    code outside 1..4, raises ``ValueError``, as ``occ_batch`` does for a
    k-mer out of range.
    """
    chunks, starts, steps = _packed_chunks(lengths, codes, k)
    lows, highs = lows.copy(), highs.copy()
    rows, tails, which = _distinct_tails(lengths, codes, k)
    tail_codes = np.zeros(lengths.size, dtype=np.int64)
    if rows.size:
        intervals = np.array([prefix_interval(tail) for tail in tails], dtype=np.int64)
        lows[rows], highs[rows] = intervals[which].T
        marked = [pack_kmer(tail) | 1 << 2 * len(tail) for tail in tails]
        tail_codes[rows] = np.array(marked, dtype=np.int64)[which]
    alive = lows < highs
    keys, occ, issued, distinct = [], [], [], []
    for step_index in range(int(steps.max(initial=0))):
        active = alive & (steps > step_index)
        if not np.any(active):
            break
        packed = chunks[(starts + (steps - 1 - step_index) * k)[active]]
        bounds = np.concatenate([lows[active], highs[active]])
        # Past |G| a bound would fold into the next k-mer's keys.
        if int(bounds.min()) < 0 or int(bounds.max()) >= span:
            raise ValueError(f"positions out of range [0, {span - 1}]")
        step = coalesce_requests(np.concatenate([packed, packed]), bounds, span=span)
        occ_unique = occ_batch(step.kmers, step.positions)
        occ_all = step.scatter(occ_unique)
        lows[active] = counts[packed] + occ_all[: packed.size]
        highs[active] = counts[packed] + occ_all[packed.size :]
        alive &= lows < highs
        keys.append(step.keys)
        occ.append(occ_unique)
        issued.append(step.issued)
        distinct.append(step.unique_kmers)
    offsets = np.cumsum([0] + [step_keys.size for step_keys in keys])
    empty = [np.empty(0, dtype=np.int64)]
    return (
        lows, highs, np.concatenate(keys + empty), np.concatenate(occ + empty), offsets,
        np.array(issued, dtype=np.int64), np.array(distinct, dtype=np.int64), tail_codes,
    )


def _exma_factory_with_index(index_builder):
    """Build an ExmaBackend whose index comes from *index_builder*(table)."""

    def factory(reference: str | None = None, k: int = 6, table: ExmaTable | None = None, **kwargs):
        if table is None:
            if reference is None:
                raise ValueError("either reference or table is required")
            table = ExmaTable(reference, k=k)
        return ExmaBackend(table=table, index=index_builder(table, **kwargs))

    return factory


@register_backend("exma-learned")
def _exma_learned(reference: str | None = None, **kwargs) -> ExmaBackend:
    """EXMA backend with the naive per-k-mer learned index."""
    from ..exma.learned_index import NaiveLearnedIndex

    backend = _exma_factory_with_index(
        lambda table, **kw: NaiveLearnedIndex(table, **kw)
    )(reference, **kwargs)
    backend.name = "exma-learned"
    return backend


@register_backend("exma-mtl")
def _exma_mtl(reference: str | None = None, **kwargs) -> ExmaBackend:
    """EXMA backend with the MTL index."""
    from ..exma.mtl_index import MTLIndex

    backend = _exma_factory_with_index(lambda table, **kw: MTLIndex(table, **kw))(
        reference, **kwargs
    )
    backend.name = "exma-mtl"
    return backend


# --------------------------------------------------------------------- #
# LISA backend
# --------------------------------------------------------------------- #


@register_backend("lisa")
class LisaBackend(SearchBackend):
    """Lockstep batched backward search over LISA's IP-BWT.

    One lockstep iteration consumes one k-symbol chunk of every live
    query.  Duplicate ``(chunk, pos)`` lower-bound requests are coalesced
    per step and resolved once each — by binary search over the IP-BWT or
    by the RMI when the wrapped :class:`LisaIndex` has one.

    Args:
        reference: DNA reference (ignored when *lisa_index* is given).
        k: symbols per iteration for construction.
        use_learned_index: forwarded to :class:`LisaIndex` construction.
        lisa_index: prebuilt LISA structure to wrap.
    """

    def __init__(
        self,
        reference: str | None = None,
        k: int = 4,
        use_learned_index: bool = False,
        lisa_index: LisaIndex | None = None,
    ) -> None:
        if lisa_index is None:
            if reference is None:
                raise ValueError("either reference or lisa_index is required")
            lisa_index = LisaIndex(reference, k=k, use_learned_index=use_learned_index)
        self._lisa = lisa_index

    @property
    def reference_length(self) -> int:
        return self._lisa.ipbwt.reference_length

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        if limit is not None and not interval.empty:
            interval = Interval(interval.low, min(interval.high, interval.low + limit))
        return self._lisa.ipbwt.locate(interval)

    def search_batch(
        self, batch: QueryBatch, stats: BatchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        k = self._lisa.k
        n = len(self._lisa.ipbwt)
        lows, highs = _full_interval(batch, n)
        if not len(batch):
            return lows, highs
        if stats is not None:
            stats.queries += len(batch)

        # Trailing partial chunks first (LISA padding rule).
        _resolve_tails(batch, k, lows, highs, stats, self._tail_bounds)
        alive = lows < highs
        chunks, starts, steps = _packed_chunks(batch.lengths, batch.codes, k)
        for step_index in range(int(steps.max())):
            issuers = np.flatnonzero(alive & (steps > step_index))
            if not issuers.size:
                break
            # Coalesce exactly as the other backends do: chunks are pure
            # DNA here (padded tails were handled above), so they pack
            # into the shared (kmer, pos) key space.
            packed = chunks[starts[issuers] + (steps[issuers] - 1 - step_index) * k]
            step = coalesce_requests(
                np.concatenate([packed, packed]),
                np.concatenate([lows[issuers], highs[issuers]]),
                span=n + 1,
            )
            bounds = np.empty(step.unique, dtype=np.int64)
            costs = np.empty(step.unique, dtype=np.int64)
            for slot, (kmer, pos) in enumerate(
                zip(step.kmers.tolist(), step.positions.tolist())
            ):
                bounds[slot], costs[slot] = self._lisa.lower_bound(
                    unpack_kmer(kmer, k), pos
                )
            bounds_all = step.scatter(bounds)
            if stats is not None:
                stats.iterations += issuers.size
                if self._lisa.learned_index is None:
                    contribution = StepContribution(comparisons=costs)
                else:
                    contribution = StepContribution(
                        predicted=np.ones(step.unique, dtype=bool), errors=costs
                    )
                stats.record_step(
                    step.keys, step.span, step.issued, step.unique_kmers, contribution=contribution
                )
            lows[issuers] = bounds_all[: issuers.size]
            highs[issuers] = bounds_all[issuers.size :]
            alive[issuers] = lows[issuers] < highs[issuers]

        return lows, highs

    def _tail_bounds(self, tail: str) -> tuple[int, int, TailContribution]:
        """A tail's interval from two lower bounds, with their costs, so
        the sharded merge re-accounts them without a replay."""
        n = len(self._lisa.ipbwt)
        low, low_cost = self._lisa.lower_bound(self._lisa.padded_chunk(tail, smallest=True), 0)
        high, high_cost = self._lisa.lower_bound(self._lisa.padded_chunk(tail, smallest=False), n)
        if self._lisa.learned_index is None:
            return low, high, TailContribution(comparisons=low_cost + high_cost)
        return low, high, TailContribution(predictions=2, errors=(low_cost, high_cost))


@register_backend("lisa-learned")
def _lisa_learned(reference: str | None = None, k: int = 4, **kwargs) -> LisaBackend:
    """LISA backend with the recursive-model learned index enabled."""
    backend = LisaBackend(reference, k=k, use_learned_index=True, **kwargs)
    backend.name = "lisa-learned"
    return backend
