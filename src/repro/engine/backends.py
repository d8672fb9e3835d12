"""Search backends: one batched interface over every index structure.

A :class:`SearchBackend` answers batches of exact-match queries with
BW-matrix intervals.  Each backend wraps one of the repository's search
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

from ..exma.search import OccIndex
from ..exma.table import ExmaTable
from ..genome.alphabet import (
    FULL_ALPHABET,
    SENTINEL,
    AlphabetError,
    encode_right_aligned,
    pack_kmer,
    unpack_kmer,
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
    :meth:`locate`; everything else — single-query search, find, counting
    — derives from those, so single-query paths stay thin wrappers over
    the batched engine.
    """

    #: Registry name, set by :func:`register_backend`.
    name: str = "abstract"

    @abc.abstractmethod
    def search_batch(
        self, queries: Sequence[str], stats: BatchStats | None = None
    ) -> list[Interval]:
        """BW-matrix interval of every query, advancing all in lockstep."""

    @abc.abstractmethod
    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        """Reference positions of a BW-matrix interval (sorted)."""

    @property
    @abc.abstractmethod
    def reference_length(self) -> int:
        """Length of the sentinel-terminated reference."""

    def search(self, query: str, stats: BatchStats | None = None) -> Interval:
        """Single-query search: a batch of one."""
        return self.search_batch([query], stats)[0]

    def find_batch(
        self,
        queries: Sequence[str],
        stats: BatchStats | None = None,
        limit: int | None = None,
    ) -> list[list[int]]:
        """Occurrence positions of every query (sorted per query)."""
        return [
            self.locate(interval, limit=limit)
            for interval in self.search_batch(queries, stats)
        ]

    def count_batch(
        self, queries: Sequence[str], stats: BatchStats | None = None
    ) -> list[int]:
        """Occurrence count of every query."""
        return [interval.count for interval in self.search_batch(queries, stats)]

    @staticmethod
    def _validate(queries: Sequence[str]) -> None:
        for query in queries:
            if not query:
                raise ValueError("query must be non-empty")


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
    def fm_index(self) -> FMIndex:
        """The wrapped FM-Index."""
        return self._fm

    @property
    def reference_length(self) -> int:
        return self._fm.reference_length

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        return self._fm.locate(interval, limit=limit)

    def _encode_reversed(self, queries: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Encode queries right-to-left into a padded code matrix."""
        lengths = np.array([len(q) for q in queries], dtype=np.int64)
        codes = encode_right_aligned(queries, lengths, lengths)[:, ::-1]
        sentinel = (codes == 0).any(axis=1)
        if sentinel.any():
            raise ValueError(
                f"query {queries[int(sentinel.argmax())]!r} contains the sentinel symbol"
            )
        return codes, lengths

    def search_batch(
        self, queries: Sequence[str], stats: BatchStats | None = None
    ) -> list[Interval]:
        if not queries:
            return []
        self._validate(queries)
        codes, lengths = self._encode_reversed(queries)
        n = self._fm.reference_length
        occ = self._fm.occ_prefix_sums()
        count = self._fm.count_table

        n_queries = len(queries)
        lows = np.zeros(n_queries, dtype=np.int64)
        highs = np.full(n_queries, n, dtype=np.int64)
        alive = np.ones(n_queries, dtype=bool)
        if stats is not None:
            stats.queries += n_queries

        for step_index in range(codes.shape[1]):
            active = alive & (lengths > step_index)
            if not np.any(active):
                break
            symbols = codes[active, step_index]
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
                stats.record_step(step)

        return [Interval(low, high) for low, high in zip(lows.tolist(), highs.tolist())]

    # ------------------------------------------------------------------ #
    # Batched seeding
    # ------------------------------------------------------------------ #

    def maximal_exact_matches_batch(
        self, reads: Sequence[str], min_length: int = 10, stats: BatchStats | None = None
    ) -> list[list["Seed"]]:
        """Greedy maximal exact matches of many reads, in lockstep.

        Runs the exact per-read state machine of
        :meth:`repro.index.fmindex.FMIndex.maximal_exact_matches` — same
        seeds, same order — but advances every read together and answers
        each global step's backward extensions with one coalesced batch of
        Occ lookups, so seeding a read batch drives the memory system the
        way the paper's request streams do.  With *stats*, each global
        step's coalesced requests are recorded exactly as
        :meth:`search_batch` records them, so the seeding pass yields the
        columnar request stream the windowed accelerator pipeline replays.
        """
        from ..index.fmindex import Seed

        n = self._fm.reference_length
        occ = self._fm.occ_prefix_sums()
        count = self._fm.count_table
        if stats is not None:
            stats.queries += len(reads)

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
            if stats is not None:
                stats.iterations += int(n_active)
                # Same base-read rule as search_batch: one gather from the
                # dense Occ table per unique symbol per global step.
                stats.record_step(step)

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

    One lockstep iteration consumes one k-mer of every live query.  The
    step's ``(kmer, pos)`` requests are coalesced exactly once across the
    whole batch — the software mirror of the accelerator's DRAM-side
    merge — then answered columnar: one ``searchsorted`` rank-queries
    every unique request of the step, and one ``index.predict_many``
    prices all the modelled ones (one MLP forward per shared MTL node).

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
        #: The index's columnar face, resolved once: ``has_model`` as a mask
        #: over packed codes (one gather classifies a whole lockstep step)
        #: and the ``predict_many`` that prices the step's modelled requests.
        #: Bound here rather than looked up per step on purpose: a tracer
        #: that later wraps the class attribute (``bench/trace.py`` books
        #: ``MTLIndex.predict_many`` spans to the replay) must keep seeing
        #: search-side pricing as search time.
        self._modelled = self._predict_many = None
        if index is not None:
            self._modelled = index.modelled_lookup(table.kmer_count)
            self._predict_many = index.predict_many
        self._span = table.reference_length + 1
        self._augmented: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
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

    def _chunk_matrix(self, queries: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Pack every query's full k-chunks right-to-left, padded with -1.

        The whole batch is encoded once, the bodies right-aligned into one
        code matrix and packed with a single reshape + matmul against the
        2-bit place values — no per-query or per-chunk Python.  Right
        alignment makes slot ``max_steps - 1 - j`` of every row the j-th
        chunk consumed by the lockstep loop, regardless of query length.
        """
        k = self._table.k
        lengths = np.array([len(query) for query in queries], dtype=np.int64)
        steps = lengths // k
        max_steps = int(steps.max(initial=0))
        bodies = steps * k
        aligned = encode_right_aligned(queries, lengths, bodies)
        if np.any(aligned == 0):
            raise AlphabetError("invalid k-mer symbol: '$'")
        leftovers = [query[body:] for query, body in zip(queries, bodies.tolist())]
        place_values = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
        packed = (aligned - 1).reshape(len(queries), max_steps, k) @ place_values
        matrix = np.where(
            steps[:, None] > np.arange(max_steps), packed[:, ::-1], np.int64(-1)
        )
        return matrix, steps, leftovers

    def search_batch(
        self, queries: Sequence[str], stats: BatchStats | None = None
    ) -> list[Interval]:
        if not queries:
            return []
        self._validate(queries)
        n = self._table.reference_length
        chunk_matrix, steps, leftovers = self._chunk_matrix(queries)

        n_queries = len(queries)
        lows = np.zeros(n_queries, dtype=np.int64)
        highs = np.full(n_queries, n, dtype=np.int64)
        alive = np.ones(n_queries, dtype=bool)
        if stats is not None:
            stats.queries += n_queries

        # Trailing partial chunk first, straight from the per-k-mer counts
        # (coalesced by tail string: each distinct tail is resolved once).
        tail_cache: dict[str, tuple[int, int]] = {}
        for i, tail in enumerate(leftovers):
            if not tail:
                continue
            bounds = tail_cache.get(tail)
            if bounds is None:
                bounds = self._table.prefix_interval(tail)
                tail_cache[tail] = bounds
                if stats is not None:
                    stats.record_tail(tail, TailContribution(base_reads=1))
            lows[i], highs[i] = bounds
            if stats is not None:
                stats.iterations += 1
            if lows[i] >= highs[i]:
                alive[i] = False

        for step_index in range(chunk_matrix.shape[1]):
            active = alive & (steps > step_index)
            if not np.any(active):
                break
            packed = chunk_matrix[active, step_index]
            step = coalesce_requests(
                np.concatenate([packed, packed]),
                np.concatenate([lows[active], highs[active]]),
                span=n + 1,
            )
            occ_unique = self._resolve_unique(step.kmers, step.positions)
            occ_all = step.scatter(occ_unique)

            counts = self._table.count_table()[packed]
            n_active = int(packed.size)
            lows[active] = counts + occ_all[:n_active]
            highs[active] = counts + occ_all[n_active:]
            alive &= lows < highs

            if stats is not None:
                stats.iterations += n_active
                stats.record_step(
                    step,
                    self._step_contribution(step.kmers, step.positions, occ_unique)
                    if stats.priced
                    else None,
                )

        return [Interval(low, high) for low, high in zip(lows.tolist(), highs.tolist())]

    def _augmented_increments(self) -> tuple[np.ndarray, np.ndarray]:
        """The increment array offset into per-k-mer key ranges (cached).

        ``augmented[i] = increments[i] + owner_kmer(i) * span`` is globally
        sorted (increment lists are concatenated k-mer-major and sorted
        within each list), so ``Occ(kmer, pos)`` for *every* unique request
        of a step is one vectorized ``searchsorted`` of the packed
        ``kmer * span + pos`` keys minus the k-mer's list offset — no
        Python loop over k-mers.
        """
        if self._augmented is None:
            counts = self._table.frequencies()
            owners = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            augmented = self._table.increments + owners * self._span
            # Publish offsets before the array other threads gate on:
            # concurrent shard threads (sharded.py's thread executor) check
            # ``_augmented is None``, so it must become visible last.
            self._offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            self._augmented = augmented
        assert self._offsets is not None
        return self._augmented, self._offsets

    def _resolve_unique(self, kmers: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Answer each unique (kmer, pos) request exactly once."""
        augmented, offsets = self._augmented_increments()
        keys = kmers * self._span + positions
        return (np.searchsorted(augmented, keys, side="left") - offsets[kmers]).astype(
            np.int64
        )

    def _step_contribution(
        self, kmers: np.ndarray, positions: np.ndarray, occ_values: np.ndarray
    ) -> StepContribution:
        """Per-unique-request resolution costs of one step, k-mer-major.

        Exact resolution reads ceil-log2 of the k-mer's increment-list
        length per request (binary search), computed for the whole step at
        once: ``frexp`` exponents are exactly ``bit_length`` for the int64
        frequencies.  Modelled k-mers (learned / MTL index) instead read
        the predicted entry plus successor plus the linear overshoot, and
        contribute one prediction with its error per request: the step's
        modelled requests are priced by a single ``predict_many`` call.
        """
        if self._frequencies is None:
            # frequencies() copies the 4^k counts table; fetch it once per
            # backend, not once per lockstep step.
            self._frequencies = self._table.frequencies()
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
    def lisa_index(self) -> LisaIndex:
        """The wrapped LISA structure."""
        return self._lisa

    @property
    def reference_length(self) -> int:
        return self._lisa.ipbwt.reference_length

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        if limit is not None and not interval.empty:
            interval = Interval(interval.low, min(interval.high, interval.low + limit))
        return self._lisa.ipbwt.locate(interval)

    def search_batch(
        self, queries: Sequence[str], stats: BatchStats | None = None
    ) -> list[Interval]:
        if not queries:
            return []
        self._validate(queries)
        k = self._lisa.k
        n = len(self._lisa.ipbwt)

        chunk_lists: list[list[str]] = []
        leftovers: list[str] = []
        for query in queries:
            leftover = len(query) % k
            leftovers.append(query[len(query) - leftover :] if leftover else "")
            body = query[: len(query) - leftover]
            chunk_lists.append([body[right - k : right] for right in range(len(body), 0, -k)])
        steps = [len(chunks) for chunks in chunk_lists]

        n_queries = len(queries)
        lows = [0] * n_queries
        highs = [n] * n_queries
        alive = [True] * n_queries
        if stats is not None:
            stats.queries += n_queries

        # Trailing partial chunks, coalesced by tail (LISA padding rule).
        # Each distinct tail costs two lower bounds, recorded with their
        # costs so the sharded merge re-accounts them without a replay.
        tail_cache: dict[str, tuple[int, int]] = {}
        for i, tail in enumerate(leftovers):
            if not tail:
                continue
            bounds = tail_cache.get(tail)
            if bounds is None:
                low, low_cost = self._lisa.lower_bound(
                    self._lisa.padded_chunk(tail, smallest=True), 0
                )
                high, high_cost = self._lisa.lower_bound(
                    self._lisa.padded_chunk(tail, smallest=False), n
                )
                bounds = (low, high)
                tail_cache[tail] = bounds
                if stats is not None:
                    if self._lisa.learned_index is None:
                        contribution = TailContribution(comparisons=low_cost + high_cost)
                    else:
                        contribution = TailContribution(
                            predictions=2, errors=(low_cost, high_cost)
                        )
                    stats.record_tail(tail, contribution)
            lows[i], highs[i] = bounds
            if stats is not None:
                stats.iterations += 1
            if lows[i] >= highs[i]:
                alive[i] = False

        max_steps = max(steps, default=0)
        for step_index in range(max_steps):
            issuers = [
                i
                for i in range(n_queries)
                if alive[i] and step_index < steps[i]
            ]
            if not issuers:
                break
            # Coalesce exactly as the other backends do: chunks are pure
            # DNA here (padded tails were handled above), so they pack
            # into the shared (kmer, pos) key space.
            packed = np.array(
                [pack_kmer(chunk_lists[i][step_index]) for i in issuers], dtype=np.int64
            )
            step = coalesce_requests(
                np.concatenate([packed, packed]),
                np.array([lows[i] for i in issuers] + [highs[i] for i in issuers]),
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
                stats.iterations += len(issuers)
                if self._lisa.learned_index is None:
                    contribution = StepContribution(comparisons=costs)
                else:
                    contribution = StepContribution(
                        predicted=np.ones(step.unique, dtype=bool), errors=costs
                    )
                stats.record_step(step, contribution)
            for slot, i in enumerate(issuers):
                lows[i] = int(bounds_all[slot])
                highs[i] = int(bounds_all[slot + len(issuers)])
                if lows[i] >= highs[i]:
                    alive[i] = False

        return [Interval(low, high) for low, high in zip(lows, highs)]


@register_backend("lisa-learned")
def _lisa_learned(reference: str | None = None, k: int = 4, **kwargs) -> LisaBackend:
    """LISA backend with the recursive-model learned index enabled."""
    backend = LisaBackend(reference, k=k, use_learned_index=True, **kwargs)
    backend.name = "lisa-learned"
    return backend
