"""The compiled kernels: one C library built on first use, called via ctypes.

:data:`SOURCE` holds the kernels and :data:`KERNELS` declares them, one
row per C symbol with its ctypes signature and the dotted path of its
specification: the Python or NumPy function whose answers it gives, and
which its caller runs wherever the wrapper declines.

* ``lru_hits`` is :func:`repro.hw.cache.simulate_lru_hits` (spec: the
  stack-distance ``_head_hits``): each set's tags in recency order, an
  O(ways) scan per access;
* ``dram_channels`` is :meth:`repro.hw.dram.DRAMModel.process` over each
  channel's shard of a trace (spec: ``_columns_spec`` per shard), all in
  one int64 pass over the whole trace;
* ``replay_trace`` is :func:`repro.accel.exma_accelerator._assemble_trace`,
  the replay's issue-order DRAM trace in one pass over the CAM batches:
  each batch's base misses, then each slot's index-node misses and its
  increment fetch (the spec's float64 steps) cut by the reference
  replay's cursor rule, ``min(remaining, room in row, cap)``;
* ``occ_ranks`` is :meth:`repro.exma.table.ExmaTable._occ_spec` as a
  merge walk from each answer to the next in key order;
* ``lockstep`` is :func:`repro.engine.backends._lockstep_spec`, every
  step of a search batch in one call: it packs each query's k-mer chunks
  from the batch's codes and lengths (a :class:`~repro.genome.alphabet
  .QueryBatch`'s columns) and ranks them by ``occ_ranks``' walk;
* ``sigmoid_in``, ``sigmoid_out`` and ``sigmoid_backward`` are the
  elementwise tail of an MTL training epoch,
  :func:`repro.exma.mtl_index._sigmoid_spec` and
  :func:`repro.exma.mtl_index._sigmoid_backward_spec`, in float64.  Only
  correctly rounded ``+ - * /``, negation and a sequential column sum
  run in C; ``np.exp`` and every matrix product stay in NumPy, whose
  kernels depend on the CPU, so the trained weights match NumPy's bit
  for bit on any host.

The library is built by ``cc`` on first use into a private per-user cache
keyed on the source, ``cc --version`` and the flags.  ``-ffp-contract=off``
forbids fused multiply-adds; ``-ffast-math`` (which would reassociate
the column sum and flush denormals) and ``-march=native`` (the cache may
be shared between hosts) are never used.  ``ctypes.PyDLL`` keeps the
GIL: held, it keeps other threads off the buffers C reads.  A failed
build warns once and every caller runs its specification, as does
``REPRO_PURE_PYTHON=1``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import subprocess
import tempfile
import threading
import warnings
from typing import NamedTuple

import numpy as np

from .runtime import PURE_PYTHON_ENV, env_flag

__all__ = ["KERNELS", "dram_channels", "loaded_kernels", "lockstep", "lru_hits", "occ_ranks",
           "replay_trace", "sigmoid", "sigmoid_backward"]

#: The replay trace's fixed sizes, the spec's ``8 * hw.dram.BURST_BYTES``,
#: ``BURST_BYTES`` and ``accel.exma_accelerator.INCREMENT_ENTRY_BYTES``: a
#: DMA chunk's cap, a cache miss's bytes and an increment entry's bytes.
TRACE_CHUNK_CAP, TRACE_MISS_BYTES, TRACE_ENTRY_BYTES = 512, 64, 4

SOURCE = f"""
#include <stdint.h>
#define CHUNK_CAP {TRACE_CHUNK_CAP}
#define MISS_BYTES {TRACE_MISS_BYTES}
#define ENTRY_BYTES {TRACE_ENTRY_BYTES}
""" + r"""void lru_hits(int64_t count, const int64_t *addresses, int64_t line_bytes, int64_t set_count,
    const int64_t *dense_sets, int64_t ways, int64_t *tags, uint8_t *hits) {
    /* Each set's `ways` tags, most recent first; -1 is an empty way.  A
       shift and a mask replace dividing by powers of two (addresses >= 0). */
    int pow2 = !(line_bytes & (line_bytes - 1)) && !(set_count & (set_count - 1));
    int shift = __builtin_ctzll(line_bytes);
    for (int64_t i = 0; i < count; ++i) {
        int64_t line = pow2 ? addresses[i] >> shift : addresses[i] / line_bytes, j = 0;
        int64_t set_id = pow2 ? line & (set_count - 1) : line % set_count;
        int64_t *set = tags + (dense_sets ? dense_sets[i] : set_id) * ways;
        while (j < ways - 1 && set[j] != line && set[j] != -1) ++j;
        hits[i] = set[j] == line;
        for (; j > 0; --j) set[j] = set[j - 1];
        set[0] = line;
    }
}
void dram_channels(int64_t count, const int64_t *rows, const int64_t *nbytes,
    const uint8_t *keep_open, const int64_t *streams, int64_t channels, int64_t bank_count,
    int64_t tcas, int64_t trcd, int64_t trp, int64_t bus_bytes, int64_t close_mode,
    int64_t stream_count, int64_t *banks, int64_t *stream_ready, int64_t *stats) {
    /* Per channel (floored, as Python's %): banks of (ready, open, row), stream
       ready cycles, DRAMStats' ints from `requests` (`total_cycles` is the data
       bus's free cycle throughout) and the address bus's free cycle. */
    for (int64_t i = 0; i < count; ++i) {
        int64_t row = rows[i], channel = row % channels, slot = row % bank_count;
        if (channel < 0) channel += channels;
        if (slot < 0) slot += bank_count;
        int64_t *bank = banks + 3 * (channel * bank_count + slot), *s = stats + 11 * channel;
        int64_t *ready = stream_ready + channel * stream_count + streams[i];
        int64_t issue = bank[0] > *ready ? bank[0] : *ready, commands = 1, latency = tcas;
        if (!bank[1]) commands = 2, latency += trcd, ++s[2];
        else if (bank[2] == row) ++s[1];
        else commands = 3, latency += trp + trcd, ++s[3], ++s[5];
        if (s[10] > issue) issue = s[10];
        s[10] = issue + commands;
        int64_t burst = (nbytes[i] - 1) / bus_bytes + 1, data_start = issue + latency;
        if (s[9] > data_start) data_start = s[9];
        s[9] = data_start + burst;
        ++s[0], s[6] += nbytes[i], s[7] += burst, s[8] += commands;
        int close = close_mode == 2 ? !keep_open[i] : (int)close_mode;
        bank[0] = s[9] + (close ? trp : 0), bank[1] = !close, bank[2] = row;
        s[5] += close, *ready = s[9];
    }
    for (int64_t *s = stats; s < stats + 11 * channels; s += 11) s[4] = s[2] + s[3];
}
int64_t replay_trace(int64_t count, int64_t cam_entries, const int64_t *base_addresses,
    const uint8_t *base_miss, int64_t modelled_count, const int64_t *modelled_slots,
    const int64_t *index_addresses, const uint8_t *index_hits, const int64_t *fetch_offsets,
    const int64_t *entries, const uint8_t *keep_open, int64_t row_bytes,
    int64_t increment_offset, double chain_ratio, int64_t capacity, int64_t *out, uint8_t *keep) {
    /* The issue-order trace: per CAM batch its stage-1 base misses, then per
       stage-2 slot its bucket and leaf misses and its increment chunks, cut by
       min(remaining, room in row, CHUNK_CAP).  `out` holds the rows, sizes and
       streams, `capacity` each; the trace's length is returned.  -1 at a
       negative address, a fetch range whose double steps leave (-2^61, 2^61),
       a trace longer than `capacity`, or modelled slots that are not
       ascending slots. */
    int pow2 = !(row_bytes & (row_bytes - 1)), shift = __builtin_ctzll(row_bytes);
    int64_t *rows = out, *sizes = out + capacity, *streams = out + 2 * capacity, n = 0, m = 0;
    double start_scale = (double)ENTRY_BYTES * chain_ratio;
#define ROW(address) (pow2 ? (address) >> shift : (address) / row_bytes)
#define MISS(address, stream) do { \
        if ((address) < 0 || n >= capacity) return -1; \
        rows[n] = ROW(address), sizes[n] = MISS_BYTES, keep[n] = 0, streams[n++] = stream; \
    } while (0)
    for (int64_t batch = 0; batch < count; batch += cam_entries) {
        int64_t end = count - batch < cam_entries ? count : batch + cam_entries;
        for (int64_t i = batch; i < end; ++i)
            if (base_miss[i]) MISS(base_addresses[i], 0);
        for (int64_t slot = batch; slot < end; ++slot) {
            if (m < modelled_count && modelled_slots[m] == slot) {
                for (int64_t node = 2 * m; node < 2 * m + 2; ++node)
                    if (!index_hits[node]) MISS(index_addresses[node], slot - batch);
                ++m;
            }
            /* NumPy's steps: int64 product (wrapping), to double, one
               multiply, truncate toward zero. */
            double start = (double)fetch_offsets[slot] * start_scale;
            double size = (double)(int64_t)((uint64_t)entries[slot] * ENTRY_BYTES) * chain_ratio;
            if (!(start > -0x1p61 && start < 0x1p61 && size > -0x1p61 && size < 0x1p61)) return -1;
            int64_t cursor = increment_offset + (int64_t)start, remaining = (int64_t)size;
            if (cursor < 0) return -1;
            if (remaining < 1) remaining = 1;
            while (remaining > 0) {
                if (n >= capacity) return -1;
                int64_t row = ROW(cursor), room = row_bytes - (cursor - row * row_bytes);
                int64_t chunk = remaining < room ? remaining : room;
                if (chunk > CHUNK_CAP) chunk = CHUNK_CAP;
                rows[n] = row, sizes[n] = chunk, keep[n] = keep_open[slot], streams[n++] = slot - batch;
                cursor += chunk, remaining -= chunk;
            }
        }
    }
#undef MISS
#undef ROW
    return m == modelled_count ? n : -1;
}
typedef struct {  /* the Occ merge walk: the table's segments and the last answer */
    const int64_t *increments, *starts;
    int64_t kmer_count, total, kmer, pos, rank;
} walk_t;
static int64_t walk_rank(walk_t *w, int64_t kmer, int64_t pos) {
    /* A request after one of the same k-mer at no larger position starts
       from that answer, others from the segment start (the last segment ends
       at total); both gallop then bisect.  The caller range-checks. */
    const int64_t *segment = w->increments + w->starts[kmer];
    int64_t size = (kmer + 1 < w->kmer_count ? w->starts[kmer + 1] : w->total) - w->starts[kmer];
    int64_t low = kmer == w->kmer && pos >= w->pos ? w->rank : 0, high = low, step = 1;
    while (high < size && segment[high] < pos) low = high + 1, high += step, step <<= 1;
    if (high > size) high = size;
    while (low < high) {
        int64_t middle = low + (high - low) / 2;
        if (segment[middle] < pos) low = middle + 1; else high = middle;
    }
    w->kmer = kmer, w->pos = pos;
    return w->rank = low;
}
int64_t occ_ranks(int64_t count, const int64_t *kmers, const int64_t *positions,
    const int64_t *increments, const int64_t *starts, int64_t kmer_count, int64_t total,
    int64_t max_pos, int64_t *ranks) {
    /* 0 at a request out of range. */
    walk_t walk = {increments, starts, kmer_count, total, -1, 0, 0};
    for (int64_t i = 0; i < count; ++i) {
        int64_t kmer = kmers[i], pos = positions[i];
        if ((uint64_t)kmer >= (uint64_t)kmer_count || (uint64_t)pos > (uint64_t)max_pos) return 0;
        ranks[i] = walk_rank(&walk, kmer, pos);
    }
    return 1;
}
static void sort_pairs(int64_t n, int64_t *keys, int64_t *slots, int64_t *spare, int64_t bytes) {
    /* Ascending keys, each slot moved with its key: an LSD radix sort by
       bytes, an even number of passes so the result ends where it began. */
    int64_t *spare_slots = spare + n, *swap;
    for (int64_t shift = 0; shift < 8 * (bytes + (bytes & 1)); shift += 8) {
        int64_t at[257] = {0};
        for (int64_t i = 0; i < n; ++i) ++at[(keys[i] >> shift & 255) + 1];
        for (int64_t b = 0; b < 256; ++b) at[b + 1] += at[b];
        for (int64_t i = 0; i < n; ++i) {
            int64_t to = at[keys[i] >> shift & 255]++;
            spare[to] = keys[i], spare_slots[to] = slots[i];
        }
        swap = keys, keys = spare, spare = swap;
        swap = slots, slots = spare_slots, spare_slots = swap;
    }
}
int64_t lockstep(int64_t queries, int64_t max_steps, int64_t k, int64_t code_count,
    const uint8_t *codes, const int64_t *lengths, const int64_t *lows, const int64_t *highs,
    const int64_t *counts, const int64_t *increments, const int64_t *starts,
    int64_t kmer_count, int64_t total, int64_t max_pos, int64_t *out) {
    /* Every lockstep step of a batch; returns the steps run, -1 at a code
       outside 1..4 or a k-mer or position out of range, -2 when the lengths
       (none negative) do not sum to code_count.  `codes` holds the queries
       back to back; step s packs chunk s of query i, the k codes
       ending s * k + lengths[i] % k before its end, 2 bits a code.  `out`
       holds, in order: the bounds (lows, then highs), the steps' unique keys
       and their Occ (2 * queries * max_steps each), the step offsets into
       them (max_steps + 1), each step's issued and distinct-k-mer counts
       (max_steps each), then scratch: the sort's (8 * queries) and each
       query's chunk count and end of its first chunk (queries each).  A query
       issues while it has a chunk left and a non-empty interval. */
    int64_t span = max_pos + 1, capacity = 2 * queries * max_steps, key_bytes = 1;
    int64_t *bounds = out, *keys = bounds + 2 * queries, *occ = keys + capacity;
    int64_t *offsets = occ + capacity, *issued = offsets + max_steps + 1;
    int64_t *distinct = issued + max_steps, *sort_keys = distinct + max_steps;
    int64_t *sort_slots = sort_keys + 2 * queries, *spare = sort_slots + 2 * queries, s = 0;
    int64_t *chunks = spare + 4 * queries, *ends = chunks + queries, end = 0;
    while (key_bytes < 8 && (kmer_count * span - 1) >> (8 * key_bytes)) ++key_bytes;
    for (int64_t i = 0; i < queries; ++i) {
        if (lengths[i] < 0) return -2;
        bounds[i] = lows[i], bounds[queries + i] = highs[i], end += lengths[i];
        chunks[i] = lengths[i] / k, ends[i] = end - lengths[i] % k;
    }
    if (end != code_count) return -2;
    offsets[0] = 0;
    for (; s < max_steps; ++s) {
        int64_t n = 0, unique = offsets[s], previous = -1, value = 0;
        for (int64_t i = 0; i < queries; ++i) {
            if (chunks[i] <= s || bounds[i] >= bounds[queries + i]) continue;
            const uint8_t *chunk = codes + ends[i] - (s + 1) * k;
            int64_t kmer = 0, low = bounds[i], high = bounds[queries + i];
            for (int64_t j = 0; j < k; ++j) {
                uint8_t digit = chunk[j] - 1;
                if (digit > 3) return -1;
                kmer = kmer << 2 | digit;
            }
            if (kmer >= kmer_count || (uint64_t)low > (uint64_t)max_pos
                || (uint64_t)high > (uint64_t)max_pos) return -1;
            sort_keys[n] = kmer * span + low, sort_slots[n++] = i;
            sort_keys[n] = kmer * span + high, sort_slots[n++] = queries + i;
        }
        if (!n) break;
        sort_pairs(n, sort_keys, sort_slots, spare, key_bytes);
        walk_t walk = {increments, starts, kmer_count, total, -1, 0, 0};
        distinct[s] = 0;
        for (int64_t j = 0; j < n; ++j) {
            if (sort_keys[j] != previous) {
                int64_t kmer = sort_keys[j] / span, rank;
                distinct[s] += kmer != walk.kmer;
                rank = walk_rank(&walk, kmer, sort_keys[j] - kmer * span);
                previous = keys[unique] = sort_keys[j], occ[unique++] = rank;
                value = counts[kmer] + rank;
            }
            bounds[sort_slots[j]] = value;
        }
        issued[s] = n, offsets[s + 1] = unique;
    }
    return s;
}
void sigmoid_in(int64_t rows, int64_t width, const double *restrict bias, double *restrict x) {
    for (int64_t i = 0; i < rows; ++i, x += width)
        for (int64_t j = 0; j < width; ++j) x[j] = -(x[j] + bias[j]);
}
void sigmoid_out(int64_t size, double *restrict x) {
    for (int64_t i = 0; i < size; ++i) x[i] = 1.0 / (x[i] + 1.0);
}
void sigmoid_backward(int64_t rows, int64_t width, const double *restrict hidden,
    const double *restrict grad_pred, const double *restrict w2, double *restrict scratch,
    double *restrict column_sum) {
    /* NumPy's sum(axis=0) of a C-contiguous array at least two columns
       wide: from +0.0, each row added in turn (a column of -0.0 sums to
       +0.0).  A single column NumPy sums pairwise; the caller declines it. */
    for (int64_t j = 0; j < width; ++j) column_sum[j] = 0.0;
    for (int64_t i = 0; i < rows; ++i, hidden += width, scratch += width) {
        for (int64_t j = 0; j < width; ++j) {
            double value = ((grad_pred[i] * w2[j]) * hidden[j]) * (1.0 - hidden[j]);
            scratch[j] = value;
            column_sum[j] += value;
        }
    }
}
"""
COMPILER = "cc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
#: Private to the user: never the source tree, never a shared ``/tmp``.
CACHE_DIR = pathlib.Path.home() / ".cache" / "repro-exma"
INT64_END = 2**63
#: The compiled LRU's scratch bound, in tags per access.
LRU_TAGS_PER_ACCESS = 64

_UNRESOLVED = object()
_library: object = _UNRESOLVED
_lock = threading.Lock()

_INT64 = ctypes.c_int64
_DOUBLE = ctypes.c_double
_POINTER = ctypes.c_void_p


class Kernel(NamedTuple):
    """One C symbol of :data:`SOURCE`, its ctypes signature, and the dotted
    path of its specification: what its caller runs where it declines."""

    symbol: str
    restype: object
    argtypes: tuple
    spec: str


#: Every compiled kernel, declared once: :func:`_build` binds each row,
#: and the tests, CI and the record host block read the table.  The
#: specs are named, not imported, because their modules import this one.
KERNELS = (
    Kernel("lru_hits", None, (_INT64, _POINTER, _INT64, _INT64, _POINTER, _INT64, *[_POINTER] * 2),
           "repro.hw.cache._head_hits"),
    Kernel("dram_channels", None, (_INT64, *[_POINTER] * 4, *[_INT64] * 8, *[_POINTER] * 3),
           "repro.hw.dram.DRAMModel._columns_spec"),
    Kernel("replay_trace", _INT64,
           (_INT64, _INT64, _POINTER, _POINTER, _INT64, *[_POINTER] * 6, *[_INT64] * 2, _DOUBLE,
            _INT64, _POINTER, _POINTER),
           "repro.accel.exma_accelerator._assemble_trace"),
    Kernel("occ_ranks", _INT64, (_INT64, *[_POINTER] * 4, *[_INT64] * 3, _POINTER),
           "repro.exma.table.ExmaTable._occ_spec"),
    Kernel("lockstep", _INT64, (*[_INT64] * 4, *[_POINTER] * 7, *[_INT64] * 3, _POINTER),
           "repro.engine.backends._lockstep_spec"),
    Kernel("sigmoid_in", None, (_INT64, _INT64, _POINTER, _POINTER),
           "repro.exma.mtl_index._sigmoid_spec"),
    Kernel("sigmoid_out", None, (_INT64, _POINTER), "repro.exma.mtl_index._sigmoid_spec"),
    Kernel("sigmoid_backward", None, (_INT64, _INT64, *[_POINTER] * 5),
           "repro.exma.mtl_index._sigmoid_backward_spec"),
)


def _build():
    """Compile (unless cached) and load the library; raises on failure."""
    run = dict(capture_output=True, text=True, timeout=120, check=True)
    version = subprocess.run([COMPILER, "--version"], **run).stdout
    key = hashlib.sha256("\0".join((SOURCE, version, *FLAGS)).encode()).hexdigest()
    CACHE_DIR.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = CACHE_DIR.stat()
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise OSError(f"{CACHE_DIR} is not private to this user")
    path = CACHE_DIR / f"kernels-{key[:16]}.so"
    if not path.exists():
        # Unique name, then rename: a racing process sees none or a whole one.
        handle, partial = tempfile.mkstemp(suffix=".so", dir=CACHE_DIR)
        os.close(handle)
        try:
            subprocess.run([COMPILER, *FLAGS, "-o", partial, "-x", "c", "-"], input=SOURCE, **run)
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    library = ctypes.PyDLL(str(path))
    for kernel in KERNELS:
        function = getattr(library, kernel.symbol)
        function.restype, function.argtypes = kernel.restype, kernel.argtypes
    return library


def _resolve():
    """The loaded library, or ``None`` when disabled or unavailable."""
    global _library
    with _lock:
        if _library is _UNRESOLVED:
            library = None
            if not env_flag(PURE_PYTHON_ENV):
                try:
                    library = _build()
                except (AttributeError, OSError, subprocess.SubprocessError) as error:
                    message = f"compiled kernels unavailable ({error}); running their specs"
                    warnings.warn(message, RuntimeWarning, stacklevel=4)
            _library = library
    return _library


def _loaded():
    """The library after the first resolution, without taking the lock."""
    return _library if _library is not _UNRESOLVED else _resolve()


def loaded_kernels() -> list[str]:
    """The :data:`KERNELS` symbols loaded in this process: every row (the
    library binds all or fails to load), or none where the specs run."""
    return [] if _loaded() is None else [kernel.symbol for kernel in KERNELS]


def lru_hits(addresses: np.ndarray, line_bytes: int, set_count: int, ways: int):
    """``simulate_lru_hits`` run compiled: the hit mask of a cold LRU over
    int64 *addresses*, or ``None`` where it declines (disabled,
    unavailable, a geometry or address the cache refuses, or scratch of
    more than ``LRU_TAGS_PER_ACCESS`` tags an access).  Scratch is one
    tag per way of each *touched* set, never more ways than accesses, so
    a Table-I cache on a 10-request flush allocates ten sets of tags."""
    library = _loaded()
    count = addresses.size
    if library is None or min(line_bytes, set_count, ways) <= 0 or count and addresses.min() < 0:
        return None
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    dense_sets, touched = None, set_count
    if set_count > count:  # renumber the touched sets densely
        unique, dense_sets = np.unique(addresses // line_bytes % set_count, return_inverse=True)
        dense_sets, touched = np.ascontiguousarray(dense_sets, dtype=np.int64), unique.size
    ways = min(ways, count)
    if touched * ways > LRU_TAGS_PER_ACCESS * count:
        return None
    tags = np.full(touched * ways, -1, dtype=np.int64)
    hits = np.empty(count, dtype=bool)
    dense = None if dense_sets is None else dense_sets.ctypes.data
    args = (addresses.ctypes.data, line_bytes, set_count, dense, ways, tags.ctypes.data)
    library.lru_hits(count, *args, hits.ctypes.data)
    return hits


def dram_channels(
    rows, nbytes, keep_open, streams, channels: int, banks: int, timings, bus_bytes: int,
    close_mode: int,
):
    """``DRAMModel.process`` over every channel's shard of one trace in one
    issue-order pass, compiled: per channel (floored ``row % channels``)
    the ``DRAMStats`` counters from ``requests`` to ``total_cycles``, or
    ``None`` where it declines (disabled, unavailable, no request, a
    value the model refuses, or counters that could pass int64: none
    exceeds ``count * (max nbytes + 3 + tcas + trcd + 2 trp)``).
    *timings* is ``(tcas, trcd, trp)``; *close_mode* 0 never closes a
    row, 1 always does, 2 unless *keep_open*."""
    library = _loaded()
    columns = [
        np.ascontiguousarray(c, dtype=t)
        for c, t in zip((rows, nbytes, keep_open, streams), (np.int64, np.int64, bool, np.int64))
    ]
    count, nbytes, streams = columns[0].size, columns[1], columns[3]
    if any(column.size != count for column in columns):
        raise ValueError("trace columns differ in length")
    if library is None or not count or close_mode not in (0, 1, 2) or min(timings) < 0:
        return None
    peak = int(nbytes.max()) + 3 + sum(timings) + timings[2]
    stream_count = int(streams.max()) + 1
    if min(channels, banks, bus_bytes, nbytes.min(), streams.min() + 1) <= 0 or (
        count * peak >= INT64_END
    ):
        return None
    state = [np.zeros(channels * n, dtype=np.int64) for n in (3 * banks, stream_count, 11)]
    library.dram_channels(
        count, *(c.ctypes.data for c in columns), channels, banks, *timings, bus_bytes,
        close_mode, stream_count, *(a.ctypes.data for a in state),
    )
    return state[2].reshape(channels, 11)[:, :10].tolist()


def replay_trace(
    base_addresses, base_miss, modelled_slots, index_addresses, index_hits, fetch_offsets,
    entries, keep_open, cam_entries: int, row_bytes: int, increment_offset: int,
    chain_ratio: float,
):
    """``ExmaAccelerator``'s issue-order DRAM trace in one compiled pass,
    its spec's arguments in, its ``(rows, nbytes, keep_open, streams)``
    columns out; ``None`` where it declines (disabled, unavailable, a CAM
    or row size below 1, a negative address or fetch start (C truncates
    where Python floors), byte ranges that could pass int64, or a trace
    longer than the bound below: found by the pass itself).  Each slot's
    fetch is the byte range that ``exma_accelerator._fetch_ranges`` gives,
    in the same float64 steps.  Columns that disagree in length raise
    ``ValueError``."""
    library = _loaded()
    if library is None or min(cam_entries, row_bytes) <= 0 or not (
        0 <= increment_offset < 2**61
    ):
        return None
    ints = [
        np.ascontiguousarray(c, dtype=np.int64)
        for c in (base_addresses, modelled_slots, index_addresses, fetch_offsets, entries)
    ]
    flags = [np.ascontiguousarray(c, dtype=bool) for c in (base_miss, index_hits, keep_open)]
    count, modelled = ints[0].size, ints[1].size
    if any(c.size != count for c in (*ints[3:], flags[0], flags[2])) or (
        ints[2].size != 2 * modelled or flags[1].size != 2 * modelled
    ):
        raise ValueError("replay trace columns differ in length")
    # Room for the longest trace the columns can make: every miss, and per
    # slot of s bytes at most s // cap + s // row_bytes + 2 chunks (its
    # whole-cap chunks, plus one part chunk in each row it touches).  The
    # slots' bytes sum to at most `spans`, with slack for the float steps'
    # rounding; negative entries or a sum past int64 can break the bound,
    # and then the pass declines.
    spans = float(ints[4].sum()) * (TRACE_ENTRY_BYTES * chain_ratio) * (1 + 2**-40) + count
    if not 0 <= spans < 2**61:
        return None
    misses = np.count_nonzero(flags[0]) + flags[1].size - np.count_nonzero(flags[1])
    capacity = misses + 2 * count + int(spans) // TRACE_CHUNK_CAP + int(spans) // row_bytes
    out = np.empty(3 * capacity, dtype=np.int64)
    keep = np.empty(capacity, dtype=bool)
    length = library.replay_trace(
        count, cam_entries, ints[0].ctypes.data, flags[0].ctypes.data, modelled,
        ints[1].ctypes.data, ints[2].ctypes.data, flags[1].ctypes.data, ints[3].ctypes.data,
        ints[4].ctypes.data, flags[2].ctypes.data, row_bytes, increment_offset, chain_ratio,
        capacity, out.ctypes.data, keep.ctypes.data,
    )
    if length < 0:
        return None
    columns = out.reshape(3, capacity)[:, :length]
    return columns[0], columns[1], keep[:length], columns[2]


def occ_ranks(kmers, positions, increments, starts, max_pos: int) -> np.ndarray | None:
    """``ExmaTable.occ_batch`` compiled: per request, the entries of
    ``increments[starts[kmer] : starts[kmer + 1]]`` (ascending offsets, the
    last segment ending with *increments*) below its position; ``None``
    where it declines (disabled, unavailable, a k-mer or position out of
    range: found by the pass itself)."""
    library = _loaded()
    if library is None:
        return None
    columns = [np.ascontiguousarray(c, dtype=np.int64) for c in (kmers, positions, increments)]
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if columns[1].size != columns[0].size:
        raise ValueError("kmers and positions differ in length")
    ranks = np.empty(columns[0].size, dtype=np.int64)
    found = library.occ_ranks(
        ranks.size, *(c.ctypes.data for c in columns), starts.ctypes.data, starts.size,
        columns[2].size, max_pos, ranks.ctypes.data,
    )
    return ranks if found else None


def lockstep(lengths, codes, k: int, lows, highs, counts, increments, starts, max_pos: int):
    """:func:`repro.engine.backends._lockstep_spec` compiled, every step in
    one pass that packs each chunk from *codes*, with the same outputs;
    ``None`` where it declines (disabled, unavailable, a *k* outside
    ``[1, 31]``, keys that could pass int64, or a code, k-mer or position
    out of range: found by the pass itself).  The inputs are left as they
    were; columns that disagree in length raise ``ValueError``."""
    library = _loaded()
    if library is None or not 0 < k < 32 or starts.size * (max_pos + 1) >= INT64_END:
        return None
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    columns = [
        np.ascontiguousarray(c, dtype=np.int64)
        for c in (lengths, lows, highs, counts, increments, starts)
    ]
    queries = columns[0].size
    if any(c.size != queries for c in columns[1:3]) or columns[3].size != columns[5].size:
        raise ValueError("lockstep columns differ in length")
    max_steps = int(columns[0].max(initial=0)) // k
    capacity = 2 * queries * max_steps
    # Where C's outputs begin in `out`: keys, Occ, offsets, issued, distinct.
    keys_at = 2 * queries
    occ_at = keys_at + capacity
    offsets_at = occ_at + capacity
    issued_at = offsets_at + max_steps + 1
    distinct_at = issued_at + max_steps
    out = np.empty(distinct_at + max_steps + 10 * queries, dtype=np.int64)
    ran = library.lockstep(
        queries, max_steps, k, codes.size, codes.ctypes.data, *(c.ctypes.data for c in columns),
        columns[5].size, columns[4].size, max_pos, out.ctypes.data,
    )
    if ran == -2:
        raise ValueError("lockstep columns differ in length")
    if ran < 0:
        return None
    offsets = out[offsets_at : offsets_at + ran + 1]
    used = int(offsets[-1])
    bounds = out[:keys_at].copy()  # copies, so that no result keeps `out` alive
    return (
        bounds[:queries], bounds[queries:], out[keys_at : keys_at + used].copy(),
        out[occ_at : occ_at + used].copy(), offsets, out[issued_at : issued_at + ran],
        out[distinct_at : distinct_at + ran],
    )


def _doubles(array, shape: tuple[int, ...]) -> bool:
    """Whether C may address *array* as a C-contiguous float64 *shape*."""
    return (
        type(array) is np.ndarray
        and array.dtype == np.float64
        and array.shape == shape
        and array.flags.c_contiguous
    )


def _writable_alone(output: np.ndarray, *inputs: np.ndarray) -> bool:
    """Whether C may write *output* while reading *inputs* (its pointers
    are ``restrict``: no input may overlap it)."""
    return output.flags.writeable and not any(
        np.may_share_memory(output, array) for array in inputs
    )


def sigmoid(hidden, bias) -> bool:
    """``hidden = 1 / (1 + exp(-(hidden + bias)))`` in place, the
    elementwise passes compiled around NumPy's ``exp``.  ``False``, with
    *hidden* untouched, where it declines (disabled, unavailable, or an
    array C cannot address) and the caller runs ``_sigmoid_spec``."""
    library = _loaded()
    shape = np.shape(hidden)
    if library is None or len(shape) != 2 or not (
        _doubles(hidden, shape) and _doubles(bias, shape[1:]) and _writable_alone(hidden, bias)
    ):
        return False
    rows, width = shape
    library.sigmoid_in(rows, width, bias.ctypes.data, hidden.ctypes.data)
    np.exp(hidden, out=hidden)
    library.sigmoid_out(hidden.size, hidden.ctypes.data)
    return True


def sigmoid_backward(hidden, grad_pred, w2, scratch) -> np.ndarray | None:
    """``scratch = outer(grad_pred, w2) * hidden * (1 - hidden)`` and its
    column sum, returned, compiled; *hidden* is left as it was.  ``None``
    where it declines (as :func:`sigmoid`) and the caller runs
    ``_sigmoid_backward_spec``.  A single column is declined too: NumPy
    sums an ``(n, 1)`` array pairwise, not row by row."""
    library = _loaded()
    shape = np.shape(hidden)
    if library is None or len(shape) != 2 or shape[1] < 2:
        return None
    rows, width = shape
    if not (
        _doubles(hidden, shape)
        and _doubles(grad_pred, (rows,))
        and _doubles(w2, (width,))
        and _doubles(scratch, shape)
        and _writable_alone(scratch, hidden, grad_pred, w2)
    ):
        return None
    column_sum = np.empty(width)
    library.sigmoid_backward(
        rows,
        width,
        *(array.ctypes.data for array in (hidden, grad_pred, w2, scratch, column_sum)),
    )
    return column_sum
