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
  one int64 pass over the whole trace (a mask and a shift where the
  channels and the bus bytes are powers of two);
* ``replay_trace`` is :func:`repro.accel.exma_accelerator._assemble_trace`,
  the columnar replay's trace stage (``_issue_trace``, between the index
  cache and the DRAM channels): its issue-order DRAM trace in one pass
  over the CAM batches:
  each batch's base misses, then each slot's index-node misses and its
  increment fetch (the spec's float64 steps) cut by the reference
  replay's cursor rule, ``min(remaining, room in row, cap)``;
* ``cam_keys`` and ``cam_stage2`` are :func:`repro.hw.scheduler
  ._schedule_spec`, the CAM's stage orders and keep-open hints, as two
  passes around one ``np.sort`` of the stage-2 keys: the first writes
  them (stage 1 is the arrival order where each CAM batch's k-mers
  ascend, else the caller's stable argsort), the second reads stage 2
  off their slot bits and the hints off the k-mer runs;
* ``mtl_group`` and ``mtl_leaf`` are the NumPy lines of
  :meth:`repro.exma.mtl_index.MTLIndex.predict_many` around its shared
  nodes' forward passes (:func:`repro.exma.mtl_index._group_spec`, a
  stable argsort by bucket and the feature rows, and
  :func:`repro.exma.mtl_index._leaf_spec`, the leaves in float64, the
  rounding, clip and scatter).  The forward passes stay in NumPy, on
  the spec's exact slices, because OpenBLAS's bits depend on a
  product's shape;
* ``occ_ranks`` is :meth:`repro.exma.table.ExmaTable._occ_spec` as a
  merge walk from each answer to the next in key order;
* ``lockstep`` is :func:`repro.engine.backends._lockstep_spec`, every
  step of a search batch in one call: it starts each query at its
  partial-chunk tail from the table's per-k-mer counts and sentinel
  prefixes, packs its k-mer chunks from the batch's codes and lengths (a
  :class:`~repro.genome.alphabet.QueryBatch`'s columns), ranks them by
  ``occ_ranks``' walk, and returns each query's tail code;
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

__all__ = ["KERNELS", "cam_schedule", "dram_channels", "loaded_kernels", "lockstep", "lru_hits",
           "mtl_group", "mtl_leaf", "occ_ranks", "replay_trace", "sigmoid", "sigmoid_backward"]

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
       bus's free cycle throughout) and the address bus's free cycle.  A power
       of two of channels is a mask (the floored % for every int64) and of bus
       bytes a shift (nbytes >= 1). */
    int channel_pow2 = !(channels & (channels - 1));
    int bus_pow2 = !(bus_bytes & (bus_bytes - 1)), bus_shift = __builtin_ctzll(bus_bytes);
    for (int64_t i = 0; i < count; ++i) {
        int64_t row = rows[i], channel = channel_pow2 ? row & (channels - 1) : row % channels;
        int64_t slot = row % bank_count;
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
        int64_t burst = (bus_pow2 ? (nbytes[i] - 1) >> bus_shift : (nbytes[i] - 1) / bus_bytes) + 1;
        int64_t data_start = issue + latency;
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
    int64_t increment_offset, double chain_ratio, int64_t capacity, int64_t *out) {
    /* The issue-order trace: per CAM batch its stage-1 base misses, then per
       stage-2 slot its bucket and leaf misses and its increment chunks, cut by
       min(remaining, room in row, CHUNK_CAP).  `out` holds the rows, sizes and
       streams, `capacity` each, then `capacity` keep-open bytes; the trace's
       length is returned.  -1 at a
       negative address, a fetch range whose double steps leave (-2^61, 2^61),
       a trace longer than `capacity`, or modelled slots that are not
       ascending slots. */
    int pow2 = !(row_bytes & (row_bytes - 1)), shift = __builtin_ctzll(row_bytes);
    int64_t *rows = out, *sizes = out + capacity, *streams = out + 2 * capacity, n = 0, m = 0;
    uint8_t *keep = (uint8_t *)(out + 3 * capacity);
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
    const int64_t *counts, const uint8_t *sentinels, int64_t sentinel_count,
    const int64_t *increments, const int64_t *starts, int64_t kmer_count, int64_t total,
    int64_t max_pos, int64_t *out) {
    /* Every lockstep step of a batch; returns the steps run, -1 at a code
       outside 1..4 or a k-mer or position out of range, -2 when the lengths
       (none negative) do not sum to code_count.  `codes` holds the queries
       back to back.  A query of t = lengths[i] % k > 0 starts at its tail,
       its last t codes packed as p: the k-mers p << 2(k - t) up to
       (p + 1) << 2(k - t) (their `starts`, `total` past the last), plus the
       `sentinels` rows (k codes each, $ = 0) whose first t codes sort
       below the tail and those equal to it; any other query starts at
       (lows[i], highs[i]).  Step s packs chunk s of query i, the k codes
       ending s * k + t before its end, 2 bits a code.  `out` holds, in
       order: the bounds (lows, then highs), the steps' unique keys and
       their Occ (2 * queries * max_steps each), the step offsets into them
       (max_steps + 1), each step's issued and distinct-k-mer counts
       (max_steps each), each query's tail code (p | 1 << 2t, 0 without a
       tail), then scratch: the sort's (8 * queries) and each query's chunk
       count and end of its first chunk (queries each).  A query issues
       while it has a chunk left and a non-empty interval. */
    int64_t span = max_pos + 1, capacity = 2 * queries * max_steps, key_bytes = 1;
    int64_t *bounds = out, *keys = bounds + 2 * queries, *occ = keys + capacity;
    int64_t *offsets = occ + capacity, *issued = offsets + max_steps + 1;
    int64_t *distinct = issued + max_steps, *tails = distinct + max_steps;
    int64_t *sort_keys = tails + queries, *sort_slots = sort_keys + 2 * queries;
    int64_t *spare = sort_slots + 2 * queries, *chunks = spare + 4 * queries;
    int64_t *ends = chunks + queries, end = 0, s = 0;
    while (key_bytes < 8 && (kmer_count * span - 1) >> (8 * key_bytes)) ++key_bytes;
    for (int64_t i = 0; i < queries; ++i) {
        if (lengths[i] < 0) return -2;
        end += lengths[i];
        chunks[i] = lengths[i] / k, ends[i] = end - lengths[i] % k;
    }
    if (end != code_count) return -2;
    for (int64_t i = 0; i < queries; ++i) {
        int64_t t = lengths[i] % k, packed = 0, below = 0, inside = 0, first, last;
        const uint8_t *tail = codes + ends[i];
        bounds[i] = lows[i], bounds[queries + i] = highs[i], tails[i] = 0;
        if (!t) continue;
        for (int64_t j = 0; j < t; ++j) {
            uint8_t digit = tail[j] - 1;
            if (digit > 3) return -1;
            packed = packed << 2 | digit;
        }
        first = packed << 2 * (k - t), last = (packed + 1) << 2 * (k - t);
        if (last > kmer_count) return -1;
        for (int64_t r = 0; r < sentinel_count; ++r) {
            const uint8_t *prefix = sentinels + r * k;
            int order = 0;
            for (int64_t j = 0; j < t && !order; ++j)
                order = (prefix[j] > tail[j]) - (prefix[j] < tail[j]);
            below += order < 0, inside += order == 0;
        }
        bounds[i] = starts[first] + below;
        bounds[queries + i] = (last < kmer_count ? starts[last] : total) - starts[first]
            + bounds[i] + inside;
        tails[i] = packed | (int64_t)1 << 2 * t;
    }
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
int64_t cam_keys(int64_t count, int64_t cam_entries, int64_t two_stage, const int64_t *kmers,
    const int64_t *positions, const int64_t *grouped, int64_t *out) {
    /* The CAM schedule's first pass over `out` (see cam_stage2).  Stage 1 is
       `grouped`, or with NULL the arrival order, written (two-stage) to
       out[count, 2 count).  Two-stage, out[0, count) gets each stage-1
       slot's stage-2 sort key ((batch * span + pos) << bits) | slot, span the
       largest position + 1.  Returns 1; 0 where `grouped` is NULL and a CAM
       batch's k-mers do not ascend (its stable k-mer sort is the caller's);
       -1 at a negative k-mer or position, or a batch * (k-mer or key) bound
       past int64. */
    int64_t max_kmer = 0, max_pos = 0, ascend = 1, bits = 0, batches = 0, bound;
    for (int64_t start = 0; start < count; start += cam_entries, ++batches) {
        int64_t end = count - start < cam_entries ? count : start + cam_entries;
        for (int64_t i = start; i < end; ++i) {
            if (kmers[i] < 0 || positions[i] < 0) return -1;
            if (kmers[i] > max_kmer) max_kmer = kmers[i];
            if (positions[i] > max_pos) max_pos = positions[i];
            if (i > start && kmers[i] < kmers[i - 1]) ascend = 0;
        }
    }
    while (bits < 62 && (int64_t)1 << bits < cam_entries) ++bits;
    if (bits == 62 || __builtin_add_overflow(max_kmer, 1, &bound)
        || __builtin_mul_overflow(batches, bound, &bound)) return -1;
    if (two_stage && (__builtin_add_overflow(max_pos, 1, &bound)
        || __builtin_mul_overflow(batches, bound, &bound)
        || __builtin_mul_overflow(bound, (int64_t)1 << bits, &bound))) return -1;
    if (!grouped && !ascend) return 0;
    int64_t *stage1 = out + count;
    if (two_stage && !grouped)
        for (int64_t i = 0; i < count; ++i) stage1[i] = i;
    if (two_stage) {
        const int64_t *order = grouped ? grouped : stage1;
        for (int64_t start = 0, base = 0; start < count; start += cam_entries, base += max_pos + 1) {
            int64_t end = count - start < cam_entries ? count : start + cam_entries;
            for (int64_t i = start; i < end; ++i)
                out[i] = (base + positions[order[i]]) << bits | (i - start);
        }
    }
    return 1;
}
void cam_stage2(int64_t count, int64_t cam_entries, int64_t two_stage, const int64_t *kmers,
    const int64_t *grouped, int64_t *out) {
    /* `out` holds stage 2 (two-stage: its sorted keys, replaced in place;
       FR-FCFS: the arrival order, written here), stage 1 (as cam_keys left
       it), scratch (count) and the keep-open bytes.  A request's hint is 0
       only where it is its (batch, k-mer) run's last in stage 2; the runs
       are read off `grouped` (NULL: the arrival order), whose batches hold
       their equal k-mers together. */
    int64_t *stage2 = out, *stage2_slot = out + 2 * count, mask = 1;
    const int64_t *stage1 = grouped ? grouped : out + count;
    uint8_t *keep = (uint8_t *)(out + 3 * count);
    while (mask < cam_entries) mask <<= 1;
    --mask;
    for (int64_t start = 0; start < count; start += cam_entries) {
        int64_t end = count - start < cam_entries ? count : start + cam_entries;
        for (int64_t j = start; j < end; ++j) {
            keep[j] = 1;
            if (!two_stage) stage2[j] = j;
            else {
                int64_t slot = start + (stage2[j] & mask);
                stage2_slot[slot] = j, stage2[j] = stage1[slot];
            }
        }
        for (int64_t i = start, last = -1; i < end; ++i) {
            /* two-stage: the stage-2 slot of stage-1 slot i; FR-FCFS: of the
               request at grouped slot i, its arrival slot. */
            int64_t at = two_stage ? stage2_slot[i] : grouped ? grouped[i] : i;
            int64_t kmer = kmers[grouped ? grouped[i] : i];
            if (i == start || kmer != kmers[grouped ? grouped[i - 1] : i - 1]) {
                if (last >= 0) keep[last] = 0;
                last = at;
            } else if (at > last) last = at;
            if (i == end - 1) keep[last] = 0;
        }
    }
}
int64_t mtl_group(int64_t count, const int64_t *kmers, const int64_t *positions,
    const int8_t *buckets, const int64_t *frequencies, int64_t kmer_count, int64_t n,
    int64_t *out) {
    /* predict_many's grouping: a stable counting sort of the requests by
       bucket.  `out` gets the (pos / n, count / n) feature rows in grouped
       order (2 * count doubles), the grouped order (count), then per group
       its bucket and end.  Returns the group count; -1 at an unmodelled
       k-mer (bucket < 0), -2 at a k-mer outside [0, kmer_count). */
    double *features = (double *)out;
    int64_t *order = out + 2 * count, *groups = order + count, at[128] = {0}, g = 0, end = 0;
    int unmodelled = 0;
    for (int64_t i = 0; i < count; ++i) {
        if ((uint64_t)kmers[i] >= (uint64_t)kmer_count) return -2;
        int8_t bucket = buckets[kmers[i]];
        if (bucket < 0) unmodelled = 1;
        else ++at[bucket];
    }
    if (unmodelled) return -1;
    for (int64_t bucket = 0; bucket < 128; ++bucket) {
        if (!at[bucket]) continue;
        end += at[bucket], at[bucket] = end - at[bucket];
        groups[2 * g] = bucket, groups[2 * g++ + 1] = end;
    }
    for (int64_t i = 0; i < count; ++i) {
        int64_t j = at[buckets[kmers[i]]]++;
        order[j] = i;
        features[2 * j] = (double)positions[i] / (double)n;
        features[2 * j + 1] = (double)frequencies[kmers[i]] / (double)n;
    }
    return g;
}
int64_t mtl_leaf(int64_t count, const int64_t *order, const int64_t *kmers,
    const double *shared, const double *weights, const double *biases,
    const int64_t *frequencies, int64_t kmer_count, int64_t *result) {
    /* The leaves in NumPy's float64 steps, (w * s + b) * count, rint (half to
       even: adding and removing 2^52 under the default rounding), then
       min(count - 1), max(0), scattered to request order.  0 at a NaN, which
       the spec's cast turns into an undefined value, or at an order entry or
       k-mer out of range. */
    for (int64_t j = 0; j < count; ++j) {
        int64_t i = order[j], kmer;
        if ((uint64_t)i >= (uint64_t)count) return 0;
        kmer = kmers[i];
        if ((uint64_t)kmer >= (uint64_t)kmer_count) return 0;
        double raw = (weights[kmer] * shared[j] + biases[kmer]) * (double)frequencies[kmer];
        double top = (double)(frequencies[kmer] - 1);
        if (raw != raw) return 0;
        if (raw > 0 && raw < 0x1p52) raw = (raw + 0x1p52) - 0x1p52;
        else if (raw < 0 && raw > -0x1p52) raw = (raw - 0x1p52) + 0x1p52;
        if (raw > top) raw = top;
        result[i] = raw < 0 ? 0 : (int64_t)raw;
    }
    return 1;
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
            _INT64, _POINTER),
           "repro.accel.exma_accelerator._assemble_trace"),
    Kernel("occ_ranks", _INT64, (_INT64, *[_POINTER] * 4, *[_INT64] * 3, _POINTER),
           "repro.exma.table.ExmaTable._occ_spec"),
    Kernel("lockstep", _INT64,
           (*[_INT64] * 4, *[_POINTER] * 6, _INT64, *[_POINTER] * 2, *[_INT64] * 3, _POINTER),
           "repro.engine.backends._lockstep_spec"),
    Kernel("cam_keys", _INT64, (*[_INT64] * 3, *[_POINTER] * 4), "repro.hw.scheduler._schedule_spec"),
    Kernel("cam_stage2", None, (*[_INT64] * 3, *[_POINTER] * 3),
           "repro.hw.scheduler._schedule_spec"),
    Kernel("mtl_group", _INT64, (_INT64, *[_POINTER] * 4, *[_INT64] * 2, _POINTER),
           "repro.exma.mtl_index._group_spec"),
    Kernel("mtl_leaf", _INT64, (_INT64, *[_POINTER] * 6, _INT64, _POINTER),
           "repro.exma.mtl_index._leaf_spec"),
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
    # Three int64 columns, then the keep-open bytes: one buffer, one pointer.
    out = np.empty(3 * capacity + -(-capacity // 8), dtype=np.int64)
    length = library.replay_trace(
        count, cam_entries, ints[0].ctypes.data, flags[0].ctypes.data, modelled,
        ints[1].ctypes.data, ints[2].ctypes.data, flags[1].ctypes.data, ints[3].ctypes.data,
        ints[4].ctypes.data, flags[2].ctypes.data, row_bytes, increment_offset, chain_ratio,
        capacity, out.ctypes.data,
    )
    if length < 0:
        return None
    columns = out[: 3 * capacity].reshape(3, capacity)[:, :length]
    return columns[0], columns[1], out[3 * capacity :].view(bool)[:length], columns[2]


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


def lockstep(lengths, codes, k: int, lows, highs, counts, sentinels, increments, starts,
             max_pos: int):
    """:func:`repro.engine.backends._lockstep_spec` compiled, every step in
    one pass that resolves each query's tail and packs each chunk from
    *codes*, with the same outputs; ``None`` where it declines (disabled,
    unavailable, a *k* outside ``[1, 31]``, keys that could pass int64,
    or a code, k-mer or position out of range: found by the pass
    itself).  *sentinels* is :attr:`repro.exma.table.ExmaTable
    .sentinel_codes`.  The inputs are left as they were; columns that
    disagree in length raise ``ValueError``."""
    library = _loaded()
    if library is None or not 0 < k < 32 or starts.size * (max_pos + 1) >= INT64_END:
        return None
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    sentinels = np.ascontiguousarray(sentinels, dtype=np.uint8)
    columns = [np.ascontiguousarray(c, dtype=np.int64) for c in (lengths, lows, highs, counts)]
    tables = [np.ascontiguousarray(c, dtype=np.int64) for c in (increments, starts)]
    queries = columns[0].size
    if (
        any(c.size != queries for c in columns[1:3]) or columns[3].size != tables[1].size
        or sentinels.ndim != 2 or sentinels.shape[1] != k
    ):
        raise ValueError("lockstep columns differ in length")
    max_steps = int(columns[0].max(initial=0)) // k
    capacity = 2 * queries * max_steps
    # Where C's outputs begin in `out`: keys, Occ, offsets, issued,
    # distinct, tails.
    keys_at = 2 * queries
    occ_at = keys_at + capacity
    offsets_at = occ_at + capacity
    issued_at = offsets_at + max_steps + 1
    distinct_at = issued_at + max_steps
    tails_at = distinct_at + max_steps
    out = np.empty(tails_at + 11 * queries, dtype=np.int64)
    ran = library.lockstep(
        queries, max_steps, k, codes.size, codes.ctypes.data, *(c.ctypes.data for c in columns),
        sentinels.ctypes.data, len(sentinels), *(c.ctypes.data for c in tables),
        tables[1].size, tables[0].size, max_pos, out.ctypes.data,
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
        out[distinct_at : distinct_at + ran], out[tails_at : tails_at + queries],
    )


def cam_schedule(kmers, positions, cam_entries: int, two_stage: bool, group):
    """:func:`repro.hw.scheduler.scheduled_orders` compiled: the stage-1 and
    stage-2 orders and the keep-open hints, ``None`` where it declines
    (disabled, unavailable, a CAM size below 1, or a negative k-mer or
    position or keys that could pass int64: found by the pass itself, and
    the spec raises on the last).  Stage 1 is the arrival order where each
    CAM batch's k-mers ascend (every window flush), else ``group(kmers,
    cam_entries)``, the stable per-batch k-mer sort.  Stage 2 is one
    ``np.sort`` of the keys a C pass writes; a second pass reads it and the
    hints off the k-mer runs.  Columns that disagree in length raise
    ``ValueError``."""
    library = _loaded()
    if library is None or cam_entries < 1:
        return None
    kmers, positions = (np.ascontiguousarray(c, dtype=np.int64) for c in (kmers, positions))
    count = kmers.size
    if positions.size != count:
        raise ValueError("kmers and positions differ in length")
    # Stage 2 (its sort keys first), stage 1, scratch, the hints' bytes.
    out = np.empty(3 * count + -(-count // 8), dtype=np.int64)
    address, kmers_at = out.ctypes.data, kmers.ctypes.data
    columns = (count, cam_entries, two_stage, kmers_at, positions.ctypes.data)
    grouped = None
    ran = library.cam_keys(*columns, None, address)
    if ran == 0:
        grouped = np.ascontiguousarray(group(kmers, cam_entries), dtype=np.int64)
        ran = library.cam_keys(*columns, grouped.ctypes.data, address)
    if ran < 0:
        return None
    stage2 = out[:count]
    if two_stage:
        stage2.sort()
    library.cam_stage2(
        count, cam_entries, two_stage, kmers_at, None if grouped is None else grouped.ctypes.data,
        address,
    )
    keep = out[3 * count :].view(bool)[:count]
    if not two_stage:
        return stage2, stage2, keep
    return out[count : 2 * count] if grouped is None else grouped, stage2, keep


#: predict_many's refusal of an unmodelled k-mer, on both paths.
UNMODELLED = (
    "predict_many needs every k-mer modelled; separate the unmodelled ones with "
    "modelled_lookup first"
)


def mtl_group(kmers, positions, buckets, frequencies, n: int):
    """``MTLIndex.predict_many``'s grouping compiled, the spec's outputs:
    the ``(pos / n, count / n)`` feature rows in grouped order, that order,
    and each shared node's ``(bucket, start, stop)``; ``None`` where it
    declines (disabled, unavailable, buckets not int8 ids, an *n* below 1,
    or a k-mer out of range: found by the pass itself).  An unmodelled
    k-mer raises ``ValueError``, as the spec does; so do columns that
    disagree in length."""
    library = _loaded()
    buckets = np.ascontiguousarray(buckets)
    if library is None or n < 1 or buckets.dtype != np.int8 or np.size(frequencies) != buckets.size:
        return None
    kmers, positions, frequencies = (
        np.ascontiguousarray(c, dtype=np.int64) for c in (kmers, positions, frequencies)
    )
    count = kmers.size
    if positions.size != count:
        raise ValueError("kmers and positions differ in length")
    # The feature rows (as doubles), the order, then each group's bucket and
    # end: at most 128, the non-negative int8 ids.
    out = np.empty(3 * count + 2 * 128, dtype=np.int64)
    groups = library.mtl_group(
        count, kmers.ctypes.data, positions.ctypes.data, buckets.ctypes.data,
        frequencies.ctypes.data, buckets.size, n, out.ctypes.data,
    )
    if groups == -1:
        raise ValueError(UNMODELLED)
    if groups < 0:
        return None
    ends = out[3 * count : 3 * count + 2 * groups].tolist()
    starts = [0, *ends[1:-1:2]]
    features = out[: 2 * count].view(np.float64).reshape(count, 2)
    return features, out[2 * count : 3 * count], list(zip(ends[0::2], starts, ends[1::2]))


def mtl_leaf(kmers, order, shared_output, weights, biases, frequencies):
    """``MTLIndex.predict_many``'s leaves compiled: per request the clipped,
    rounded ``(w · s + b) · count``, in request order; ``None`` where it
    declines (disabled, unavailable, or a NaN, an *order* entry or k-mer out
    of range: found by the pass itself).  *kmers* are in request order,
    *order* and *shared_output* in :func:`mtl_group`'s; columns that
    disagree in length raise ``ValueError``."""
    library = _loaded()
    if library is None:
        return None
    kmers, order, frequencies = (
        np.ascontiguousarray(c, dtype=np.int64) for c in (kmers, order, frequencies)
    )
    doubles = [np.ascontiguousarray(c, dtype=np.float64) for c in (shared_output, weights, biases)]
    count = kmers.size
    if order.size != count or doubles[0].size != count or not (
        doubles[1].size == doubles[2].size == frequencies.size
    ):
        raise ValueError("leaf columns differ in length")
    result = np.empty(count, dtype=np.int64)
    done = library.mtl_leaf(
        count, order.ctypes.data, kmers.ctypes.data, *(c.ctypes.data for c in doubles),
        frequencies.ctypes.data, frequencies.size, result.ctypes.data,
    )
    return result if done else None


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
