"""The compiled kernels: one C library built on first use, called via ctypes.

:data:`SOURCE` holds the C twins of three specifications, each the same
operations in the same order as its Python or NumPy original:

* ``lru_hits`` is :func:`repro.hw.cache.simulate_lru_hits`: each set's
  tags in recency order, an O(ways) scan per access;
* ``dram_channel`` is :meth:`repro.hw.dram.DRAMModel.process` over one
  channel's columns, every counter in one int64 pass;
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

import numpy as np

from .runtime import PURE_PYTHON_ENV, env_flag

__all__ = ["dram_channel", "kernel_active", "lru_hits", "sigmoid", "sigmoid_backward"]

SOURCE = r"""
#include <stdint.h>
void lru_hits(int64_t count, const int64_t *addresses, int64_t line_bytes, int64_t set_count,
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
void dram_channel(int64_t count, const int64_t *rows, const int64_t *nbytes,
    const uint8_t *keep_open, const int64_t *streams, int64_t bank_count, int64_t tcas,
    int64_t trcd, int64_t trp, int64_t bus_bytes, int64_t close_mode, int64_t *banks,
    int64_t *stream_ready, int64_t *stats) {
    /* banks: (ready, open, row) each; stats: DRAMStats' ints after `requests`. */
    int64_t addr_bus_free = 0, data_bus_free = 0;
    for (int64_t i = 0; i < count; ++i) {
        int64_t slot = rows[i] % bank_count;  /* floored below, as Python's % */
        int64_t *bank = banks + 3 * (slot < 0 ? slot + bank_count : slot);
        int64_t issue = bank[0], pending = stream_ready[streams[i]], commands = 1, latency = tcas;
        if (pending > issue) issue = pending;
        if (!bank[1]) commands = 2, latency += trcd, ++stats[1];
        else if (bank[2] == rows[i]) ++stats[0];
        else commands = 3, latency += trp + trcd, ++stats[2], ++stats[4];
        if (addr_bus_free > issue) issue = addr_bus_free;
        addr_bus_free = issue + commands;
        int64_t burst = (nbytes[i] - 1) / bus_bytes + 1, data_start = issue + latency;
        if (data_bus_free > data_start) data_start = data_bus_free;
        data_bus_free = data_start + burst;
        stats[5] += nbytes[i], stats[6] += burst, stats[7] += commands;
        int close = close_mode == 2 ? !keep_open[i] : (int)close_mode;
        bank[0] = data_bus_free + (close ? trp : 0), bank[1] = !close, bank[2] = rows[i];
        stats[4] += close, stream_ready[streams[i]] = data_bus_free;
    }
    stats[3] = stats[1] + stats[2], stats[8] = data_bus_free;
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
_POINTER = ctypes.c_void_p
_SIGNATURES = {
    "lru_hits": (None, [_INT64, _POINTER, _INT64, _INT64, _POINTER, _INT64, _POINTER, _POINTER]),
    "dram_channel": (None, [_INT64] + [_POINTER] * 4 + [_INT64] * 6 + [_POINTER] * 3),
    "sigmoid_in": (None, [_INT64, _INT64, _POINTER, _POINTER]),
    "sigmoid_out": (None, [_INT64, _POINTER]),
    "sigmoid_backward": (None, [_INT64, _INT64] + [_POINTER] * 5),
}


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
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(library, name)
        function.restype = restype
        function.argtypes = argtypes
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


def kernel_active() -> bool:
    """Whether the compiled library is loaded in this process."""
    return _loaded() is not None


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


def dram_channel(
    rows, nbytes, keep_open, streams, banks: int, timings, bus_bytes: int, close_mode: int
):
    """``DRAMModel.process`` over one channel's columns, compiled: the
    ``DRAMStats`` counters from ``row_hits`` to ``total_cycles``, or
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
    if min(banks, bus_bytes, nbytes.min(), streams.min() + 1) <= 0 or count * peak >= INT64_END:
        return None
    state = [np.zeros(size, dtype=np.int64) for size in (3 * banks, streams.max() + 1, 9)]
    library.dram_channel(
        count, *(c.ctypes.data for c in columns), banks, *timings, bus_bytes, close_mode,
        *(a.ctypes.data for a in state),
    )
    return state[2].tolist()


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
