"""The compiled kernels: one C library built on first use, called via ctypes.

:data:`SOURCE` holds the C twins of two specifications, each the same
IEEE operations in the same order as its Python or NumPy original:

* ``bus_recurrence`` is :func:`repro.hw.dram._bus_recurrence`, the DRAM
  bus/bank/stream timing chain, in int64;
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

__all__ = ["bus_recurrence", "kernel_active", "sigmoid", "sigmoid_backward"]

SOURCE = r"""
#include <stdint.h>
int64_t bus_recurrence(int64_t count, const int64_t *banks, const int64_t *streams,
    const int64_t *commands, const int64_t *latencies, const int64_t *bursts,
    const int64_t *bumps, int64_t *bank_ready, int64_t *stream_ready) {
    int64_t addr_bus_free = 0, data_bus_free = 0;
    for (int64_t i = 0; i < count; ++i) {
        int64_t issue = bank_ready[banks[i]], pending = stream_ready[streams[i]];
        if (pending > issue) issue = pending;
        if (addr_bus_free > issue) issue = addr_bus_free;
        addr_bus_free = issue + commands[i];
        int64_t data_start = issue + latencies[i];
        if (data_bus_free > data_start) data_start = data_bus_free;
        int64_t data_end = data_start + bursts[i];
        data_bus_free = data_end;
        bank_ready[banks[i]] = data_end + bumps[i];
        stream_ready[streams[i]] = data_end;
    }
    return data_bus_free;
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

_UNRESOLVED = object()
_library: object = _UNRESOLVED
_lock = threading.Lock()

_INT64 = ctypes.c_int64
_POINTER = ctypes.c_void_p
_SIGNATURES = {
    "bus_recurrence": (_INT64, [_INT64] + [_POINTER] * 8),
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


def bus_recurrence(
    banks, streams, commands, latencies, bursts, bumps, bank_count: int, stream_count: int
) -> int | None:
    """``_bus_recurrence`` run compiled, or ``None`` (disabled, unavailable,
    an index outside its ready array, or a cycle that could pass int64:
    none exceeds the positive cost entries' sum, at most ``count * Σ
    peaks``) and the caller runs the loop."""
    library = _loaded()
    if library is None:
        return None
    columns = [
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (banks, streams, commands, latencies, bursts, bumps)
    ]
    count = columns[0].size
    if any(column.size != count for column in columns):
        raise ValueError("recurrence columns differ in length")
    if count and (
        count * sum(max(0, int(column.max())) for column in columns[2:]) >= INT64_END
        or min(columns[0].min(), columns[1].min()) < 0
        or columns[0].max() >= bank_count
        or columns[1].max() >= stream_count
    ):
        return None
    ready = [np.zeros(size, dtype=np.int64) for size in (bank_count, stream_count)]
    return library.bus_recurrence(count, *(array.ctypes.data for array in columns + ready))


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
