"""The DRAM bus recurrence compiled from C on first use, called via ctypes.

:data:`SOURCE` is :func:`repro.hw.dram._bus_recurrence`, the specification
and fallback, in C: the same int64 arithmetic in the same order.  It is
built by ``cc`` on first use into a private per-user cache keyed on the
source, ``cc --version`` and the flags.  ``ctypes.PyDLL`` keeps the GIL:
at a few ns a request releasing it buys nothing, and held it keeps other
threads off the buffers C reads.  A failed build warns once and runs the
Python loop, as does ``REPRO_PURE_PYTHON=1``.
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

from ..runtime import PURE_PYTHON_ENV, env_flag

__all__ = ["bus_recurrence", "kernel_active"]

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
"""
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")
#: Private to the user: never the source tree, never a shared ``/tmp``.
CACHE_DIR = pathlib.Path.home() / ".cache" / "repro-exma"
INT64_END = 2**63

_UNRESOLVED = object()
_kernel: object = _UNRESOLVED
_lock = threading.Lock()


def _build():
    """Compile (unless cached) and load the kernel; raises on failure."""
    run = dict(capture_output=True, text=True, timeout=120, check=True)
    version = subprocess.run([COMPILER, "--version"], **run).stdout
    key = hashlib.sha256("\0".join((SOURCE, version, *FLAGS)).encode()).hexdigest()
    CACHE_DIR.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = CACHE_DIR.stat()
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise OSError(f"{CACHE_DIR} is not private to this user")
    library = CACHE_DIR / f"bus_recurrence-{key[:16]}.so"
    if not library.exists():
        # Unique name, then rename: a racing process sees none or a whole one.
        handle, partial = tempfile.mkstemp(suffix=".so", dir=CACHE_DIR)
        os.close(handle)
        try:
            subprocess.run([COMPILER, *FLAGS, "-o", partial, "-x", "c", "-"], input=SOURCE, **run)
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    kernel = ctypes.PyDLL(str(library)).bus_recurrence
    kernel.restype = ctypes.c_int64
    kernel.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 8
    return kernel


def _resolve():
    """The loaded kernel, or ``None`` when disabled or unavailable."""
    global _kernel
    with _lock:
        if _kernel is _UNRESOLVED:
            kernel = None
            if not env_flag(PURE_PYTHON_ENV):
                try:
                    kernel = _build()
                except (AttributeError, OSError, subprocess.SubprocessError) as error:
                    message = f"compiled DRAM recurrence unavailable ({error}); running Python"
                    warnings.warn(message, RuntimeWarning, stacklevel=3)
            _kernel = kernel
    return _kernel


def kernel_active() -> bool:
    """Whether :func:`bus_recurrence` runs compiled code in this process."""
    return _resolve() is not None


def bus_recurrence(
    banks, streams, commands, latencies, bursts, bumps, bank_count: int, stream_count: int
) -> int | None:
    """``_bus_recurrence`` run compiled, or ``None`` (disabled, unavailable,
    an index outside its ready array, or a cycle that could pass int64:
    none exceeds the positive cost entries' sum, at most ``count * Σ
    peaks``) and the caller runs the loop."""
    kernel = _kernel if _kernel is not _UNRESOLVED else _resolve()
    if kernel is None:
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
    return kernel(count, *(array.ctypes.data for array in columns + ready))
