"""The OpenBLAS thread count of this process, read and set through ctypes.

numpy links OpenBLAS but exposes none of its thread-pool controls.  The
library is found by scanning ``/proc/self/maps`` for a loaded
``*openblas*.so``, and each function under the names numpy's builds
export it as (the ``scipy_openblas`` prefix of the wheels, the ``64_``
suffix of the 64-bit-integer interface).  Without such a library or
symbol (another BLAS, no ``/proc``) :func:`num_threads` returns ``None``
and :func:`set_num_threads` does nothing.
"""

from __future__ import annotations

import ctypes

__all__ = ["num_threads", "set_num_threads"]


def _openblas_function(name: str):
    """``name`` from the first loaded OpenBLAS that exports it, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            func = getattr(handle, symbol, None)
            if func is not None:
                return func
    return None


def num_threads() -> int | None:
    """Threads the loaded OpenBLAS runs, or None without OpenBLAS."""
    func = _openblas_function("get_num_threads")
    if func is None:
        return None
    func.argtypes = []
    func.restype = ctypes.c_int
    return int(func())


def set_num_threads(count: int) -> None:
    """Run the loaded OpenBLAS on ``count`` threads (no-op without it)."""
    func = _openblas_function("set_num_threads")
    if func is None:
        return
    func.argtypes = [ctypes.c_int]
    func.restype = None
    func(int(count))
