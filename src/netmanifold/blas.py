"""Hold numpy's OpenBLAS at one thread where thread count changes results.

Dense LAPACK eigensolvers are not bit-stable across BLAS thread counts, and
replicate worker threads multiply with BLAS threads. The helpers reach the
OpenBLAS that numpy has already loaded through ctypes: they load no library,
and where no OpenBLAS is mapped they do nothing.
"""

import contextlib
import ctypes
import functools
import os


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the mapped numpy OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def thread_count():
    """numpy's current OpenBLAS thread count, or None when none is loaded."""
    lib = _openblas()
    return None if lib is None else lib[0]()


@contextlib.contextmanager
def single_thread():
    """Hold numpy's OpenBLAS at one thread; restore the previous count on exit.

    A no-op without OpenBLAS or when the count is already 1, so nested use,
    and use inside a pool that already holds one thread, never sets it.
    """
    previous = thread_count()
    if previous in (None, 1):
        yield
        return
    _, put = _openblas()
    put(1)
    try:
        yield
    finally:
        put(previous)
