"""Hold every loaded OpenBLAS at one thread where thread count changes results.

Dense LAPACK eigensolvers, and matrix products from a few hundred rows up, are
not bit-stable across BLAS thread counts, and worker threads multiply with
BLAS threads. So map_pinned, the package's one worker pool, runs every call
pinned: replicates side by side, or one replicate's graphs spread where it
pays over as many worker threads as BLAS would have used. numpy and scipy each
bundle their own OpenBLAS (numpy's exports ``scipy_openblas_*64_``, scipy's
``scipy_openblas_*``), and a pin must hold both. The helpers reach the copies
already mapped into the process through ctypes: they load no library, and
where no OpenBLAS is mapped they do nothing. The same handles give eigen.py
its LAPACK routines (lapack64).
"""

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Thread-count entry points, "{}" standing for get or set, of numpy's and of
# scipy's OpenBLAS.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


@functools.cache
def _mapped():
    """ctypes handles of every OpenBLAS mapped into the process, in path order."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return ()
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of every mapped OpenBLAS, in path order."""
    libs = []
    for lib in _mapped():
        for symbol in _SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            put = getattr(lib, symbol.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                libs.append((get, put))
                break
    return tuple(libs)


@functools.cache
def lapack64(name, pointers, strings):
    """LAPACK routine `name` of numpy's OpenBLAS, or None where it is not mapped.

    numpy's copy exports the ILP64 interface as ``scipy_<name>_64_``: every
    integer is 64-bit. The ctypes function takes `pointers` addresses, then
    the Fortran hidden lengths of its `strings` character arguments, and
    releases the GIL while it runs.
    """
    for lib in _mapped():
        try:
            func = lib[f"scipy_{name}_64_"]
        except AttributeError:
            continue
        func.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * strings
        func.restype = None
        return func
    return None


def thread_count():
    """The largest thread count among the mapped OpenBLAS copies, or None."""
    libs = _openblas()
    return max(get() for get, _ in libs) if libs else None


# OpenBLAS thread counts are process-wide, so the pins on them are counted
# process-wide too: one thread's exit must not unpin another thread's eigh.
_lock = threading.Lock()
_pins = 0
_saved = ()


@contextlib.contextmanager
def single_thread():
    """Hold every mapped OpenBLAS at one thread while any thread is inside a pin.

    The first entry saves each library's count and sets 1; the last exit,
    exceptions included, restores them, so pins nest and overlap across
    threads. A no-op without OpenBLAS.
    """
    global _pins, _saved
    libs = _openblas()
    with _lock:
        if _pins == 0:
            _saved = tuple(get() for get, _ in libs)
            for (_, put), count in zip(libs, _saved):
                if count != 1:
                    put(1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                for (_, put), count in zip(libs, _saved):
                    if count != 1:
                        put(count)


def map_pinned(fn, items, workers):
    """[fn(item) for item in items], every call on one BLAS thread.

    With workers > 1 the calls run on that many worker threads, at most one
    per item, otherwise inline. Either way the results keep the items' order.
    """
    items = list(items)
    workers = min(workers, len(items))
    with single_thread():
        if workers < 2:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
