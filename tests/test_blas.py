import random
import sys
import threading
import time

import pytest

from netmanifold import blas, eigen, graphs


def test_overlapping_pins_hold_one_thread_until_the_last_exit(two_blas_threads):
    """8 threads pin, nest and unpin in random interleavings.

    Every read inside a pin must see one BLAS thread, however the other
    threads enter and leave theirs; the last exit restores two.
    """
    reads, errors = [], []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                with blas.single_thread():
                    reads.append(blas.thread_count())
                    if rng.random() < 0.3:
                        with blas.single_thread():
                            reads.append(blas.thread_count())
                    time.sleep(rng.random() * 1e-4)
                    reads.append(blas.thread_count())
                time.sleep(rng.random() * 1e-4)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(reads) >= 8 * 300 * 2
    assert set(reads) == {1}
    assert blas.thread_count() == 2


@pytest.mark.parametrize("low", [0, -1], ids=["first-at-1", "last-at-1"])
def test_pin_holds_and_restores_every_openblas(two_blas_threads, low):
    """numpy's and scipy's OpenBLAS both read 1 inside a pin; the last exit
    gives each its own saved count back."""
    saved = [2] * len(two_blas_threads)
    saved[low] = 1
    two_blas_threads[low][1](1)
    counts = lambda: [get() for get, _ in two_blas_threads]
    assert counts() == saved
    with blas.single_thread():
        with blas.single_thread():
            assert counts() == [1] * len(saved)
        assert counts() == [1] * len(saved)
    assert counts() == saved


def test_map_pinned_spreads_over_the_blas_threads(two_blas_threads):
    """With two workers, 20 items run on at most two worker threads and come
    back in order; every call reads one BLAS thread. With one worker, or one
    item, they run inline on the caller's thread, pinned too. Per-graph work
    spreads over as many workers as BLAS threads above SPREAD_MIN_N nodes, and
    over one inside a pin or at SPREAD_MIN_N."""
    calls = []

    def square(item):
        calls.append((threading.get_ident(), blas.thread_count()))
        time.sleep(1e-3)
        return item * item

    expected = [item * item for item in range(20)]
    assert blas.map_pinned(square, range(20), 2) == expected
    workers = {ident for ident, _ in calls}
    assert threading.get_ident() not in workers and len(workers) <= 2
    assert {count for _, count in calls} == {1}
    for items, width in [(range(20), 1), ([4], 2)]:
        calls.clear()
        assert blas.map_pinned(square, items, width) == [item * item for item in items]
        assert set(calls) == {(threading.get_ident(), 1)}
    assert blas.thread_count() == 2
    large = graphs.SPREAD_MIN_N + 2
    assert (graphs._spread_width(large), graphs._spread_width(large - 2)) == (2, 1)
    with blas.single_thread():
        assert graphs._spread_width(large) == 1


def test_map_pinned_keeps_each_buffer_to_its_thread(two_blas_threads):
    """With BLAS set to 8 threads on fewer cores, 8 workers share 400 items
    under a 1 us switch interval. Results come back in order, each call reads
    one BLAS thread, and the count is restored after the pin."""
    for _, put in two_blas_threads:
        put(8)

    def echo(item):
        time.sleep(0)
        return item, blas.thread_count()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = blas.map_pinned(echo, range(400), 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [(item, 1) for item in range(400)]
    assert blas.thread_count() == 8


@pytest.mark.skipif(not blas._mapped(), reason="no OpenBLAS mapped")
def test_every_lapack_routine_eigen_binds_resolves():
    """Where numpy's OpenBLAS is mapped, each routine eigen.py calls through
    ctypes resolves: a missing one would send every solve to the eigh
    fallback and move output bits while tolerance tests stay green."""
    assert list(eigen._ROUTINES) == [
        "dsytrd", "dstebz", "dstein", "dormtr", "dgeqrf", "dorgqr", "dsyevd",
    ]
    for name, arity in eigen._ROUTINES.items():
        assert blas.lapack64(name, *arity) is not None, name
    assert eigen._lapack() is not None
