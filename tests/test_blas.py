import contextlib
import random
import sys
import threading
import time

import pytest

from netmanifold import blas


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
    """With spread, 20 items run on as many worker threads as BLAS threads were
    set (two) and come back in order; every call reads one BLAS thread and
    each thread makes its buffer once. Without spread, or inside a pin, they
    run inline on the caller's thread."""
    calls = []

    def square(item, buffer):
        buffer.append(item)
        calls.append((threading.get_ident(), blas.thread_count(), id(buffer)))
        time.sleep(1e-3)
        return item * item

    expected = [item * item for item in range(20)]
    assert blas.map_pinned(square, range(20), True, list) == expected
    workers = {ident for ident, _, _ in calls}
    assert threading.get_ident() not in workers and len(workers) <= 2
    assert {count for _, count, _ in calls} == {1}
    assert len({buffer for _, _, buffer in calls}) == len(workers)
    for spread, pinned in [(False, False), (True, True)]:
        calls.clear()
        with blas.single_thread() if pinned else contextlib.nullcontext():
            assert blas.map_pinned(square, range(20), spread, list) == expected
        assert {(ident, count) for ident, count, _ in calls} == {(threading.get_ident(), 1)}
    assert blas.thread_count() == 2


def test_map_pinned_keeps_each_buffer_to_its_thread(two_blas_threads):
    """With BLAS set to 8 threads on fewer cores, 8 workers share 400 items
    under a 1 us switch interval. Each call writes its item into its thread's
    buffer, yields, and reads it back: a buffer shared between two threads
    would show the other's item. Results come back in order, and the count is
    restored after the pin."""
    for _, put in two_blas_threads:
        put(8)

    def echo(item, buffer):
        buffer[0] = item
        time.sleep(0)
        return buffer[0], blas.thread_count()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = blas.map_pinned(echo, range(400), True, lambda: [None])
    finally:
        sys.setswitchinterval(interval)
    assert results == [(item, 1) for item in range(400)]
    assert blas.thread_count() == 8
