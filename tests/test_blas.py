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
