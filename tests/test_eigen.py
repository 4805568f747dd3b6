"""The eigensolver module: signed order, ties, input checks, and its monopoly
on dense factorizations."""

import inspect
import os
import pathlib
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, lapack

from netmanifold import (
    ValidationError,
    blas,
    cmds_embed,
    localization_graph,
    sample_collection,
    shortest_path_matrix,
    smacof_minimize,
)
from netmanifold import eigen


def _centered_gram(l, top, seed):
    """A centered Gram whose spectrum leads with about -12 and then `top`: the
    most negative eigenvalue outweighs the top positive ones."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((l, l)))
    spectrum = np.concatenate([[-12.0], top, rng.uniform(-1.0, 1.0, l - 1 - len(top))])
    centering = np.eye(l) - 1.0 / l
    gram = centering @ ((q * spectrum) @ q.T) @ centering
    return (gram + gram.T) / 2.0


def _split_gram():
    """Two centered Grams side by side: the tridiagonal form splits, and the top
    two signed eigenpairs come from different blocks."""
    a = block_diag(_centered_gram(120, [8.0, 3.0], 3), _centered_gram(130, [6.0], 4))
    assert (lapack.dsytrd(a, lower=1)[2] == 0.0).any()
    return a


@pytest.mark.parametrize(
    "a",
    [
        _centered_gram(150, [8.0, 5.0], 1),
        _centered_gram(250, [8.0, 5.0], 2),
        _split_gram(),
    ],
    ids=["dense-l150", "partial-l250", "split-l250"],
)
def test_signed_order_agrees_with_eigh(a):
    """Signed top-k against np.linalg.eigh: the k+1 largest eigenvalues to 1e-12
    relative to |lambda|max, the sign-canonical top-k vectors to 1e-8."""
    k = 2
    eigvals, eigvecs = np.linalg.eigh(a)
    assert -eigvals[0] > eigvals[-1] > 0.0
    values, vectors, block = eigen.top_eigenpairs(a, k, signed=True)
    assert block is None
    scale = np.abs(eigvals).max()
    assert np.abs(values[: k + 1] - eigvals[::-1][: k + 1]).max() <= 1e-12 * scale
    expected = eigen.canonical_signs(eigvecs[:, ::-1][:, :k])
    assert np.abs(vectors - expected).max() <= 1e-8


def test_exact_top_ties_keep_the_eigh_pick():
    """A signed tie goes to the last column eigh returns, a modulus tie to the
    negative eigenvalue, as before both orders shared one solver."""
    a = np.diag([3.0, 1.0, 3.0, -3.0])
    _, eigvecs = np.linalg.eigh(a)
    last, other = eigen.canonical_signs(eigvecs[:, -1:]), eigvecs[:, -2:-1]
    assert not np.array_equal(last, eigen.canonical_signs(other))
    _, signed, _ = eigen.top_eigenpairs(a, 1, signed=True)
    assert np.array_equal(signed, last)
    with pytest.warns(RuntimeWarning, match="tied"):
        _, modulus, _ = eigen.top_eigenpairs(a, 1)
    assert np.array_equal(modulus, eigen.canonical_signs(eigvecs[:, :1]))


def test_cmds_above_dense_crossover_agrees_with_eigh():
    """Agreement bound of classical scaling's partial signed solve (l=300 > 200)
    against a full eigh: top eigenvalue to 1e-12 relative, the sign-fixed
    vector to 1e-8, and the SMACOF embeddings to 1e-8 relative to max|z|."""
    rng = np.random.default_rng(17)
    t = np.sort(rng.uniform(0.0, 3.0, 300))
    points = np.column_stack([np.cos(t), np.sin(t), 0.05 * rng.standard_normal(300)])
    delta = shortest_path_matrix(localization_graph(points, 0.3), 300)
    centering = np.eye(300) - np.ones((300, 300)) / 300
    gram = -0.5 * centering @ (delta * delta) @ centering
    eigvals, eigvecs = np.linalg.eigh(gram)
    reference = eigen.canonical_signs(eigvecs[:, -1:])[:, 0]
    values, vectors, _ = eigen.top_eigenpairs(gram, 1, signed=True)
    assert abs(values[0] - eigvals[-1]) <= 1e-12 * eigvals[-1]
    assert np.abs(vectors[:, 0] - reference).max() <= 1e-8
    z0 = np.sqrt(eigvals[-1]) * reference
    z, _ = smacof_minimize(delta, cmds_embed(delta))
    expected, _ = smacof_minimize(delta, z0 - z0.mean())
    assert np.abs(z - expected).max() <= 1e-8 * np.abs(expected).max()


@pytest.mark.parametrize(
    "solve, args",
    [
        (cmds_embed, (np.ones((2, 3)),)),
        (cmds_embed, (np.array(1.0),)),
        (cmds_embed, (np.zeros((0, 0)),)),
        (cmds_embed, (np.full((3, 3), np.nan),)),
    ],
    ids=["cmds-2x3", "cmds-0d", "cmds-empty", "cmds-nan"],
)
def test_eigen_entry_points_reject_bad_input(solve, args):
    with pytest.raises(ValidationError):
        solve(*args)


_FACTORIZATIONS = re.compile(r"linalg\.(eig\w*|svd)\b|\blapack\.")
_PINS = re.compile(r"\bsingle_thread\b")
_SCIPY_LAPACK = re.compile(r"scipy\.linalg\.lapack|from\s+scipy\.linalg\s+import[^\n]*\blapack\b")
_LIBRARY_LOADS = re.compile(r"\b(CDLL|PyDLL|cdll|LoadLibrary|dlopen)\b")
_THREAD_STARTS = re.compile(
    r"\b(ThreadPoolExecutor|ProcessPoolExecutor|Thread|Pool)\(|\bmultiprocessing\b"
)


def test_dense_factorizations_live_in_the_eigen_module():
    """Outside eigen.py no module calls an eigensolver, an SVD or LAPACK, and
    outside eigen.py and blas.py none pins BLAS. No module imports scipy's
    LAPACK wrappers, and only blas.py opens a shared library. Worker threads
    come from one pool alone, blas.map_pinned."""
    found, pins, lapack_imports, loaders, pools = [], [], [], set(), []
    for path in sorted(pathlib.Path(eigen.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "eigen.py":
            found += [(path.name, m.group(0)) for m in _FACTORIZATIONS.finditer(text)]
            if path.name != "blas.py":
                pins += [(path.name, m.group(0)) for m in _PINS.finditer(text)]
        lapack_imports += [(path.name, m.group(0)) for m in _SCIPY_LAPACK.finditer(text)]
        loaders |= {path.name for _ in _LIBRARY_LOADS.finditer(text)}
        pools += [(path.name, m.group(0)) for m in _THREAD_STARTS.finditer(text)]
    assert found == []
    assert pins == []
    assert lapack_imports == []
    assert loaders == {"blas.py"}
    assert pools == [("blas.py", "ThreadPoolExecutor(")]
    assert "ThreadPoolExecutor(" in inspect.getsource(blas.map_pinned)


@pytest.mark.parametrize("signed", [False, True], ids=["modulus", "signed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_solve_at_one_to_three_rows(monkeypatch, n, signed):
    """The partial solve answers at n = 1, 2 and 3, directly and through
    top_eigenpairs with its small-n crossover moved to 1: the k+1 eigenvalues
    to 1e-12 relative to |lambda|max and the top-k projector to 1e-12."""
    x = np.random.default_rng(n).standard_normal((n, n))
    a = x + x.T
    k = max(n - 1, 1)
    m = min(k + 1, n)
    scale = np.abs(np.linalg.eigvalsh(a)).max()
    dense_values, dense_vectors = eigen._dense_eigenpairs(a, k, signed)
    values, vectors = eigen._partial_eigenpairs(a, k, signed)
    assert n < eigen.PARTIAL_MIN_N
    expected = eigen.top_eigenpairs(a, k, signed)
    monkeypatch.setattr(eigen, "PARTIAL_MIN_N", 1)
    routed = eigen.top_eigenpairs(a, k, signed)
    assert values.shape == (m,) and vectors.shape == (n, k)
    for got, basis in [(values, vectors), routed[:2]]:
        assert np.abs(got[:m] - dense_values[:m]).max() <= 1e-12 * scale
        gap = np.abs(basis @ basis.T - dense_vectors @ dense_vectors.T).max()
        assert gap <= 1e-12
    assert np.abs(routed[1] - expected[1]).max() <= 1e-12


@pytest.mark.parametrize(
    "n, t, variant", [(64, 1.8, "curve-B"), (200, 1.5, "curve-A")], ids=["n64", "n200"]
)
def test_modulus_partial_solve_agrees_with_eigh_on_sampled_graphs(n, t, variant):
    """By modulus, k=2, on sampled 0/1 graphs at both ends of the partial route
    (PARTIAL_MIN_N to DENSE_MAX_N rows), directly and through top_eigenpairs:
    the k+1 moduli to 1e-12 relative to |lambda|max, the top-k projector to 1e-12."""
    assert eigen.PARTIAL_MIN_N <= n <= eigen.DENSE_MAX_N
    a = np.asarray(sample_collection([t], n, variant, n).graphs[0], dtype=float)
    k = 2
    eigvals, eigvecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    scale = np.abs(eigvals).max()
    expected = eigvecs[:, order[:k]] @ eigvecs[:, order[:k]].T
    routed = eigen.top_eigenpairs(a, k)
    assert routed[2] is None
    moduli = np.abs(eigvals[order[: k + 1]])
    for values, vectors in [eigen._partial_eigenpairs(a, k), routed[:2]]:
        assert np.abs(values[: k + 1] - moduli).max() <= 1e-12 * scale
        assert np.abs(vectors @ vectors.T - expected).max() <= 1e-12


def _usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cores() < 2, reason="needs two usable cores")
def test_partial_solves_run_side_by_side_on_two_threads():
    """The partial solve's LAPACK calls release the GIL: under one pin, two pool
    threads of N solves at n=200 keep as many cores busy as two threads of N
    GIL-free n=200 matrix products, within 0.8 (median of five alternating
    pairs). Cores busy is the two threads' CPU time (time.thread_time) over the
    wall time. Calls that hold the GIL keep one core busy (about 0.6 of the
    products on an idle machine), while other processes' load holds back both
    kinds alike."""
    a = np.asarray(sample_collection([0.5], 200, "curve-A", 3).graphs[0], dtype=float)
    count = 20
    barrier = threading.Barrier(2, timeout=60)

    def solve():
        eigen._partial_eigenpairs(a, 2)

    def product():
        a @ a

    def thread_seconds(work):
        barrier.wait()  # one task per pool thread
        start = time.thread_time()
        for _ in range(count):
            work()
        return time.thread_time() - start

    def cores_busy(pool, work):
        start = time.perf_counter()
        busy = sum(pool.map(thread_seconds, [work] * 2, timeout=60))
        return busy / (time.perf_counter() - start)

    with blas.single_thread(), ThreadPoolExecutor(2) as pool:
        # each thread's first BLAS calls set up its buffers
        cores_busy(pool, solve)
        ratios = sorted(cores_busy(pool, solve) / cores_busy(pool, product) for _ in range(5))
    assert ratios[2] > 0.8


@pytest.mark.parametrize(
    "n, patch",
    [(40, None), (150, None), (260, "_MAX_ITER"), (150, "_lapack")],
    ids=["dense-n40", "partial-n150", "hand-over-n260", "eigh-fallback-n150"],
)
def test_float32_graphs_factor_in_float64(monkeypatch, n, patch):
    """A 0/1 graph as float32 and as float64 gives the same bytes on the dense
    route, the partial route, a hand-over from block iteration after one step,
    and the partial solve's eigh fallback: every factorization reads float64."""
    a = np.asarray(sample_collection([0.6], n, "curve-A", 11).graphs[0], dtype=float)
    if patch == "_MAX_ITER":
        monkeypatch.setattr(eigen, "_MAX_ITER", 1)
    elif patch == "_lapack":
        monkeypatch.setattr(eigen, "_lapack", lambda: None)
    density = np.count_nonzero(a) / (n * (n - 1))
    single, double = (
        eigen.top_eigenpairs(a.astype(dtype), 2, density=density) for dtype in (np.float32, float)
    )
    for got, expected in zip(single, double):
        assert (got is None and expected is None) or got.tobytes() == expected.tobytes()
    assert single[0].dtype == np.float64 and single[1].dtype == np.float64


def _column(kind, n, rng):
    if kind == "zero":
        return np.zeros(n)
    if kind == "tiny":
        return 1e-290 * rng.standard_normal(n)
    if kind == "spiky":
        return np.where(rng.random(n) < 0.01, 1e6, 1e-6) * rng.standard_normal(n)
    if kind == "flat":  # first slices near 2^B, so a full row sums near n 2^B
        return 1.0 - 2.0**-10 * rng.random(n)
    return rng.standard_normal(n)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.sampled_from([4096, 4097]) | st.integers(1, 1200),
    kinds=st.lists(
        st.sampled_from(["zero", "tiny", "normal", "spiky", "flat"]), min_size=1, max_size=3
    ),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4096, kinds=["normal", "zero", "tiny"], density=0.5, seed=1)
@example(n=4097, kinds=["spiky", "normal"], density=1.0, seed=2)
@example(n=4096, kinds=["flat"], density=1.0, seed=3)
def test_sliced_product_is_exact(two_blas_threads, n, kinds, density, seed):
    """eigen.product of a float32 0/1 matrix slices X at the widest B with
    n 2^B <= 2^24; the sgemm of those integer slices equals the int64 product
    of the same slices bit for bit; the result lies within n 2^-(4B+1)
    max|x_col| (the dropped remainder) plus n 2^-50 max|x_col| (the float64
    recombination) of a long-double reference; and its bytes are the same on
    one and on two BLAS threads. A flat column on a full matrix takes the
    partial sums up to n 2^B, the most the slice width allows."""
    assert blas.thread_count() == 2
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density).astype(np.float32)
    x = np.column_stack([_column(kind, n, rng) for kind in kinds])
    with mock.patch.object(eigen, "_slices", wraps=eigen._slices) as slicer:
        product = eigen.product(a, x)
    bits = slicer.call_args.args[1]
    assert n * 2**bits <= 2**24 < n * 2 ** (bits + 1)
    _, slices = eigen._slices(x, bits)
    assert np.abs(slices).max() <= 2**bits
    flat = slices.reshape(n, -1)
    sums = a @ flat
    exact = np.empty(sums.shape, np.int64)
    whole = flat.astype(np.int64)
    for rows in range(0, n, 512):  # int64 copies of a, 512 rows at a time
        exact[rows : rows + 512] = a[rows : rows + 512].astype(np.int64) @ whole
    assert np.array_equal(sums, exact)
    with blas.single_thread():
        assert eigen.product(a, x).tobytes() == product.tobytes()
    reference = np.empty(x.shape, np.longdouble)
    for rows in range(0, n, 512):
        reference[rows : rows + 512] = a[rows : rows + 512].astype(np.longdouble) @ x.astype(
            np.longdouble
        )
    scale = np.abs(x).max(axis=0)
    bound = n * scale * (2.0 ** -(4 * bits + 1) + 2.0**-50)
    assert (np.abs(product - reference) <= bound).all()
