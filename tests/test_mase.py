import ctypes
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_levels
from netmanifold import (
    GraphCollection,
    SparsityError,
    ValidationError,
    balanced_membership,
    build_block_probability,
    coords_matrix,
    noiseless_collection,
    sample_collection,
    scaled_score_points,
    sparse_mase,
)
from netmanifold import blas, eigen
from netmanifold.eigen import canonical_signs
from netmanifold.manifold import point_distances
from netmanifold.mase import (
    estimate_sparsity,
    joint_subspace,
    project_scores,
)


def _projector(basis):
    return basis @ basis.T


def test_estimate_sparsity_extremes():
    complete = np.ones((4, 4)) - np.eye(4)
    assert estimate_sparsity(GraphCollection(graphs=(complete, complete))) == 1.0
    empty = np.zeros((4, 4))
    assert estimate_sparsity(GraphCollection(graphs=(empty,))) == 0.0


def test_estimate_sparsity_hand_count():
    # two graphs on n=3: 2 edges and 1 edge -> 3 / (2 * 3) = 0.5
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    b = np.zeros((3, 3))
    b[0, 2] = b[2, 0] = 1.0
    assert estimate_sparsity(GraphCollection(graphs=(a, b))) == 0.5


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    n_graphs=st.integers(min_value=1, max_value=4),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_estimate_sparsity_matches_upper_triangle_gather(n, n_graphs, density, seed):
    """Bitwise equal to the fancy-indexed strict upper triangle sum.

    The inputs are symmetric hollow 0/1 matrices; an asymmetric one is
    rejected when the collection is built.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_graphs):
        upper = np.triu((rng.random((n, n)) < density).astype(float), k=1)
        graphs.append(upper + upper.T)
    iu = np.triu_indices(n, k=1)
    expected = sum(float(a[iu].sum()) for a in graphs) / (n_graphs * iu[0].size)
    assert estimate_sparsity(GraphCollection(graphs=tuple(graphs))) == expected
    asymmetric = np.zeros((n, n))
    asymmetric[0, 1] = 1.0
    with pytest.raises(ValidationError, match="not symmetric"):
        GraphCollection(graphs=(asymmetric,))


def test_estimate_sparsity_concentrates_on_constant_model():
    """|rho_hat - rho| stays within 3 binomial standard errors."""
    n, n_graphs, rho = 200, 5, 0.3
    p = np.full((n, n), rho)
    graphs = tuple(sample_levels(p, 500 + k) for k in range(n_graphs))
    est = estimate_sparsity(GraphCollection(graphs=graphs))
    m = n_graphs * n * (n - 1) / 2
    assert abs(est - rho) < 3.0 * np.sqrt(rho * (1 - rho) / m)


def test_sampling_and_mase_hold_one_float_graph_at_a_time():
    """Traced peak of sampling plus MASE stays under 3 float64 n x n graphs.

    n = 600 is above DENSE_MAX_N, the route the paper-scale runs take. A
    collection held as float64 graphs would need N = 10 of them.
    """
    n = 600
    tracemalloc.start()
    try:
        coll = sample_collection(np.linspace(0.4, 1.0, 10), n, "curve-A", 11)
        scores, _ = sparse_mase(coll, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == 10
    assert peak < 3 * n * n * 8


def test_sparse_mase_rejects_all_empty():
    empty = np.zeros((4, 4))
    with pytest.raises(SparsityError):
        sparse_mase(GraphCollection(graphs=(empty, empty)), 1)


def test_top_singular_vectors_two_block_span():
    """d=2 subspace of a two-block constant matrix = block-indicator span."""
    p = np.array(
        [
            [0.5, 0.5, 0.2, 0.2],
            [0.5, 0.5, 0.2, 0.2],
            [0.2, 0.2, 0.5, 0.5],
            [0.2, 0.2, 0.5, 0.5],
        ]
    )
    basis = eigen.top_eigenpairs(p, 2)[1]
    u, _, _ = np.linalg.svd(p)
    assert np.abs(_projector(basis) - _projector(u[:, :2])).max() < 1e-12
    assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-12


def test_top_singular_vectors_orders_by_modulus():
    # eigenvalues 5 and -4: |.| order puts 5 first, -4 second, 1 last
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    a = q @ np.diag([5.0, -4.0, 1.0]) @ q.T
    basis = eigen.top_eigenpairs(a, 2)[1]
    assert np.abs(_projector(basis) - _projector(q[:, :2])).max() < 1e-10


def test_top_singular_vectors_warns_on_tied_boundary():
    # [[0, 3], [3, 0]] has eigenvalues +-3: |.|-tie at the d=1 boundary
    with pytest.warns(RuntimeWarning, match="tied"):
        eigen.top_eigenpairs(np.array([[0.0, 3.0], [3.0, 0.0]]), 1)


def test_iterative_matches_dense(monkeypatch):
    """Above DENSE_MAX_N the cold Philox start agrees with dense eigh."""
    n = eigen.DENSE_MAX_N + 50
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    noise = rng.standard_normal((n, n)) / n
    a = (q * [12.0, -9.0, 6.0]) @ q.T + (noise + noise.T) / 2.0
    _, dense = eigen._dense_eigenpairs(a, 3)
    fallbacks = []
    monkeypatch.setattr(
        eigen, "_partial_eigenpairs", lambda *args: fallbacks.append(args)
    )
    iterative = eigen.top_eigenpairs(a, 3)[1]
    assert not fallbacks  # the block iteration converged on its own
    assert np.abs(_projector(dense) - _projector(iterative)).max() <= 1e-8


def _bipartite(n, seed):
    """A random bipartite graph: its spectrum is symmetric, so the negative
    end ties the positive one and leads in modulus order."""
    rng = np.random.default_rng(seed)
    half = (rng.random((n // 2, n // 2)) < 0.2).astype(float)
    zero = np.zeros_like(half)
    return np.block([[zero, half], [half.T, zero]])


def _disconnected(n, seed):
    """Three random graphs side by side: the tridiagonal form splits."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for j, lo in enumerate(range(0, n, n // 3)):
        upper = np.triu(rng.random((n // 3, n // 3)) < 0.1 * (j + 1), k=1)
        a[lo : lo + n // 3, lo : lo + n // 3] = upper + upper.T
    return a


def _small(n, seed):
    """n <= 2(k+1) with k=4: the bottom and top index ranges overlap."""
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x + x.T


@pytest.mark.parametrize(
    "a",
    [
        _bipartite(300, 1),
        _disconnected(300, 2),
        _small(10, 3),
        _small(4, 4),
        sample_collection([0.25], 300, "curve-A", 5).graphs[0],
        _bipartite(100, 7),
        _disconnected(150, 8),
        sample_collection([0.25], 200, "curve-A", 9).graphs[0],
        sample_collection([0.6], 64, "curve-B", 10).graphs[0],
    ],
    ids=[
        "bipartite", "disconnected", "overlap-n10", "overlap-n4", "curve-A-n300",
        "bipartite-n100", "disconnected-n150", "curve-A-n200", "curve-B-n64",
    ],
)
def test_partial_solve_agrees_with_eigh(a):
    """Agreement bound of the partial tridiagonal solve against np.linalg.eigh.

    The k+1 largest moduli match to 1e-12 relative to |lambda_1|, the top-2
    projector to 1e-8 (max entry), and the top-k block is orthonormal.
    """
    k = 4
    eigvals, eigvecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    moduli, block = eigen._partial_eigenpairs(a, k)
    assert moduli.shape == (min(k + 1, len(a)),)
    scale = np.abs(eigvals).max()
    assert np.abs(moduli - np.abs(eigvals[order[: k + 1]])).max() <= 1e-12 * scale
    dense = eigvecs[:, order[:2]]
    assert np.abs(_projector(block[:, :2]) - _projector(dense)).max() <= 1e-8
    assert np.abs(block.T @ block - np.eye(k)).max() < 1e-12
    # the leading column is the leading eigenvector, negative on a tie
    assert abs(block[:, 0] @ dense[:, 0]) == pytest.approx(1.0, abs=1e-8)


def test_partial_solve_hands_over_when_lapack_fails(monkeypatch):
    """dstein, then dstebz, runs but reports info = 1: eigh answers instead."""
    a = _bipartite(40, 6)
    dense_moduli, dense_block = eigen._dense_eigenpairs(a, 4)
    routines = eigen._lapack()
    # position of each routine in _lapack() and of info among its pointers
    for position, info_at in [(2, 12), (1, 17)]:
        calls = []

        def failing(*args, routine=routines[position], info_at=info_at):
            routine(*args)
            ctypes.c_int64.from_address(args[info_at]).value = 1
            calls.append(args)

        patched = routines[:position] + (failing,) + routines[position + 1 :]
        monkeypatch.setattr(eigen, "_lapack", lambda patched=patched: patched)
        moduli, block = eigen._partial_eigenpairs(a, 4)
        assert len(calls) == 1
        assert np.array_equal(moduli, dense_moduli)
        assert np.array_equal(block, dense_block)


def test_iterative_route_warns_on_tied_boundary():
    # eigenvalues 9, 4, -4, ...: a |.|-tie at the d=2 boundary above the
    # crossover, where "auto" runs the block iteration
    n = eigen.DENSE_MAX_N + 44
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))
    eigvals = np.concatenate([[9.0, 4.0, -4.0], np.linspace(1.0, 0.1, n - 3)])
    a = (q * eigvals) @ q.T
    with pytest.warns(RuntimeWarning, match="tied"):
        basis = eigen.top_eigenpairs((a + a.T) / 2.0, 2)[1]
    assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-12


def _record_solves(monkeypatch, coll):
    """Record every per-graph basis sparse_mase solves, keyed by the index of
    its graph in coll (large graphs are solved on worker threads, in completion
    order), every fallback to the partial solve, the step of every early
    exit from the iteration, and the degree of every filtered step."""
    bases, fallbacks, exits = {}, [], []
    index = {g.tobytes(): k for k, g in enumerate(coll.graphs)}
    top_eigenpairs, partial, stalled, degree = (
        eigen.top_eigenpairs,
        eigen._partial_eigenpairs,
        eigen._stalled,
        eigen._filter_degree,
    )
    degrees = []

    def recording_top_eigenpairs(a, *args, **kwargs):
        values, basis, block = top_eigenpairs(a, *args, **kwargs)
        bases[index[np.asarray(a, dtype=float).tobytes()]] = basis
        return values, basis, block

    def counting_partial(a, k, signed=False):
        fallbacks.append(k)
        return partial(a, k, signed)

    def recording_stalled(norms, target):
        if stalled(norms, target):
            exits.append(len(norms))
            return True
        return False

    def recording_degree(*args):
        chebyshev = degree(*args)
        degrees.append(None if chebyshev is None else chebyshev[1])
        return chebyshev

    monkeypatch.setattr(eigen, "top_eigenpairs", recording_top_eigenpairs)
    monkeypatch.setattr(eigen, "_partial_eigenpairs", counting_partial)
    monkeypatch.setattr(eigen, "_stalled", recording_stalled)
    monkeypatch.setattr(eigen, "_filter_degree", recording_degree)
    return bases, fallbacks, exits, degrees


@pytest.mark.parametrize(
    "ts, n, seed, crossover",
    [
        # criterion-2 collections (curve-A, n=800, 30 graphs)
        (np.random.default_rng(1000).uniform(0.25, 1.0, 30), 800, 1000, None),
        (np.random.default_rng(1001).uniform(0.25, 1.0, 30), 800, 1001, None),
        # lambda_2 ~ 5 sits inside the noise-bulk edge ~ 9: the block iteration
        # cannot separate it, sees so early, and hands over to the partial solve
        (np.full(10, 0.25), 200, 77, 100),
        # consistency-pool and power collections: every graph takes the
        # partial solve
        (np.random.default_rng(1002).uniform(0.25, 1.0, 15), 200, 1002, None),
        (np.random.default_rng(1003).uniform(0.25, 1.0, 12), 64, 1003, None),
        # consistency K=6 size: float32 graphs, Chebyshev-filtered steps
        (np.random.default_rng(1004).uniform(0.25, 1.0, 6), 1250, 1004, None),
    ],
    ids=[
        "c2-seed1000",
        "c2-seed1001",
        "bulk-edge-n200",
        "partial-n200",
        "partial-n64",
        "filtered-n1250",
    ],
)
def test_warm_route_agrees_with_dense_eigh(monkeypatch, ts, n, seed, crossover):
    """Agreement bound of the warm-started and the partial routes against dense eigh.

    Every per-graph top-2 projector matches dense eigh to 1e-8 (max entry);
    the score matrices then agree to 1e-10 relative to the largest score.
    """
    coll = sample_collection(ts, n, "curve-A", seed)
    if crossover is not None:
        monkeypatch.setattr(eigen, "DENSE_MAX_N", crossover)
    bases, fallbacks, exits, degrees = _record_solves(monkeypatch, coll)
    scores, _ = sparse_mase(coll, 2, sparsity=1.0)
    warm = dict(bases)
    if crossover is None and n > eigen.DENSE_MAX_N:
        # binary graphs carry their density, so the block iteration filters
        assert any(m is not None and 2 <= m <= 6 for m in degrees)
    if crossover is not None:
        assert len(fallbacks) >= 1
        # every fallback left the iteration before its step cap
        assert len(exits) == len(fallbacks)
        assert max(exits) < eigen._MAX_ITER
    elif n <= eigen.DENSE_MAX_N:
        assert len(fallbacks) == coll.n_graphs
    monkeypatch.setattr(eigen, "PARTIAL_MIN_N", n + 1)
    bases.clear()
    dense_scores, _ = sparse_mase(coll, 2, sparsity=1.0)
    assert len(warm) == len(bases) == coll.n_graphs
    for k, basis in warm.items():
        gap = np.abs(_projector(basis) - _projector(bases[k])).max()
        assert gap <= 1e-8
    scale = max(np.abs(r).max() for r in dense_scores)
    score_gap = max(np.abs(r - q).max() for r, q in zip(scores, dense_scores))
    assert score_gap <= 1e-10 * scale


def test_noiseless_collections_keep_the_plain_step(monkeypatch):
    """Real-valued graphs carry no edge density: above the dense crossover
    their block iteration takes only the unfiltered step Q = qr(A (A Q)), every
    product a float64 A @ X, and the bases match dense eigh as before."""
    coll = noiseless_collection(np.linspace(0.3, 0.9, 4), 400, "curve-A")
    bases, fallbacks, _, degrees = _record_solves(monkeypatch, coll)
    dtypes, densities, product, solve = [], [], eigen.product, eigen.top_eigenpairs

    def recording_product(a, x):
        dtypes.append(a.dtype)
        return product(a, x)

    def recording_solve(a, *args, density=None, **kwargs):
        densities.append(density)
        return solve(a, *args, density=density, **kwargs)

    monkeypatch.setattr(eigen, "product", recording_product)
    monkeypatch.setattr(eigen, "top_eigenpairs", recording_solve)
    sparse_mase(coll, 2, sparsity=1.0)
    assert densities == [None] * coll.n_graphs
    assert degrees and all(m is None for m in degrees)
    assert dtypes and all(dtype == np.float64 for dtype in dtypes)
    assert fallbacks == [] and len(bases) == coll.n_graphs
    for k, basis in bases.items():
        eigvals, eigvecs = np.linalg.eigh(coll.graphs[k])
        top = eigvecs[:, np.argsort(-np.abs(eigvals), kind="stable")[:2]]
        assert np.abs(_projector(basis) - _projector(top)).max() <= 1e-8


def test_canonical_signs_fixed_point_and_flip():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((8, 3))
    fixed = canonical_signs(basis)
    assert np.array_equal(canonical_signs(fixed), fixed)
    assert np.array_equal(canonical_signs(-basis), fixed)
    for j in range(3):
        col = fixed[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_joint_subspace_single_basis():
    basis = eigen.top_eigenpairs(np.diag([3.0, 2.0, 1.0]), 2)[1]
    joint = joint_subspace([basis], 2)
    assert np.abs(_projector(joint) - _projector(basis)).max() < 1e-12


def test_joint_subspace_is_bit_stable_across_blas_threads(two_blas_threads):
    """At the K=12 shape, 26 bases of (2150, 2), the SVD's singular vectors
    from the 13th on differ in their last bits between one and two BLAS
    threads; the pin hides it. d=52 keeps every column."""
    rng = np.random.default_rng(12)
    bases = [rng.standard_normal((2150, 2)) for _ in range(26)]
    two = joint_subspace(bases, 52)
    for _, put in two_blas_threads:
        put(1)
    assert np.array_equal(joint_subspace(bases, 52), two)


def test_scores_are_bit_stable_across_blas_threads(two_blas_threads):
    """From n=510 on OpenBLAS threads the products A @ Q; at n=650 they moved
    the scores by 4e-15 relative between one and two BLAS threads. Every
    per-graph product now runs on one BLAS thread, spread over worker threads
    or inline under an outer pin, and the scores keep their bytes."""
    coll = sample_collection(np.linspace(0.4, 1.0, 4), 650, "curve-A", 11)
    spread, _ = sparse_mase(coll, 2)
    with blas.single_thread():
        pinned, _ = sparse_mase(coll, 2)
    assert [r.tobytes() for r in spread] == [r.tobytes() for r in pinned]


def test_joint_subspace_matches_svd_oracle():
    rng = np.random.default_rng(21)
    b1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    b2, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    joint = joint_subspace([b1, b2], 2)
    u, _, _ = np.linalg.svd(np.hstack([b1, b2]), full_matrices=False)
    assert np.abs(_projector(joint) - _projector(u[:, :2])).max() < 1e-8


def test_single_complete_graph_hand_values():
    """N=1, complete graph on n=4, d=1: rho=1, R = v'Av = 3."""
    complete = np.ones((4, 4)) - np.eye(4)
    coll = GraphCollection(graphs=(complete,))
    scores, rho = sparse_mase(coll, 1)
    assert rho == 1.0
    assert scores[0].shape == (1, 1)
    assert scores[0][0, 0] == pytest.approx(3.0, abs=1e-12)


def test_noiseless_exact_distance_recovery():
    """Rotation-invariant exact recovery: score distances match truth to 1e-8."""
    ts = np.linspace(0.3, 0.9, 6)
    n = 40
    coll = noiseless_collection(ts, n, "curve-A")
    scores, rho = sparse_mase(coll, 2, sparsity=1.0)
    assert rho == 1.0
    points = scaled_score_points(scores, n)
    est = point_distances(points.reshape(6, -1))
    truth = np.array(
        [build_block_probability(t, "curve-A") / 2.0 for t in ts]
    ).reshape(6, 4)
    expected = point_distances(truth)
    assert np.abs(est - expected).max() < 1e-8


def test_noiseless_collection_requires_sparsity_override():
    coll = noiseless_collection(np.linspace(0.3, 0.9, 5), 20, "curve-B")
    with pytest.raises(ValidationError, match="noiseless"):
        sparse_mase(coll, 2)
    scores, rho = sparse_mase(coll, 2, sparsity=1.0)
    assert rho == 1.0 and len(scores) == 5


def test_sparse_mase_argument_validation():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    coll = GraphCollection(graphs=(a,))
    with pytest.raises(ValidationError):
        sparse_mase(coll, 4)
    with pytest.raises(ValidationError):
        sparse_mase(coll, 0)
    with pytest.raises(ValidationError):
        joint_subspace([np.eye(3)[:, :1]], 0)
    with pytest.raises(ValidationError):
        sparse_mase(coll, 1, sparsity=1.5)
    with pytest.raises(SparsityError):
        project_scores(coll.graphs, np.eye(3)[:, :1], 0.0)


def test_scaled_score_points_identity():
    stack = scaled_score_points([4.0 * np.eye(2)], 4)
    assert stack.shape == (1, 2, 2)
    assert coords_matrix(stack).tolist() == [[1.0, 0.0, 0.0, 1.0]]
    assert coords_matrix(stack, upper_triangle=True).tolist() == [[1.0, 0.0, 1.0]]


def test_coords_matrix_shapes():
    stack = scaled_score_points([np.eye(2), 2.0 * np.eye(2)], 1)
    assert coords_matrix(stack).shape == (2, 4)
    assert coords_matrix(stack, upper_triangle=True).shape == (2, 3)


def test_coords_matrix_entry_order_and_layout():
    """Columns are stacked; the upper triangle is read row by row."""
    q = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    stack = scaled_score_points([q], 1)
    full = coords_matrix(stack)
    upper = coords_matrix(stack, upper_triangle=True)
    assert full.tolist() == [[1.0, 4.0, 7.0, 2.0, 5.0, 8.0, 3.0, 6.0, 9.0]]
    assert upper.tolist() == [[1.0, 2.0, 3.0, 5.0, 6.0, 9.0]]
    assert full.flags.c_contiguous and upper.flags.c_contiguous


def test_pairwise_frobenius_hand_values():
    x = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    dist = point_distances(x)
    assert dist[0, 0] == 0.0
    assert dist[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert np.array_equal(dist, dist.T)
    assert np.array_equal(np.diag(dist), np.zeros(2))


def test_rotation_invariance_of_pairwise_distances():
    """Replacing the basis by basis @ W (orthogonal W) moves no distance."""
    ts = np.linspace(0.3, 0.9, 5)
    n = 20
    coll = noiseless_collection(ts, n, "curve-A")
    basis = joint_subspace(
        [eigen.top_eigenpairs(a, 2)[1] for a in coll.graphs], 2
    )
    rng = np.random.default_rng(9)
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    base = point_distances(
        scaled_score_points(project_scores(coll.graphs, basis, 1.0), n).reshape(5, -1)
    )
    rotated = point_distances(
        scaled_score_points(project_scores(coll.graphs, basis @ w, 1.0), n).reshape(5, -1)
    )
    assert np.abs(base - rotated).max() < 1e-8
