"""Multiple adjacency spectral embedding with sparsity correction.

Estimates the shared invariant subspace of a graph collection and projects
each adjacency matrix onto it, yielding per-graph score matrices whose
scaled vectorizations are the manifold-point estimates consumed by the
isomap stage.

Subspace bases are defined only up to orthogonal rotation; every consumer in
this package uses rotation-invariant functionals (pairwise Frobenius
distances), and outputs are made reproducible by a sign convention on
singular vectors.
"""

import math
import warnings

import numpy as np
from scipy.linalg import lapack

from . import blas
from .errors import SparsityError, ValidationError
from .manifold import point_distances

# Crossover node count: up to it every graph gets a full dense symmetric
# eigendecomposition, which is the cheaper route for small graphs (and the
# only one the power schedule, n <= 92, ever takes). Above it block
# iteration computes the top-d eigenvectors only.
DENSE_MAX_N = 200

_TIE_RTOL = 1e-10

# Block iteration stops once the top-d Ritz residual is below this fraction of
# the estimated d/(d+1) eigen-gap (a Davis-Kahan bound on the subspace angle),
# and hands over to the partial tridiagonal solve after _MAX_ITER blocks, or
# earlier once it has stalled: from step _STALL_FROM on, when the fastest
# per-step contraction of the residual over the last _STALL_WINDOW steps,
# kept up to step _MAX_ITER, would still leave the residual above
# _STALL_MARGIN times its target. The first steps after a start contract
# unevenly, hence the delay; the margin covers later speed-ups.
_RESIDUAL_TOL = 1e-10
_MAX_ITER = 40
_STALL_FROM = 6
_STALL_WINDOW = 3
_STALL_MARGIN = 10.0


def canonical_signs(basis):
    """Flip each column so its largest-absolute entry is positive.

    Ties go to the lowest index (argmax picks the first maximum). Returns a
    copy only when a flip happens.
    """
    basis = np.array(basis, copy=True)
    for j in range(basis.shape[1]):
        col = basis[:, j]
        anchor = int(np.argmax(np.abs(col)))
        if col[anchor] < 0:
            basis[:, j] = -col
    return basis


def _warn_on_tie(singular_values, d, stacklevel=3):
    if len(singular_values) <= d:
        return
    gap = singular_values[d - 1] - singular_values[d]
    if gap <= _TIE_RTOL * max(singular_values[0], 1.0):
        warnings.warn(
            f"singular values {d} and {d + 1} are tied "
            f"(gap {gap:.2e}); the rank-{d} subspace is ill-defined",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _dense_eigenpairs(a, k):
    """All |eigenvalues| in descending order and the matching top-k eigenvectors.

    eigh runs on one BLAS thread: its output is not bit-stable across thread
    counts, and outputs must not depend on the thread count.
    """
    with blas.single_thread():
        eigvals, eigvecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return np.abs(eigvals)[order], eigvecs[:, order[:k]]


def _partial_eigenpairs(a, k):
    """The k+1 largest |eigenvalues| in descending order and the top-k eigenvectors.

    One tridiagonalization (dsytrd, blocked through its workspace query),
    bisection (dstebz) for the k+1 smallest and k+1 largest signed
    eigenvalues, among which the k+1 largest moduli lie, inverse iteration
    (dstein) for the top-k vectors of the tridiagonal matrix, and the
    reflectors applied back (dormqr). Ties in modulus go to the negative
    eigenvalue, as in _dense_eigenpairs. Runs on one BLAS thread like it.
    Should dstebz or dstein report a failure, the dense solve answers.
    """
    n = a.shape[0]
    m = min(k + 1, n)
    bounds = [(1, n)] if 2 * m >= n else [(1, m), (n - m + 1, n)]
    # bisection to full accuracy, the tolerance LAPACK advises ahead of dstein
    tol = 2 * np.finfo(float).tiny
    with blas.single_thread():
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        reflectors, diag, off, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork)
        found = [
            lapack.dstebz(diag, off, 2, 0.0, 0.0, lo, hi, tol, b"B") for lo, hi in bounds
        ]
        if any(f[-1] for f in found):
            return _dense_eigenpairs(a, k)
        isplit = found[0][3]
        eigvals = np.concatenate([f[1][: f[0]] for f in found])
        blocks = np.concatenate([f[2][: f[0]] for f in found])
        ascending = np.argsort(eigvals, kind="stable")
        eigvals, blocks = eigvals[ascending], blocks[ascending]
        order = np.argsort(-np.abs(eigvals), kind="stable")[:m]
        # dstein takes its eigenvalues grouped by split-off block, ascending
        # within each block
        top = order[:k]
        grouping = np.lexsort((eigvals[top], blocks[top]))
        block_of = np.zeros(n, dtype=blocks.dtype)
        block_of[:k] = blocks[top[grouping]]
        vectors, info = lapack.dstein(
            diag, off, eigvals[top[grouping]], block_of, isplit
        )
        if info:
            return _dense_eigenpairs(a, k)
        vectors[1:], _, _ = lapack.dormqr(
            b"L", b"N", reflectors[1:, :-1], tau, vectors[1:], 64 * k
        )
    return np.abs(eigvals[order]), vectors[:, np.argsort(grouping)]


def _stalled(norms, target):
    """True when the residual norms so far show it cannot reach target in time.

    norms holds one residual norm per step, the last one above target.
    """
    step = len(norms)
    if step < _STALL_FROM:
        return False
    recent = norms[-_STALL_WINDOW - 1 :]
    rate = min(later / earlier for earlier, later in zip(recent, recent[1:]))
    if rate >= 1.0:
        return True
    final = math.log(norms[-1]) + (_MAX_ITER - step) * math.log(rate)
    return final >= math.log(_STALL_MARGIN * target)


def _subspace_iteration(a, d, start):
    """Top-d eigenvectors of A by modulus via block iteration on A @ A.

    Each step forms Y = A Q for the Rayleigh-Ritz projection QᵀAQ, whose
    signed Ritz values and vectors approximate the top eigenpairs of A, then
    moves on to Q = qr(A Y). Only the top-d Ritz pairs are tested: the solve
    stops once their residual ||A U - U Θ||_F falls below _RESIDUAL_TOL times
    the Ritz gap |θ_d| - |θ_{d+1}|, which bounds the distance to the true
    top-d projector. A tied or slowly separating boundary never passes the
    test. It hands over to _partial_eigenpairs after _MAX_ITER steps, at
    once when the Ritz gap is not positive, and as soon as the residual's
    observed contraction shows that step _MAX_ITER would not pass (_stalled).

    Returns (singular values in descending order, (n, d) basis, final block):
    the block is the last orthonormal (n, k) iterate, or the top-k
    eigenvectors of the partial solve after a hand-over, where k is the
    column count of start. The hand-over returns the k+1 largest singular
    values only.
    """
    q, _ = np.linalg.qr(start)
    norms = []
    for _ in range(_MAX_ITER):
        y = a @ q
        ritz = q.T @ y
        theta, s = np.linalg.eigh((ritz + ritz.T) / 2.0)
        order = np.argsort(-np.abs(theta), kind="stable")
        svals, s = np.abs(theta)[order], s[:, order[:d]]
        residual = y @ s - (q @ s) * theta[order[:d]]
        gap = svals[d - 1] - (svals[d] if svals.size > d else 0.0)
        norms.append(np.linalg.norm(residual))
        if norms[-1] < _RESIDUAL_TOL * gap:
            return svals, q @ s, q
        if gap <= 0.0 or _stalled(norms, _RESIDUAL_TOL * gap):
            break
        q, _ = np.linalg.qr(a @ y)
    svals, block = _partial_eigenpairs(a, q.shape[1])
    return svals, block[:, :d], block


def _top_basis(a, d, start=None):
    """Sign-canonical top-d basis of a validated square matrix; warns on ties.

    Dense eigh up to DENSE_MAX_N nodes, block iteration above. start seeds
    the iteration; without one it draws an (n, d+2) block from a fixed
    Philox stream, so both routes are deterministic.

    Returns (basis, block): the iteration's final block, which can warm-start
    the next graph, or None on the dense route.
    """
    n = a.shape[0]
    block = None
    if n <= DENSE_MAX_N:
        svals, basis = _dense_eigenpairs(a, d)
    else:
        if start is None:
            rng = np.random.Generator(np.random.Philox(0x5EED5EED))
            start = rng.standard_normal((n, min(d + 2, n)))
        svals, basis, block = _subspace_iteration(a, d, start)
    _warn_on_tie(svals, d, stacklevel=4)
    return canonical_signs(basis), block


def top_left_singular_vectors(a, d):
    """Top-d left singular vectors of a real symmetric matrix.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix. Left singular vectors coincide with eigenvectors
        ordered by absolute eigenvalue.
    d : int
        Subspace dimension, 1 <= d <= n.

    Returns
    -------
    (n, d) ndarray with orthonormal, sign-canonicalized columns.

    Up to DENSE_MAX_N nodes this is a full dense eigendecomposition. Above it
    block iteration on A @ A runs with d+2 columns from a fixed Philox start
    and stops on the top-d projector alone. When it stalls or reaches its
    iteration cap, one tridiagonalization gives the top d+2 eigenpairs
    instead. Warns when the singular values at the d/(d+1) boundary are
    tied, in which case the subspace is ill-defined.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValidationError("expected a square matrix")
    if not 1 <= d <= n:
        raise ValidationError(f"d={d} must satisfy 1 <= d <= n={n}")
    return _top_basis(a, d)[0]


def joint_subspace(bases, d):
    """Top-d left singular vectors of the column-wise basis concatenation."""
    if len(bases) == 0:
        raise ValidationError("need at least one basis")
    concat = np.hstack(bases)
    if d > min(concat.shape):
        raise ValidationError(f"d={d} exceeds the concatenation rank bound")
    u, svals, _ = np.linalg.svd(concat, full_matrices=False)
    _warn_on_tie(svals, d)
    return canonical_signs(u[:, :d])


def estimate_sparsity(collection):
    """Average edge density over all graphs: total edges / (N * C(n, 2)).

    The edge total is an exact integer popcount of the packed graphs, so the
    estimate is the correctly rounded quotient. Binary collections only.
    """
    n = collection.node_count
    if n < 2:
        raise ValidationError("sparsity needs n >= 2")
    total = collection.graphs.edge_count()
    return total / (collection.n_graphs * (n * (n - 1) // 2))


def project_scores(graphs, basis, sparsity):
    """Score matrices (1/rho) V̂ᵀ A^(k) V̂ for one fixed basis.

    The product is symmetrized explicitly; floating point leaves ~1e-11
    asymmetry at n ~ 1000 otherwise.
    """
    if sparsity <= 0.0:
        raise SparsityError("sparsity must be positive to scale scores")
    out = []
    for a in graphs:
        m = basis.T @ a @ basis / sparsity
        out.append((m + m.T) / 2.0)
    return out


def sparse_mase(collection, d, sparsity=None):
    """Estimate score matrices for every graph in the collection.

    Every graph is projected onto the joint subspace estimated from all
    per-graph bases. Two passes stream over the collection's store, each
    unpacking one graph at a time into one reused float64 buffer: the first
    computes the per-graph bases, the second (project_scores) the scores.

    Parameters
    ----------
    collection : GraphCollection
    d : int
        Embedding dimension.
    sparsity : float or None
        Override for the sparsity estimate. Noiseless collections require it
        (pass 1.0): there the estimator would return the mean of P and
        uniformly rescale every score. None estimates from the data.

    Returns
    -------
    (scores, sparsity) : list of (d, d) symmetric ndarrays, and the sparsity
    actually used.

    Per-graph bases come from dense eigh up to DENSE_MAX_N nodes. Above it
    graph 0 runs the block iteration from the fixed Philox start (see
    top_left_singular_vectors), and its final (n, d+2) block starts the
    iteration of every other graph; a graph whose iteration stalls or
    reaches the cap takes the partial tridiagonal solve instead, and for
    graph 0 that solve's top-(d+2) eigenvectors become the start.
    """
    n = collection.node_count
    if d > n:
        raise ValidationError(f"d={d} exceeds node count {n}")
    if sparsity is None:
        if collection.noiseless:
            raise ValidationError(
                "a noiseless collection needs an explicit sparsity override"
            )
        rho = estimate_sparsity(collection)
        if rho <= 0.0:
            raise SparsityError("all graphs are empty; sparsity estimate is zero")
    else:
        rho = float(sparsity)
        if not 0.0 < rho <= 1.0:
            raise ValidationError("sparsity override must lie in (0, 1]")
    # COSIE graphs share one invariant subspace, so graph 0's final block
    # warm-starts every other graph's block iteration. The start depends on
    # the collection alone, not on scheduling.
    graphs = collection.graphs.buffered()
    first, start = _top_basis(next(graphs), d)
    bases = [first] + [_top_basis(a, d, start=start)[0] for a in graphs]
    basis = joint_subspace(bases, d)
    return project_scores(collection.graphs.buffered(), basis, rho), rho


def scaled_score_points(scores, n):
    """Scaled score matrices Q̂ = R̂/n as an (N, d, d) stack."""
    if n < 1:
        raise ValidationError("n must be positive")
    return np.asarray(scores, dtype=float) / n


def coords_matrix(stack, upper_triangle=False):
    """Vectorize an (N, d, d) stack into the (N, D) points of the manifold stage.

    Each row is the column-stacked vec(Q̂), d*d entries, or with
    upper_triangle the upper triangle (diagonal included) read row by row,
    d*(d+1)/2 entries, the feature used for the real-data workflow.
    """
    if upper_triangle:
        rows, cols = np.triu_indices(stack.shape[1])
        return np.ascontiguousarray(stack[:, rows, cols])
    return stack.transpose(0, 2, 1).reshape(len(stack), -1)


def pairwise_frobenius(points):
    """Frobenius distances within an (N, d, d) stack or (N, D) vectorized points."""
    x = np.asarray(points, dtype=float)
    dist = point_distances(x.reshape(len(x), -1))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist
