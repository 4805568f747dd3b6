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

import numpy as np

from . import eigen
from .errors import SparsityError, ValidationError


def joint_subspace(bases, d):
    """Top-d left singular vectors of the column-wise basis concatenation."""
    if len(bases) == 0:
        raise ValidationError("need at least one basis")
    concat = np.hstack(bases)
    if not 1 <= d <= min(concat.shape):
        raise ValidationError(f"d={d} must lie in [1, {min(concat.shape)}]")
    return eigen.left_singular_vectors(concat, d)


def estimate_sparsity(collection):
    """Average edge density over all graphs: total edges / (N * C(n, 2)).

    The edge total sums the exact per-graph popcounts GraphStore.edge_counts,
    so the estimate is the correctly rounded quotient. Binary collections only.
    """
    n = collection.node_count
    if n < 2:
        raise ValidationError("sparsity needs n >= 2")
    return sum(collection.graphs.edge_counts) / (collection.n_graphs * (n * (n - 1) // 2))


def project_scores(graphs, basis, sparsity):
    """Score matrices (1/rho) V̂ᵀ A^(k) V̂ for one fixed basis.

    graphs is a GraphStore; GraphStore.map hands each graph over, and float32
    ones (0/1 only, above SPREAD_MIN_N nodes) are multiplied by eigen.product.
    The product is symmetrized: floating point leaves ~1e-11 asymmetry at n ~ 1000.
    """
    if sparsity <= 0.0:
        raise SparsityError("sparsity must be positive to scale scores")

    def score(a, _):
        left = eigen.product(a, basis).T if a.dtype == np.float32 else basis.T @ a
        m = left @ basis / sparsity
        return (m + m.T) / 2.0

    return graphs.map(score)


def sparse_mase(collection, d, sparsity=None):
    """Estimate score matrices for every graph in the collection.

    Every graph is projected onto the joint subspace estimated from all
    per-graph bases. Two passes of GraphStore.map go over the collection's
    store, one graph per call on one BLAS thread, spread over worker threads
    on large graphs: the first computes the per-graph bases, graph 0's alone
    and then the rest, the second (project_scores) the scores.

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
    """
    n = collection.node_count
    if not 1 <= d <= n:
        raise ValidationError(f"d={d} must satisfy 1 <= d <= n={n}")
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
    # from eigen.top_eigenpairs (None on the dense route) warm-starts every
    # other graph's block iteration. The start depends on the collection
    # alone, not on scheduling. A binary graph's filter reads its own density.
    graphs, pairs = collection.graphs, max(n * (n - 1) // 2, 1)
    density = [c / pairs for c in graphs.edge_counts] if graphs.binary else [None] * len(graphs)

    def solve(a, k, start=None):
        return eigen.top_eigenpairs(a, d, start=start, density=density[k])

    [(_, first, start)] = graphs.map(solve, [0])
    rest = graphs.map(lambda a, k: solve(a, k, start)[1], range(1, len(graphs)))
    basis = joint_subspace([first, *rest], d)
    return project_scores(graphs, basis, rho), rho


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

