"""One-dimensional isomap: localization graph, geodesic proxies, raw stress.

The embedding pipeline is localization graph -> shortest-path dissimilarities
-> classical-scaling initializer -> iterative majorization of the raw stress
sum_{h,k} (|z_h - z_k| - delta_hk)^2 over all ordered pairs. Embeddings are
determined only up to sign and translation; outputs are centered at zero and
sign-fixed for reproducibility.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .eigen import square_matrix, top_eigenpairs
from .errors import ConnectivityError, ValidationError

# SMACOF stops at this relative stress decrease, or after this many steps.
SMACOF_TOL = 1e-8
SMACOF_MAX_ITER = 1000


@dataclass(frozen=True, eq=False)
class LocalizationGraph:
    """Undirected neighborhood graph: edge iff point distance < radius."""

    node_count: int
    edges: np.ndarray  # (m, 3) float rows (i, j, weight) with i < j
    radius: float


@dataclass(frozen=True)
class StressTrace:
    """Per-iteration raw stress values; non-increasing by construction."""

    values: tuple
    converged: bool

    @property
    def iterations(self):
        return len(self.values) - 1

    @property
    def final(self):
        return self.values[-1]


def point_distances(x):
    """Euclidean distances between the rows of an (m, D) array."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def localization_graph(points, radius):
    """Join points strictly closer than `radius`; weights are the distances.

    Ties at exactly the radius are excluded. Zero-weight edges (coincident
    points) are kept.
    """
    if not 0.0 < radius < np.inf:  # False for NaN
        raise ValidationError("neighborhood radius must be finite and positive")
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValidationError("expected an (m, D) point array")
    if not np.isfinite(x).all():
        raise ValidationError("points must be finite")
    dist = point_distances(x)
    rows, cols = np.nonzero(np.triu(dist < radius, k=1))
    edges = np.column_stack((rows, cols, dist[rows, cols]))
    return LocalizationGraph(node_count=x.shape[0], edges=edges, radius=float(radius))


def _to_sparse(graph):
    # both directions of every edge; explicit zeros keep coincident points joined
    i, j, w = graph.edges.T
    rows = np.concatenate([i, j]).astype(np.intp)
    cols = np.concatenate([j, i]).astype(np.intp)
    n = graph.node_count
    return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def shortest_path_matrix(graph, l):
    """Shortest-path distances among the first l nodes, routed anywhere.

    Runs Dijkstra from each of the first l sources over the whole graph and
    keeps the l x l block. Every pair among the first l must be connected;
    a disconnected pair raises ConnectivityError naming it.
    """
    if not 1 <= l <= graph.node_count:
        raise ValidationError(f"l={l} must lie in [1, {graph.node_count}]")
    # the CSR stores both directions, so a directed search sees every edge
    dist = dijkstra(_to_sparse(graph), directed=True, indices=np.arange(l))
    block = dist[:, :l]
    if not np.isfinite(block).all():
        h, k = np.argwhere(~np.isfinite(block))[0]
        raise ConnectivityError(
            f"points {h} and {k} are disconnected in the localization graph; "
            f"increase the neighborhood radius (currently {graph.radius:g})"
        )
    block = (block + block.T) / 2.0
    np.fill_diagonal(block, 0.0)
    return block


def raw_stress(z, delta):
    """Raw stress of a 1-D configuration against a dissimilarity matrix.

    Double sum over all ordered pairs (h, k), diagonal included (it
    contributes zero), with unit weights.
    """
    z = np.asarray(z, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (z.size, z.size):
        raise ValidationError("dissimilarity matrix shape does not match z")
    gaps = np.abs(z[:, None] - z[None, :])
    return float(((gaps - delta) ** 2).sum())


def cmds_embed(delta):
    """Classical-scaling initializer: top eigenpair of the centered Gram.

    Doubly centers -1/2 * (delta o delta) by its row and column means (no
    BLAS product, so the rounding does not depend on the thread count) and
    scales its top signed eigenvector (eigen.top_eigenpairs) by the square
    root of its eigenvalue. That eigenvalue is positive for any nonzero
    hollow delta (the centered Gram has positive trace); at delta = 0 the
    embedding is all zeros, with a warning. Raises ValidationError unless
    delta is a finite square matrix.
    """
    delta = square_matrix(delta)
    l = delta.shape[0]
    if l == 1:
        return np.zeros(1)
    sq = delta * delta
    gram = -0.5 * (sq - sq.mean(0) - sq.mean(1)[:, None] + sq.mean())
    values, vectors, _ = top_eigenpairs(gram, 1, signed=True)
    if values[0] <= 0.0:
        warnings.warn(
            "centered Gram matrix has no positive eigenvalue; "
            "returning the all-zero embedding",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros(l)
    z = np.sqrt(values[0]) * vectors[:, 0]
    return z - z.mean()


def smacof_minimize(delta, z0):
    """Minimize raw stress by iterative majorization (unit weights, 1-D).

    The update is z+_h = (1/l) sum_k [z_k + delta_hk * sgn(z_h - z_k)] with
    sgn(0) = 0, a monotone-descent step. Stops when the relative stress
    decrease drops below SMACOF_TOL or after SMACOF_MAX_ITER steps. If
    floating point ever produces an increase, the previous iterate is kept
    and iteration stops, so the trace is non-increasing unconditionally.

    Returns (embedding centered at zero, StressTrace).
    """
    delta = np.asarray(delta, dtype=float)
    if not np.isfinite(delta).all():
        raise ValidationError("dissimilarities must be finite")
    z = np.asarray(z0, dtype=float)
    if not np.isfinite(z).all():
        raise ValidationError("the start z0 must be finite")
    if delta.shape != (z.size, z.size):
        raise ValidationError("dissimilarity matrix shape does not match z0")
    z = z - z.mean()
    l = z.size
    stress = raw_stress(z, delta)
    trace = [stress]
    converged = False
    for _ in range(SMACOF_MAX_ITER):
        if stress == 0.0:
            converged = True
            break
        signs = np.sign(z[:, None] - z[None, :])
        z_next = z.mean() + (delta * signs).sum(axis=1) / l
        z_next = z_next - z_next.mean()
        stress_next = raw_stress(z_next, delta)
        if stress_next > stress:
            converged = True
            break
        z = z_next
        trace.append(stress_next)
        if (stress - stress_next) < SMACOF_TOL * stress:
            converged = True
            stress = stress_next
            break
        stress = stress_next
    return z, StressTrace(values=tuple(trace), converged=converged)


def isomap_1d(points, radius, l):
    """Embed the first l of the given points into one dimension.

    Composition: localization graph on all given points, shortest paths from
    the first l sources, classical-scaling initialization, then raw-stress
    majorization. Callers restricting the manifold-learning set pass the
    slice themselves.

    Returns (embedding, StressTrace, dissimilarities): the centered 1-D
    configuration of the first l points, the raw stress of each SMACOF step,
    and the l x l shortest-path dissimilarities it was fitted to.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("expected a non-empty (m, D) point array")
    if not 1 <= l <= x.shape[0]:
        raise ValidationError(f"l={l} must lie in [1, {x.shape[0]}]")
    graph = localization_graph(x, radius)
    delta = shortest_path_matrix(graph, l)
    z0 = cmds_embed(delta)
    z, trace = smacof_minimize(delta, z0)
    return z, trace, delta
