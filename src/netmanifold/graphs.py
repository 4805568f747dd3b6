"""Balanced multilayer blockmodel generators and the graph store.

All randomness flows through numpy's counter-based Philox generator so that
every sampled object is a pure function of its seed. Graph k of a collection
is seeded with ``base_seed ^ k`` (k counted from 0).
"""

import functools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ValidationError

# Arclength-parameterized curve: psi(t) = (t/a, t/b, t/b, t/a) with
# a = sqrt(2)/sin(1), b = sqrt(2)/cos(1), so |psi'(t)| = 1 and the geodesic
# between psi(t_h) and psi(t_k) is exactly |t_h - t_k|.
CURVE_A_DIAG_SCALE = math.sqrt(2.0) / math.sin(1.0)
CURVE_A_OFFDIAG_SCALE = math.sqrt(2.0) / math.cos(1.0)

VARIANTS = ("curve-A", "curve-B")

_SEED_LIMIT = 2**64

# Above this node count a collection's graphs are sampled and embedded one per
# worker thread (_spread_width), at or below it inline, every product on one
# BLAS thread; and only above it are graphs unpacked to float32 for the exact
# eigen.product. OpenBLAS threads A @ Q from n=510 on, where a pinned float64
# product loses to it (4 columns, 2 cores: 75 us at n=500 on one or two threads,
# 239 against 125 us at n=510); pinned, the float32 one ties with it at n=510
# (0.17-0.22 against 0.18-0.21 ms), loses at n=500 (0.22 against 0.07 ms). 15
# graphs' sparse_mase, spread/inline: 141-154/249-288 ms at n=600, 99-108/91-92 at 500.
SPREAD_MIN_N = 500

# The sampler draws whole rows of Philox words, at most this many (512 KB) at
# a time, and mirrors in tiles of _TILE rows: 1.4 against 3.3 ms for a |= a.T
# at n=2150, a tie at 300.
_CHUNK_DRAWS, _TILE = 1 << 16, 64


def _spread_width(n):
    """Workers for per-graph work on n nodes (blas.map_pinned): the BLAS thread
    count above SPREAD_MIN_N, so one inside the replicate pool's pin; else 1."""
    return (blas.thread_count() or 1) if n > SPREAD_MIN_N else 1


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < _SEED_LIMIT:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def build_block_probability(t, variant):
    """Return the 2x2 block probability matrix B(t) for one curve variant.

    curve-A has diagonal t/a and off-diagonal t/b with a = sqrt(2)/sin(1),
    b = sqrt(2)/cos(1); curve-B has diagonal t/2 and off-diagonal t/5.
    t must keep every entry inside [0, 1].
    """
    if variant == "curve-A":
        t_max = CURVE_A_DIAG_SCALE
        diag, off = t / CURVE_A_DIAG_SCALE, t / CURVE_A_OFFDIAG_SCALE
    elif variant == "curve-B":
        t_max = 2.0
        diag, off = t / 2.0, t / 5.0
    else:
        raise ValidationError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if not (0.0 <= t <= t_max):
        raise ValidationError(
            f"t={t} outside the admissible range [0, {t_max:.6g}] for {variant}"
        )
    return np.array([[diag, off], [off, diag]])


def balanced_membership(n, n_communities):
    """Assign n nodes to equally sized communities, labels counted from 0.

    The first n/K nodes get community 0, the next n/K community 1, and so on.
    K must divide n.
    """
    if n_communities < 1 or n < 1:
        raise ValidationError("need n >= 1 and n_communities >= 1")
    if n % n_communities != 0:
        raise ValidationError(
            f"community count {n_communities} does not divide node count {n}"
        )
    return np.repeat(np.arange(n_communities), n // n_communities)


def probability_matrix(assignment, block):
    """Expand block probabilities to the n x n edge probability matrix."""
    assignment = np.asarray(assignment)
    block = np.asarray(block, dtype=float)
    if assignment.max() >= block.shape[0]:
        raise ValidationError("community index out of range for the block matrix")
    if not np.allclose(block, block.T):
        raise ValidationError("block matrix must be symmetric")
    if block.min() < 0.0 or block.max() > 1.0:
        raise ValidationError("block probabilities must lie in [0, 1]")
    return block[np.ix_(assignment, assignment)]


@functools.lru_cache(maxsize=4)
def _chunking(n, label_starts):
    """The sampler's read-only layout on n nodes, row labels changing at
    label_starts: the mask of the cells j > i of a chunk's rectangle (rows from
    first, columns from first + 1), and the chunks (first, last), whole rows of
    one label, at most _CHUNK_DRAWS // n."""
    step = max(1, _CHUNK_DRAWS // n)
    splits = sorted({*range(step, n - 1, step), *label_starts})
    upper = np.arange(n - 1) >= np.arange(min(step, n - 1))[:, None]
    upper.flags.writeable = False
    return upper, tuple(zip([0, *splits], [*splits, n - 1]))


def _sample_upper(levels, rows, seed):
    """A new bool (n, n) symmetric hollow graph: edge {i, j}, i < j, iff
    u_ij < levels[rows[i], j].

    One Philox stream per graph gives the uniform draws u of the strict upper
    triangle, row by row, as raw 64-bit words r with u = (r >> 11) 2^-53. So
    u < L exactly when r >> 11 < ceil(L 2^53), an integer test that needs no
    float draws and stays exact at L = 0 and L = 1. The words come chunk by
    chunk (_chunking). Where the chunk's columns share one threshold they are
    compared in stream order and the results scattered to the cells j > i;
    else they are scattered into a rectangle of the chunk's rows and columns,
    compared with the thresholds straight into the graph, and masked to j > i.
    The graph is mirrored in tiles of _TILE rows, each read while in cache.
    """
    n = levels.shape[1]
    bits = np.random.Philox(_check_seed(seed))
    thresholds = np.ceil(levels * 2.0**53).astype(np.uint64)
    # the column from which each label's thresholds hold one value
    flat = [int(np.flatnonzero(row != row[-1])[-1:].sum()) + 1 for row in thresholds]
    upper, chunks = _chunking(n, tuple((np.flatnonzero(np.diff(rows[: n - 1])) + 1).tolist()))
    a = np.zeros((n, n), dtype=bool)
    scratch = np.empty(upper.size, np.uint64)
    for first, last in chunks:
        # rows first..last-1 hold n-1-first down to n-last draws
        words = bits.random_raw((2 * n - 1 - first - last) * (last - first) // 2)
        np.right_shift(words, 11, out=words)
        mask, label = upper[: last - first, : n - 1 - first], rows[first]
        block = a[first:last, first + 1 :]
        if first + 1 >= flat[label]:
            block[mask] = words < thresholds[label, -1]
            continue
        rect = scratch[: mask.size].reshape(mask.shape)
        rect[mask] = words
        np.less(rect, thresholds[label, first + 1 :], out=block)
        block &= mask
    for i in range(0, n, _TILE):
        a[i : i + _TILE, :i] = a[:i, i : i + _TILE].T
        corner = a[i : i + _TILE, i : i + _TILE]
        corner |= corner.T
    return a


class GraphStore(Sequence):
    """The graphs of a collection; item k is graph k as a float64 (n, n) array.

    Binary graphs are held as packed bit rows (np.packbits along each row,
    ceil(n/8) bytes per row) and unpacked on every access, so a reader that
    takes one item at a time holds one float graph. Real-valued (noiseless)
    graphs are held as float64 arrays. The constructor trusts its items
    but for there being at least one; from_arrays validates them first.
    """

    def __init__(self, items, node_count, binary):
        self._items = tuple(items)
        if not self._items:
            raise ValidationError("a collection needs at least one graph")
        self.node_count = node_count
        self.binary = binary

    @classmethod
    def from_arrays(cls, graphs, binary):
        """Validate square matrices on a shared node set and store them.

        Binary graphs must be 0/1, symmetric and hollow; real-valued ones
        finite, symmetric and in [0, 1]. Raises ValidationError naming the
        first graph that breaks a rule.
        """
        graphs = [np.asarray(a, dtype=float) for a in graphs]
        # no graphs at all fall through to the constructor's check
        n = graphs[0].shape[0] if graphs and graphs[0].ndim else 0
        for k, a in enumerate(graphs):
            if n < 1 or a.shape != (n, n):
                raise ValidationError("graphs must be square, on one node set")
            if binary:
                # every nonzero entry, NaN included, must be a 1
                bits = a == 1.0
                if np.count_nonzero(bits) != np.count_nonzero(a):
                    raise ValidationError(f"graph {k} has an entry other than 0 and 1")
                a = bits
            elif not (np.isfinite(a).all() and 0.0 <= a.min() <= a.max() <= 1.0):
                raise ValidationError(f"graph {k} has an entry outside [0, 1]")
            if not (a == a.T).all():
                raise ValidationError(f"graph {k} is not symmetric")
            if binary:
                if a.diagonal().any():
                    raise ValidationError(f"graph {k} has a self-loop")
                graphs[k] = np.packbits(a, axis=1)
        return cls(graphs, n, binary)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, k):
        return self._unpack(operator.index(k), float)

    def _unpack(self, k, dtype):
        """Graph k, unpacked into a new dtype array if binary, else as stored."""
        if not self.binary:
            return self._items[k]
        return np.unpackbits(self._items[k], axis=1, count=self.node_count).astype(dtype)

    def map(self, fn, indices=None):
        """[fn(graph k, k) for k in indices], by default every graph, in order.

        Each call runs on one BLAS thread, above SPREAD_MIN_N nodes spread over
        worker threads (blas.map_pinned). Binary graphs are unpacked for each
        call, to float32 above SPREAD_MIN_N nodes (exact 0/1, for
        eigen.product), float64 below; indexing the store returns float64.
        Real-valued graphs come as stored.
        """
        n = self.node_count
        dtype = np.float32 if n > SPREAD_MIN_N else float
        return blas.map_pinned(
            lambda k: fn(self._unpack(k, dtype), k),
            range(len(self)) if indices is None else indices,
            _spread_width(n),
        )

    @functools.cached_property
    def edge_counts(self):
        """Undirected edges of each graph, exact integer popcounts.

        Each edge sets two bits, one in each endpoint's row; the padding bits
        of a packed row are zero.
        """
        if not self.binary:
            raise ValidationError("edge counts need binary graphs")
        return tuple(int(np.bitwise_count(rows).sum()) // 2 for rows in self._items)


@dataclass(frozen=True)
class GraphCollection:
    """Ordered graphs on a shared node set, responses on the first s.

    graphs is a GraphStore; matrices passed in instead are binary, and are
    validated and stored in one. A store of real-valued graphs makes the
    collection noiseless (see noiseless_collection). Responses must be finite
    real numbers (no bools) and are stored as a tuple of floats.
    """

    graphs: GraphStore
    responses: tuple = None

    def __post_init__(self):
        if not isinstance(self.graphs, GraphStore):
            object.__setattr__(self, "graphs", GraphStore.from_arrays(self.graphs, binary=True))
        if self.responses is not None:
            responses = tuple(self.responses)
            if len(responses) > len(self.graphs):
                raise ValidationError("more responses than graphs")
            if not all(
                isinstance(y, numbers.Real) and not isinstance(y, bool) and math.isfinite(y)
                for y in responses
            ):
                raise ValidationError("responses must be finite real numbers")
            object.__setattr__(self, "responses", tuple(map(float, responses)))

    @property
    def noiseless(self):
        return not self.graphs.binary

    @property
    def node_count(self):
        return self.graphs.node_count

    @property
    def n_graphs(self):
        return len(self.graphs)

    @property
    def n_labeled(self):
        return 0 if self.responses is None else len(self.responses)


def _block_sequence(ts, variant):
    return [build_block_probability(t, variant) for t in ts]


def sample_collection(ts, n, variant, base_seed, responses=None):
    """Sample one graph per t from the balanced 2-block model.

    Graph k is seeded with base_seed ^ k, so collections are reproducible
    and individual graphs can be re-sampled in isolation. Row i of graph k
    reads its edge probabilities from the block labels, B[z_i, z_j] for
    j > i, and the sampled bits go to the store packed. Above SPREAD_MIN_N
    nodes the graphs are sampled one per worker thread.
    """
    base_seed = _check_seed(base_seed)
    assignment = balanced_membership(n, 2)
    levels = [block[:, assignment] for block in _block_sequence(ts, variant)]

    rows = blas.map_pinned(
        lambda k: np.packbits(_sample_upper(levels[k], assignment, base_seed ^ k), axis=1),
        range(len(levels)),
        _spread_width(n),
    )
    return GraphCollection(GraphStore(rows, n, binary=True), responses)


def noiseless_collection(ts, n, variant, responses=None):
    """Deterministic collection with A^(k) := P^(k) (real-valued mode).

    P keeps its diagonal: hollowing would break the exact rank-d structure
    that makes noiseless score recovery exact. Pair with a sparsity override
    of 1.0 when embedding.
    """
    assignment = balanced_membership(n, 2)
    graphs = GraphStore.from_arrays(
        [probability_matrix(assignment, block) for block in _block_sequence(ts, variant)],
        binary=False,
    )
    return GraphCollection(graphs, responses)
