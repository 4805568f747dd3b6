"""Every dense factorization: MASE's bases and joint SVD, classical scaling.

top_eigenpairs takes one of three routes, by matrix size and order: a full
eigh below PARTIAL_MIN_N rows; from there up to DENSE_MAX_N rows, and for
every larger signed solve, the partial solve (one tridiagonalization,
bisection and inverse iteration from numpy's OpenBLAS LAPACK, called through
ctypes, so replicate threads solve side by side); above DENSE_MAX_N by
modulus, warm-started block iteration, Chebyshev-filtered on sampled graphs,
which hands over to the partial solve when it stalls. Full and partial
eigensolves and the SVD factor float64 on one BLAS thread (their bits vary
with the thread count); the block iteration's products (product, exact on
float32 graphs) are pinned by MASE's per-graph pass (GraphStore.map), which
may run one graph per worker thread. canonical_signs fixes every sign.
"""

import functools
import math
import warnings

import numpy as np

from . import blas
from .errors import ValidationError

# Crossover node counts. Below PARTIAL_MIN_N a full eigh is the cheaper solve:
# the partial one spends some 50 us per call in Python and ctypes, holding the
# GIL, so two pool threads share it badly at small n (top 2 by modulus of
# sampled graphs, one BLAS thread each: 0.30 against 0.20 ms per solve at
# n=56, 0.31 against 0.32 at n=64 and 0.43 against 0.50 at n=80 in a 2-thread
# pool; on one thread it wins from about n=48). Up to DENSE_MAX_N the partial
# solve of the whole matrix beats block iteration, which needs only products
# A @ Q.
PARTIAL_MIN_N = 64
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
_SLICES = 4  # integer slices per column of X in product


def canonical_signs(basis):
    """A copy of basis, each column flipped so its largest-absolute entry is positive.

    Ties go to the lowest index (argmax picks the first maximum).
    """
    basis = np.array(basis, copy=True)
    anchors = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    basis[:, anchors < 0] *= -1.0
    return basis


def square_matrix(a):
    """a as a finite, non-empty (n, n) float array; ValidationError otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValidationError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def _warn_on_tie(values, d):
    gap = values[d - 1] - values[d] if len(values) > d else np.inf
    if gap <= _TIE_RTOL * max(values[0], 1.0):
        warnings.warn(
            f"singular values {d} and {d + 1} are tied "
            f"(gap {gap:.2e}); the rank-{d} subspace is ill-defined",
            RuntimeWarning,
            stacklevel=4,
        )


def _descending(eigvals, signed):
    """(values, order) of ascending eigenvalues, largest first by signed value or
    modulus. Signed ties keep the later column, modulus ties the negative one."""
    if signed:
        return eigvals[::-1], np.arange(eigvals.size)[::-1]
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return np.abs(eigvals)[order], order


def _dense_eigenpairs(a, k, signed=False):
    """All eigenvalues, descending (see _descending), and the top-k eigenvectors."""
    with blas.single_thread():
        eigvals, eigvecs = np.linalg.eigh(np.asarray(a, dtype=float))  # never in float32
    values, order = _descending(eigvals, signed)
    return values, eigvecs[:, order[:k]]


# Pointer arguments and hidden string lengths of each LAPACK routine of the
# partial solve.
_ROUTINES = {"dsytrd": (10, 1), "dstebz": (18, 2), "dstein": (13, 0), "dormtr": (13, 3)}


@functools.cache
def _lapack():
    """dsytrd, dstebz, dstein and dormtr through ctypes, or None without them."""
    routines = tuple(blas.lapack64(name, *arity) for name, arity in _ROUTINES.items())
    return None if None in routines else routines


# Bisection to full accuracy, the tolerance LAPACK advises ahead of dstein.
_ABSTOL = 2 * np.finfo(float).tiny


def _carve(**sizes):
    """Named arrays of 8-byte words in one new uninitialized buffer, and their
    addresses: Fortran takes every argument by address, scalars too, and one
    .ctypes lookup costs microseconds."""
    words = np.empty(sum(sizes.values()))
    base, start, views, addresses = words.ctypes.data, 0, {}, {}
    for name, size in sizes.items():
        views[name], addresses[name] = words[start : start + size], base + 8 * start
        start += size
    return views, addresses


def _partial_eigenpairs(a, k, signed=False):
    """The k+1 largest eigenvalues (see _descending) and the top-k eigenvectors.

    One tridiagonalization (dsytrd), bisection (dstebz) for the k+1 largest
    signed eigenvalues, and for the modulus order also the k+1 smallest, among
    which the k+1 largest moduli lie; inverse iteration (dstein) for the top-k
    vectors, and the reflectors applied back, unblocked (dormtr). The routines
    are numpy's OpenBLAS LAPACK, called through ctypes, so other threads run
    meanwhile. Should dstebz or dstein fail, or the routines be missing, eigh
    answers.
    """
    routines = _lapack()
    if routines is None:
        return _dense_eigenpairs(a, k, signed)
    dsytrd, dstebz, dstein, dormtr = routines
    n = a.shape[0]
    m, top_k = min(k + 1, n), min(k, n)
    bounds = [(n - m + 1, n)]
    if not signed:
        bounds = [(1, n)] if 2 * m >= n else [(1, m)] + bounds
    # Blocked dsytrd takes 64 words per row plus a 65 x 64 block, dstebz and
    # dstein at most 5n. dormtr gets the least it accepts, k words, and so
    # applies the reflectors one at a time (dorm2l): forming compact-WY blocks
    # of them costs more than the few sweeps over k columns. w and iblock hold
    # one bisection per n words, then the eigenvalues handed to dstein.
    lwork = 64 * n + 65 * 64
    x, at = _carve(
        a=n * n, d=n, e=n, tau=n, w=2 * n, iblock=2 * n, isplit=n, z=top_k * n,
        work=lwork, iwork=3 * n, ifail=top_k, reals=2, ints=8,
    )
    ints, iblock = x["ints"].view(np.int64), x["iblock"].view(np.int64)
    ints[:3] = n, lwork, top_k
    n_, lwork_, k_, il, iu, m_, nsplit, info = (at["ints"] + 8 * j for j in range(8))
    index_range, found, status = ints[3:5], ints[5:6], ints[7:8]
    vl, abstol = at["reals"], at["reals"] + 8
    x["reals"][:] = 0.0, _ABSTOL
    # Fortran reads the C-ordered matrix as its transpose, whose upper triangle
    # is the lower one eigh reads; dsytrd overwrites it with its reflectors.
    np.copyto(x["a"].reshape(n, n), a)
    rows = []
    with blas.single_thread():
        dsytrd(b"U", n_, at["a"], n_, at["d"], at["e"], at["tau"], at["work"], lwork_, info, 1)
        for j, bound in enumerate(bounds):
            index_range[:] = bound
            dstebz(b"I", b"B", n_, vl, vl, il, iu, abstol, at["d"], at["e"], m_, nsplit,
                   at["w"] + 8 * n * j, at["iblock"] + 8 * n * j, at["isplit"], at["work"],
                   at["iwork"], info, 1, 1)
            if status[0]:
                return _dense_eigenpairs(a, k, signed)
            rows.append(slice(n * j, n * j + int(found[0])))
        eigvals = np.concatenate([x["w"][r] for r in rows])
        blocks = np.concatenate([iblock[r] for r in rows])
        ascending = eigvals.argsort(kind="stable")
        eigvals, blocks = eigvals[ascending], blocks[ascending]
        values, order = _descending(eigvals, signed)
        # dstein takes its eigenvalues grouped by split-off block, ascending
        # within each block
        top = order[:k]
        grouping = np.lexsort((eigvals[top], blocks[top]))
        x["w"][:top_k], iblock[:top_k] = eigvals[top[grouping]], blocks[top[grouping]]
        dstein(n_, at["d"], at["e"], k_, at["w"], at["iblock"], at["isplit"], at["z"], n_,
               at["work"], at["iwork"], at["ifail"], info)
        if status[0]:
            return _dense_eigenpairs(a, k, signed)
        dormtr(b"L", b"U", b"N", n_, k_, at["a"], n_, at["tau"], at["z"], n_, at["work"],
               k_, info, 1, 1, 1)
    # column j of the Fortran (n, k) array z is row j here
    return values[:m], x["z"].reshape(top_k, n)[grouping.argsort()].T


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


def _slices(x, bits):
    """(scale, slices): x over its column maxima cut into _SLICES float32 integers,
    slice i weighing 2^(-bits (i+1)), to within 2^-(_SLICES bits + 1)."""
    scale = np.maximum(np.abs(x, order="F").max(axis=0), np.finfo(float).tiny)
    rest, slices = x / scale, np.empty((x.shape[0], _SLICES, x.shape[1]), np.float32)
    for i in range(_SLICES):
        rest = np.ldexp(rest, bits)
        cut = np.rint(rest)
        rest -= cut
        slices[:, i] = cut
    return scale, slices


def product(a, x):
    """A @ X; for a float32 0/1 A exact but for the float64 recombination: with
    X's slices of B = floor(log2(2^24/n)) bits each sgemm partial sum is an
    integer of modulus <= n 2^B <= 2^24, so no BLAS thread count or kernel moves a bit."""
    if a.dtype != np.float32:
        return a @ x
    bits = (2**24 // len(x)).bit_length() - 1
    scale, slices = _slices(x, bits)
    sums = (a @ slices.reshape(len(x), -1)).reshape(slices.shape).transpose(1, 0, 2)
    sums = sums.astype(float, order="C")  # one contiguous (n, k) block per slice
    y = sums[-1]
    for i in range(_SLICES - 2, -1, -1):
        y = np.ldexp(y, -bits) + sums[i]
    return y * np.ldexp(scale, -bits)


def _filter_degree(wanted, spare, n, density, excess):
    """(e, m) of the Chebyshev step Q = qr(T_m(A/e) Q), or None for qr(A A Q): e =
    max(spare |θ_{d+1}|, bulk edge 1.05 · 2√(nρ(1−ρ)) at edge density ρ, Lei &
    Rinaldo 2015); T_m(A/e) grows wanted |θ_d| by r^m, log r = acosh(|θ_d|/e), so
    m in [2, 6] meets the residual's excess over target (above 6, θ_1 could
    outgrow θ_d by 10^4 a step). None without ρ, or unless 0 < e < |θ_d|."""
    if density is not None:
        edge = max(spare, 1.05 * 2.0 * math.sqrt(n * density * (1.0 - density)))
        if 0.0 < edge < wanted:
            return edge, min(max(math.ceil(math.log(excess) / math.acosh(wanted / edge)), 2), 6)
    return None


def _subspace_iteration(a, d, start, density=None):
    """Top-d eigenvectors of A by modulus via (Chebyshev-filtered) block iteration.

    Each step forms Y = A Q for the Rayleigh-Ritz projection QᵀAQ, whose signed
    Ritz values and vectors approximate the top eigenpairs of A, then moves on
    to qr(T_m(A/e) Q), m products from T_1 = Y/e (_filter_degree; |T_m| keeps
    A's modulus order), or to qr(A Y). The solve stops once the top-d Ritz
    residual ||A U - U Θ||_F falls below _RESIDUAL_TOL times the Ritz gap
    |θ_d| - |θ_{d+1}|, which bounds the distance to the true top-d projector;
    a tied or slowly separating boundary never does. It hands over to
    _partial_eigenpairs after _MAX_ITER steps, at once when the Ritz gap is
    not positive, or once it has _stalled.

    Returns (descending moduli, (n, d) basis, final block): the last (n, k)
    iterate, k the column count of start, or the partial solve's top k
    eigenvectors (and k+1 moduli) after a hand-over.
    """
    q, _ = np.linalg.qr(start)
    norms = []
    for _ in range(_MAX_ITER):
        y = product(a, q)
        ritz = q.T @ y
        theta, s = np.linalg.eigh((ritz + ritz.T) / 2.0)
        svals, order = _descending(theta, False)
        s = s[:, order[:d]]
        residual = y @ s - (q @ s) * theta[order[:d]]
        spare = svals[d] if svals.size > d else 0.0
        target = _RESIDUAL_TOL * (svals[d - 1] - spare)
        norms.append(np.linalg.norm(residual))
        if norms[-1] < target:
            return svals, q @ s, q
        if target <= 0.0 or _stalled(norms, target):
            break
        chebyshev = _filter_degree(svals[d - 1], spare, len(a), density, norms[-1] / target)
        if chebyshev is None:
            q, _ = np.linalg.qr(product(a, y))
            continue
        edge, degree = chebyshev
        previous, block = q, y / edge
        for _ in range(degree - 1):
            previous, block = block, 2.0 * product(a, block) / edge - previous
        q, _ = np.linalg.qr(block)
    svals, block = _partial_eigenpairs(a, q.shape[1])
    return svals, block[:, :d], block


def top_eigenpairs(a, k, signed=False, start=None, density=None):
    """Top-k eigenpairs of an unchecked symmetric float matrix, by modulus or signed.

    Below PARTIAL_MIN_N rows one dense eigh; signed, or up to DENSE_MAX_N
    rows, the partial solve (float64); above it, by modulus, block iteration from
    start or a fixed Philox (n, k+2) block, filtered given a 0/1 A's density.

    Returns (values, vectors, block): at least min(k+1, n) eigenvalues in
    descending order, moduli or signed; the (n, k) eigenvectors under
    canonical_signs; and the iteration's final block, to warm-start the next
    matrix, or None off that route. Warns on a modulus tie at the k/(k+1)
    boundary, where the top-k subspace is ill-defined.
    """
    n = a.shape[0]
    block = None
    if n < PARTIAL_MIN_N:
        values, vectors = _dense_eigenpairs(a, k, signed)
    elif signed or n <= DENSE_MAX_N:
        values, vectors = _partial_eigenpairs(a, k, signed)
    else:
        if start is None:
            rng = np.random.Generator(np.random.Philox(0x5EED5EED))
            start = rng.standard_normal((n, min(k + 2, n)))
        values, vectors, block = _subspace_iteration(a, k, start, density)
    if not signed:
        _warn_on_tie(values, k)
    return values, canonical_signs(vectors), block


def left_singular_vectors(m, k):
    """Top-k left singular vectors under canonical_signs, on one BLAS thread.

    Warns when the singular values at the k/(k+1) boundary are tied.
    """
    with blas.single_thread():
        u, svals, _ = np.linalg.svd(m, full_matrices=False)
    _warn_on_tie(svals, k)
    return canonical_signs(u[:, :k])
