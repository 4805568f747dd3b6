"""Every dense factorization: MASE's bases and joint SVD, classical scaling.

Full and partial eigensolves and the SVD run on one BLAS thread (their bits
vary with the thread count); canonical_signs fixes every returned sign.
"""

import math
import warnings

import numpy as np
from scipy.linalg import lapack

from . import blas
from .errors import ValidationError

# Crossover node count: up to it a full dense eigh is the cheaper route (and
# the only one the power schedule, n <= 92, ever takes).
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
        eigvals, eigvecs = np.linalg.eigh(a)
    values, order = _descending(eigvals, signed)
    return values, eigvecs[:, order[:k]]


def _partial_eigenpairs(a, k, signed=False):
    """The k+1 largest eigenvalues (see _descending) and the top-k eigenvectors.

    One tridiagonalization (dsytrd, blocked through its workspace query),
    bisection (dstebz) for the k+1 largest signed eigenvalues, and for the
    modulus order also the k+1 smallest, among which the k+1 largest moduli
    lie; inverse iteration (dstein) for the top-k vectors, and the reflectors
    applied back (dormqr). Should dstebz or dstein fail, eigh answers.
    """
    n = a.shape[0]
    m = min(k + 1, n)
    bounds = [(n - m + 1, n)]
    if not signed:
        bounds = [(1, n)] if 2 * m >= n else [(1, m)] + bounds
    # bisection to full accuracy, the tolerance LAPACK advises ahead of dstein
    tol = 2 * np.finfo(float).tiny
    with blas.single_thread():
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        reflectors, diag, off, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork)
        found = [
            lapack.dstebz(diag, off, 2, 0.0, 0.0, lo, hi, tol, b"B") for lo, hi in bounds
        ]
        if any(f[-1] for f in found):
            return _dense_eigenpairs(a, k, signed)
        isplit = found[0][3]
        eigvals = np.concatenate([f[1][: f[0]] for f in found])
        blocks = np.concatenate([f[2][: f[0]] for f in found])
        ascending = np.argsort(eigvals, kind="stable")
        eigvals, blocks = eigvals[ascending], blocks[ascending]
        values, order = _descending(eigvals, signed)
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
            return _dense_eigenpairs(a, k, signed)
        vectors[1:], _, _ = lapack.dormqr(
            b"L", b"N", reflectors[1:, :-1], tau, vectors[1:], 64 * k
        )
    return values[:m], vectors[:, np.argsort(grouping)]


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
    once when the Ritz gap is not positive, or once it has _stalled.

    Returns (descending moduli, (n, d) basis, final block): the last (n, k)
    iterate, k the column count of start, or the partial solve's top k
    eigenvectors (and k+1 moduli) after a hand-over.
    """
    q, _ = np.linalg.qr(start)
    norms = []
    for _ in range(_MAX_ITER):
        y = a @ q
        ritz = q.T @ y
        theta, s = np.linalg.eigh((ritz + ritz.T) / 2.0)
        svals, order = _descending(theta, False)
        s = s[:, order[:d]]
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


def top_eigenpairs(a, k, signed=False, start=None):
    """Top-k eigenpairs of an unchecked symmetric float matrix, by modulus or signed.

    Up to DENSE_MAX_N rows one dense eigh. Above it, by modulus, block
    iteration on A @ A from start or a fixed Philox (n, k+2) block; signed,
    the partial solve, since A @ A ranks by modulus only.

    Returns (values, vectors, block): at least min(k+1, n) eigenvalues in
    descending order, moduli or signed; the (n, k) eigenvectors under
    canonical_signs; and the iteration's final block, to warm-start the next
    matrix, or None off that route. Warns on a modulus tie at the k/(k+1)
    boundary, where the top-k subspace is ill-defined.
    """
    n = a.shape[0]
    block = None
    if n <= DENSE_MAX_N:
        values, vectors = _dense_eigenpairs(a, k, signed)
    elif signed:
        values, vectors = _partial_eigenpairs(a, k, signed)
    else:
        if start is None:
            rng = np.random.Generator(np.random.Philox(0x5EED5EED))
            start = rng.standard_normal((n, min(k + 2, n)))
        values, vectors, block = _subspace_iteration(a, k, start)
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
