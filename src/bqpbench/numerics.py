"""Dense symmetric linear algebra kernel.

Everything else in the package funnels its matrix work through here:
Cholesky factorization as the positive-definiteness witness (one LAPACK
``dpotrf`` call), solves against the factor (one LAPACK ``dpotrs``
call), and an iterative extremal-eigenvalue estimate for semidefiniteness
checks.  Matrices are plain float64 numpy arrays; symmetry is validated
exactly (entrywise equality) at every entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack


class DimensionMismatch(ValueError):
    """Operand shapes do not agree."""


class NotPositiveDefinite(Exception):
    """Cholesky pivot failure: the matrix is not positive definite.

    ``pivot`` is the index of the first pivot that fell below the
    acceptance threshold.
    """

    def __init__(self, pivot: int):
        super().__init__(f"not positive definite (pivot {pivot} failed)")
        self.pivot = pivot


class NoConvergence(Exception):
    """The iterative eigenvalue estimate exceeded its iteration cap."""


def require_symmetric(a) -> np.ndarray:
    """Validate and return ``a`` as a square, exactly symmetric float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    return a


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L with A = L @ L.T.

    All diagonal entries of ``lower`` are strictly positive; existence of
    this object is the computational witness that the factored matrix is
    positive definite.
    """

    n: int
    lower: np.ndarray


def spd_factorize(a) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix, or fail with the bad pivot.

    Succeeds exactly when the matrix is positive definite: every pivot
    ``L[j, j]**2`` must exceed ``1e-12 * (1 + max |diagonal|)``, which
    rejects the numerically singular weakly-dominant matrices that
    row-sum shifted instances can produce.  LAPACK's ``dpotrf`` does the
    factorization; when it stops at a non-positive pivot, an earlier
    pivot below the tolerance is still the one reported.  Raises
    :class:`NotPositiveDefinite` carrying the index of the first failing
    pivot.
    """
    a = require_symmetric(a)
    n = a.shape[0]
    pivot_tol = 1e-12 * (1.0 + float(np.abs(a.diagonal()).max()))
    lower, info = lapack.dpotrf(a, lower=1)
    # info > 0 names (1-based) the pivot LAPACK could not take; the
    # pivots before it are valid and still face the tolerance.
    checked = info - 1 if info > 0 else n
    small = np.flatnonzero(~(lower.diagonal()[:checked] ** 2 > pivot_tol))
    if small.size:
        raise NotPositiveDefinite(int(small[0]))
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    return SpdFactor(n=n, lower=lower)


def spd_solve(factor: SpdFactor, b) -> np.ndarray:
    """Solve A x = b through the Cholesky factor of A (LAPACK ``dpotrs``).

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"right-hand side of shape {b.shape} does not match factor dimension {factor.n}"
        )
    x, _ = lapack.dpotrs(factor.lower, b, lower=1)
    return x


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Runs Lanczos with full reorthogonalization on the Gershgorin-shifted
    matrix ``s*I - A`` (positive semidefinite by construction), so only
    the extreme eigenvalue is computed; a full spectral decomposition is
    wasteful at large dimensions.  Converged when the Ritz residual and
    the Ritz value stagnate below ``1e-10 * (1 + ||A||_inf)``.  Exact
    breakdown starts a fresh orthogonal block, so exhausting all n basis
    vectors yields the exact extreme eigenvalue; the matrix is PSD iff
    the result is >= -1e-8 * (1 + ||A||_inf).
    """
    a = require_symmetric(a)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])

    norm = float(np.abs(a).sum(axis=1).max())
    conv_tol = 1e-10 * (1.0 + norm)
    breakdown_tol = 1e-13 * (1.0 + norm)
    # Row-sum (Gershgorin) upper bound on the largest eigenvalue.
    shift = float((a.diagonal() + np.abs(a).sum(axis=1) - np.abs(a.diagonal())).max())

    rng = np.random.default_rng(0x5A2C6E1)
    cap = 10 * n
    basis = np.zeros((n, n))
    total = 0
    matvecs = 0
    best = -math.inf
    dead_starts = 0

    while total < n:
        # Fresh start vector orthogonal to everything retained so far.
        v = rng.standard_normal(n)
        v -= basis[:, :total] @ (basis[:, :total].T @ v)
        nv = float(np.linalg.norm(v))
        if nv <= 1e-8:
            dead_starts += 1
            if dead_starts > 20:
                raise NoConvergence("could not extend the orthonormal basis")
            continue
        v /= nv

        alphas: list[float] = []
        betas: list[float] = []
        block_start = total
        prev_theta = None
        while True:
            basis[:, total] = v
            total += 1
            if matvecs >= cap:
                raise NoConvergence(f"no convergence within {cap} iterations")
            w = shift * v - a @ v
            matvecs += 1
            alphas.append(float(v @ w))
            # Full reorthogonalization keeps the basis numerically orthonormal.
            w -= basis[:, :total] @ (basis[:, :total].T @ w)
            w -= basis[:, :total] @ (basis[:, :total].T @ w)
            beta = float(np.linalg.norm(w))

            k = total - block_start
            if k == 1:
                theta, tail = alphas[0], 1.0
            else:
                vals, vecs = eigh_tridiagonal(
                    alphas, betas, select="i", select_range=(k - 1, k - 1)
                )
                theta, tail = float(vals[0]), float(vecs[-1, 0])

            if beta <= breakdown_tol or total == n:
                # Invariant subspace (or full span): the block's Ritz max is exact.
                best = max(best, theta)
                break
            residual = beta * abs(tail)
            if residual <= conv_tol and prev_theta is not None and abs(theta - prev_theta) <= conv_tol:
                return shift - max(best, theta)
            prev_theta = theta
            betas.append(beta)
            v = w / beta

    # Every block closed on an invariant subspace and the blocks span the
    # whole space, so the accumulated maximum is exact.
    return shift - best
