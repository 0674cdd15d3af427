"""Boolean quadratic program data and its Lagrangian dual machinery.

A problem instance is ``minimize 0.5 * x'Qx - c'x`` over sign vectors
``x in {-1, +1}^n``.  Attaching one multiplier per coordinate shifts the
quadratic to ``Q + diag(lam)``; whenever that shift is positive definite
the dual function has the closed form ``-0.5 * c'(Q + diag(lam))^-1 c -
0.5 * sum(lam)``, which this module evaluates together with its gradient
through a single cached factorization: one LAPACK Cholesky and one LAPACK
solve per multiplier point.  The explicit Hessian costs n more solves and
is formed only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionMismatch,
    NotPositiveDefinite,
    SpdFactor,
    require_symmetric,
    spd_factorize,
    spd_solve,
)


class Infeasible(Exception):
    """The multiplier-shifted matrix is not positive definite, so the
    dual function is undefined at this point."""


def as_vector(v, n: int | None = None) -> np.ndarray:
    """Validate a finite 1-D float vector, optionally of fixed length."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"expected length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_sign_vector(x, n: int | None = None) -> np.ndarray:
    """Validate a vector whose entries are exactly -1 or +1."""
    x = as_vector(x, n)
    if not (np.abs(x) == 1.0).all():
        raise ValueError("sign vector entries must be exactly -1 or +1")
    return x


class BqpInstance:
    """Instance data: symmetric matrix ``q`` and linear term ``c``.

    ``q`` is validated to be exactly symmetric and ``c`` to be a finite
    vector of matching length (a zero ``c`` is accepted).  Both are kept
    as read-only copies, so code holding an instance does not check
    ``q`` again.
    """

    __slots__ = ("q", "c")

    def __init__(self, q, c):
        q = require_symmetric(q).copy()
        c = as_vector(c, q.shape[0]).copy()
        q.flags.writeable = False
        c.flags.writeable = False
        self.q = q
        self.c = c

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def __eq__(self, other):
        if not isinstance(other, BqpInstance):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.c, other.c)

    def __repr__(self):
        return f"BqpInstance(n={self.n})"


@dataclass
class DualState:
    """A multiplier point with cached feasibility evidence.

    ``feasible`` is true exactly when ``factor`` holds the Cholesky factor
    of the shifted matrix; ``x_of_lambda`` then solves
    ``(q + diag(lam)) x = c`` so that the dual value, gradient, and
    Hessian all reuse one factorization.
    """

    lam: np.ndarray
    feasible: bool
    factor: SpdFactor | None
    x_of_lambda: np.ndarray | None


def objective_value(inst: BqpInstance, x) -> float:
    """Objective ``0.5 * x'Qx - c'x`` at a sign vector."""
    x = as_sign_vector(x, inst.n)
    return float(0.5 * (x @ (inst.q @ x)) - inst.c @ x)


def q_of_lambda(q, lam) -> np.ndarray:
    """Shift the quadratic by the multipliers: ``Q + diag(lam)``."""
    q = require_symmetric(q)
    lam = as_vector(lam, q.shape[0])
    shifted = q.copy()
    shifted[np.diag_indices_from(shifted)] += lam
    return shifted


def lagrangian_value(inst: BqpInstance, x, lam) -> float:
    """Lagrangian ``0.5 * x'(Q + diag(lam))x - c'x - 0.5 * sum(lam)``.

    On sign vectors the multiplier terms cancel and this equals the
    objective, for any multipliers.
    """
    x = as_vector(x, inst.n)
    lam = as_vector(lam, inst.n)
    quad = x @ (inst.q @ x) + lam @ (x * x)
    return float(0.5 * quad - inst.c @ x - 0.5 * lam.sum())


def is_dual_feasible(inst: BqpInstance, lam) -> DualState:
    """Build the dual state at ``lam``, testing positive definiteness.

    The shifted matrix is built straight from the validated ``inst.q``
    and factorized once; ``x(lam)`` is one solve against that factor.
    Infeasibility is a state, not an error: the returned object simply
    carries ``feasible=False`` with no cached factor.
    """
    lam = as_vector(lam, inst.n)
    shifted = inst.q.copy()
    shifted.flat[:: inst.n + 1] += lam
    try:
        factor = spd_factorize(shifted)
    except NotPositiveDefinite:
        return DualState(lam=lam, feasible=False, factor=None, x_of_lambda=None)
    return DualState(lam=lam, feasible=True, factor=factor, x_of_lambda=spd_solve(factor, inst.c))


def dual_value(state: DualState, inst: BqpInstance) -> float:
    """Dual function value at a feasible state.

    Evaluated as ``-0.5 * c'x(lam) - 0.5 * sum(lam)`` through the cached
    linear solve; the shifted inverse is never formed explicitly.
    """
    if not state.feasible:
        raise Infeasible("dual value undefined: shifted matrix is not positive definite")
    return float(-0.5 * (inst.c @ state.x_of_lambda) - 0.5 * state.lam.sum())


def dual_gradient(state: DualState) -> np.ndarray:
    """Gradient of the dual function: entry i is ``0.5 * (x_i^2 - 1)``
    with ``x = x_of_lambda``."""
    if not state.feasible:
        raise Infeasible("dual gradient undefined: shifted matrix is not positive definite")
    x = state.x_of_lambda
    return 0.5 * (x * x - 1.0)


def dual_hessian(state: DualState) -> np.ndarray:
    """Hessian of the dual function, ``H[i,j] = -x_i * M[i,j] * x_j``
    where ``M`` is the inverse of the shifted matrix.

    Symmetric and negative semidefinite wherever the dual is defined.
    Forming ``M`` takes n solves against the cached factor; the solver
    needs it only when some entry of ``x(lam)`` is near zero (see
    ``dual_solver``).
    """
    if not state.feasible:
        raise Infeasible("dual Hessian undefined: shifted matrix is not positive definite")
    inv = spd_solve(state.factor, np.eye(state.factor.n))
    x = state.x_of_lambda
    h = -(x[:, None] * inv * x[None, :])
    return 0.5 * (h + h.T)
