"""Boolean quadratic program data and its Lagrangian dual machinery.

A problem instance is ``minimize 0.5 * x'Qx - c'x`` over sign vectors
``x in {-1, +1}^n``.  Attaching one multiplier per coordinate shifts the
quadratic to ``Q + diag(lam)``; whenever that shift is positive definite
the dual function has the closed form ``-0.5 * c'(Q + diag(lam))^-1 c -
0.5 * sum(lam)``, which this module evaluates together with its gradient
from one LAPACK Cholesky and one LAPACK solve per multiplier point; a
dual point keeps only ``lam``, the solved ``x(lam)`` and the dual value
read off it, and nothing evaluates the dual apart from that point.
Each instance memoizes its last feasible dual state, so a multiplier
point that the generator, the solver, ``verify`` and the Schur check all
ask about is factorized at most once.  The explicit Hessian factorizes
again and costs n more solves; it is a reference for the solver's Newton
step.

A dual state is built by one of two entries with the same results.
:func:`is_dual_feasible` validates ``lam`` and factorizes through
:func:`numerics.spd_factorize`; ``verify``, the Schur check, the
solver's start point and its primal tries use it, and so does the
generator on a draw whose shift its dominance proof leaves undecided.
The solver's line search, which forms each trial ``lam`` itself, uses
the private ``_trial_state``, which validates nothing again and
factorizes through the Cholesky kernel directly.  Both end in the
private ``_feasible_state``, which takes the dual value at the solved
``x(lam)`` and memoizes the state; the generator calls it directly for
a shift it has proven positive definite, where ``x(lam)`` is the
planted ``x`` exactly, so its planted point is factorized not at all.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionMismatch,
    NotPositiveDefinite,
    _cholesky,
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


def require_count(value, name: str, low: int) -> None:
    """Require an integer (``operator.index``: no float) of at least ``low``."""
    try:
        if operator.index(value) >= low:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer of at least {low}")


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
    ``q`` again.  The instance also holds the last feasible
    :class:`DualState` that :func:`is_dual_feasible` built for it (its
    ``lam``, ``x(lam)`` and dual value, no n x n array of its own).
    """

    __slots__ = ("q", "c", "_dual_memo")

    def __init__(self, q, c):
        q = require_symmetric(q).copy()
        c = as_vector(c, q.shape[0]).copy()
        q.flags.writeable = False
        c.flags.writeable = False
        self.q = q
        self.c = c
        self._dual_memo = None

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def __eq__(self, other):
        if not isinstance(other, BqpInstance):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.c, other.c)

    def __repr__(self):
        return f"BqpInstance(n={self.n})"


@dataclass(frozen=True, eq=False)
class DualState:
    """A multiplier point, its solved vector and its dual value.

    ``x_of_lambda`` solves ``(q + diag(lam)) x = c`` where the shift is
    positive definite (``feasible``), else None; ``q`` is the instance's
    read-only matrix itself.  ``value`` is the dual function
    ``-0.5 * c'x(lam) - 0.5 * sum(lam)`` at a feasible state (-inf where
    that overflows float64) and NaN (the default) at an infeasible one,
    where the dual is undefined.  A feasible state may be handed to every
    later caller at the same ``lam`` (see :func:`is_dual_feasible`), so
    its ``lam`` and ``x_of_lambda`` are read-only and ``lam`` is its own
    copy.  States compare and hash by identity, the sense in which the
    memo hands one out.
    """

    lam: np.ndarray
    q: np.ndarray
    x_of_lambda: np.ndarray | None
    value: float = math.nan

    @property
    def feasible(self) -> bool:
        return self.x_of_lambda is not None


class Certificate:
    """Optimality witness: sign vector ``x`` and multipliers ``lam``.

    The generator plants one, a certified solve yields one, and
    ``verify`` checks one.  For generated instances the shifted matrix is
    positive definite and ``(Q + diag(lam)) x = c`` holds exactly while
    every entry is below 2**53 in magnitude.
    """

    __slots__ = ("x", "lam")

    def __init__(self, x, lam):
        x = as_sign_vector(x).copy()
        lam = as_vector(lam, x.shape[0]).copy()
        x.flags.writeable = False
        lam.flags.writeable = False
        self.x = x
        self.lam = lam

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.lam, other.lam)

    def __repr__(self):
        return f"Certificate(n={self.x.shape[0]})"


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


def is_dual_feasible(inst: BqpInstance, lam) -> DualState:
    """Build the dual state at ``lam``, testing positive definiteness.

    The shifted matrix is built straight from the validated ``inst.q``
    and factorized once, in place; ``x(lam)`` is one solve against that
    factor, which is then let go, so the state holds no n x n array.  The
    dual value ``-0.5 * c'x(lam) - 0.5 * sum(lam)`` is computed here, once,
    and stored as ``value``; where that sum overflows float64 (data near
    the limit) the value is -inf, still a valid lower bound, so NaN means
    infeasible only.  Infeasibility is a state, not an error: the
    returned object simply carries ``x_of_lambda=None`` (``feasible``
    false) and a NaN ``value``.  A shifted diagonal that overflows float64
    is infeasible too.

    A feasible state is memoized on ``inst`` (one slot, replaced by the
    next feasible point), and a ``lam`` bitwise equal to the memoized one
    returns that same object without factorizing: each multiplier point
    is factorized at most once while it is the instance's latest.  The
    state keeps a read-only copy of ``lam``, so writing into the caller's
    array afterwards only makes the next call miss.

    This is the validating entry, for any caller: ``lam`` is checked with
    :func:`as_vector` and the shift with :func:`numerics.spd_factorize`.
    The solver's line search tests the multipliers it forms itself
    through :func:`_trial_state` instead, with the same results.
    """
    lam = as_vector(lam, inst.n)
    memo = _memo_hit(inst, lam)
    if memo is not None:
        return memo
    try:
        with np.errstate(over="raise"):
            shifted = _shifted(inst, lam)
        factor = spd_factorize(shifted, overwrite=True)
    except (FloatingPointError, NotPositiveDefinite):
        return DualState(lam=lam, q=inst.q, x_of_lambda=None)
    with np.errstate(over="ignore", invalid="ignore"):
        return _feasible_state(inst, lam.copy(), spd_solve(factor, inst.c))


def _trial_state(inst: BqpInstance, lam: np.ndarray) -> DualState:
    """:func:`is_dual_feasible` for multipliers the caller formed itself.

    ``lam`` must be a fresh float64 vector of length ``inst.n`` that the
    caller never writes again: the state keeps it, read-only, without a
    copy.  The call must run under the caller's ``np.errstate(over=
    "ignore", invalid="ignore")``.  Nothing is validated again: ``inst.q``
    was when the instance was built, and the shift is factorized by
    :func:`numerics._cholesky` directly.  The results are those of
    :func:`is_dual_feasible`, bit for bit, memo included.  A shifted
    diagonal that overflows, and a ``lam`` that is not finite, fail the
    kernel's pivot rule, so such a trial is infeasible.
    """
    memo = _memo_hit(inst, lam)
    if memo is not None:
        return memo
    factor = _cholesky(_shifted(inst, lam))
    if factor is None:
        return DualState(lam=lam, q=inst.q, x_of_lambda=None)
    return _feasible_state(inst, lam, spd_solve(factor, inst.c))


def _shifted(inst: BqpInstance, lam: np.ndarray) -> np.ndarray:
    """A fresh Fortran-order ``Q + Diag(lam)``, under the caller's
    ``np.errstate`` for a diagonal that overflows."""
    # Q is exactly symmetric, so the transpose of a C-order copy is Q in
    # Fortran order; ravel() of that copy is a view of it.
    shifted = inst.q.copy()
    shifted.ravel()[:: lam.shape[0] + 1] += lam
    return shifted.T


def _memo_hit(inst: BqpInstance, lam: np.ndarray) -> DualState | None:
    """The instance's memoized state if its ``lam`` is bitwise ``lam``."""
    # Read once: another thread may replace the memo but never changes a state.
    memo = inst._dual_memo
    if memo is not None and memo.lam.tobytes() == lam.tobytes():
        return memo
    return None


def _feasible_state(inst: BqpInstance, lam: np.ndarray, x: np.ndarray) -> DualState:
    """Take the dual value at ``x = x(lam)`` and memoize the state; ``lam``
    and ``x`` become the state's own.  Runs under the caller's
    ``np.errstate``, which must ignore overflow and invalid results."""
    for owned in (lam, x):
        owned.flags.writeable = False
    value = float(-0.5 * (inst.c @ x) - 0.5 * np.add.reduce(lam))
    if not math.isfinite(value):
        value = -math.inf
    inst._dual_memo = DualState(lam=lam, q=inst.q, x_of_lambda=x, value=value)
    return inst._dual_memo


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
    Forming ``M`` factorizes ``q_of_lambda(state.q, state.lam)`` afresh
    and takes n solves.  This is a reference: ``dual_solver`` never calls
    it and takes its Newton step in closed form (see that module).
    """
    if not state.feasible:
        raise Infeasible("dual Hessian undefined: shifted matrix is not positive definite")
    factor = spd_factorize(q_of_lambda(state.q, state.lam))
    inv = spd_solve(factor, np.eye(state.lam.shape[0]))
    x = state.x_of_lambda
    h = -(x[:, None] * inv * x[None, :])
    return 0.5 * (h + h.T)
