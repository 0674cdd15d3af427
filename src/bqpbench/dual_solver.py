"""Damped Newton maximization of the dual function over the feasible cone.

The dual is smooth and concave where the shifted matrix is positive
definite, and that set is open, so every step is backtracked first into
feasibility and then until an Armijo ascent condition holds.  The
Newton direction needs no second factorization: with ``X = diag(x(lam))``
the negated Hessian is ``X (Q + diag(lam))^-1 X``, so the step solving
``-H d = grad`` is ``X^-1 (Q + diag(lam)) X^-1 grad``, one matrix-vector
product.  Only when some ``|x_i(lam)|`` falls below ``1e-3`` (where that
inverse blows up, and ``-H`` is singular at an exact zero) does the
solver form the Hessian and solve the ridge-regularized system instead.
At a stationary point the solved vector ``x(lam)`` has unit entries;
rounding it to signs and checking the primal-dual gap yields (or
refuses) a global-optimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (
    BqpInstance,
    DualState,
    dual_gradient,
    dual_hessian,
    dual_value,
    is_dual_feasible,
    objective_value,
)
from .numerics import NotPositiveDefinite, spd_factorize, spd_solve

_MAX_BACKTRACKS = 60
_MAX_SHIFT_DOUBLINGS = 60
_GAP_REL_TOL = 1e-6
# Below this min |x_i(lam)| the closed-form step divides by near-zeros.
_CLOSED_FORM_MIN_X = 1e-3


class NoFeasibleStart(Exception):
    """No positive definite shift found while doubling the start offset."""


class NotBoolean(Exception):
    """Solved coordinates too far from +/-1 to round; carries the offenders."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(f"entries not within tolerance of +/-1 at indices {self.indices}")


class SolveStatus(str, Enum):
    CERTIFIED = "Certified"
    STATIONARY_NOT_BOOLEAN = "StationaryNotBoolean"
    MAX_ITERATIONS = "MaxIterations"
    NO_FEASIBLE_START = "NoFeasibleStart"


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8
    max_iter: int = 100
    backtrack_factor: float = 0.5
    armijo_coeff: float = 1e-4
    sign_tol: float = 1e-4

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.armijo_coeff < 1.0:
            raise ValueError("armijo_coeff must lie in (0, 1)")
        if not 0.0 < self.sign_tol < 0.5:
            raise ValueError("sign_tol must lie in (0, 0.5)")


@dataclass
class SolveReport:
    """Outcome of one dual maximization.

    ``x`` is the rounded sign vector when rounding succeeded, else None;
    ``x_raw`` is the pre-rounding solve ``x(lam)``.  ``gap`` is primal
    minus dual (NaN when no primal value exists).  ``dual_trace`` holds
    the dual value at the start plus after every accepted step.
    """

    lam: np.ndarray
    x: np.ndarray | None
    x_raw: np.ndarray | None
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: SolveStatus
    dual_trace: list[float] = field(default_factory=list)


def initial_point(inst: BqpInstance) -> DualState:
    """Feasible starting multipliers: absolute row sums plus one.

    That shift is strictly diagonally dominant with positive diagonal,
    hence positive definite; if factorization still fails (overflow-scale
    data) the offset doubles up to 60 times before giving up.
    """
    rowsums = np.abs(inst.q).sum(axis=1)
    shift = 1.0
    for _ in range(_MAX_SHIFT_DOUBLINGS):
        state = is_dual_feasible(inst, rowsums + shift)
        if state.feasible:
            return state
        shift *= 2.0
    raise NoFeasibleStart("could not find a positive definite start shift")


def round_to_signs(x_raw, sign_tol: float) -> np.ndarray:
    """Round near-unit coordinates to exact signs.

    Every ``|x_raw[i]|`` must be within ``sign_tol`` of 1; anything else
    (in particular a coordinate near 0) raises :class:`NotBoolean` with
    the offending indices rather than guessing a sign.
    """
    if not 0.0 < sign_tol < 0.5:
        raise ValueError("sign_tol must lie in (0, 0.5)")
    x_raw = np.asarray(x_raw, dtype=float)
    bad = np.nonzero(np.abs(np.abs(x_raw) - 1.0) > sign_tol)[0]
    if bad.size:
        raise NotBoolean(bad)
    return np.sign(x_raw)


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``(-H + ridge*I) d = grad``; ascent direction since -H is PSD.

    The fallback of :func:`_ascent_direction` for near-zero ``x(lam)``.
    The ridge keeps the system definite when -H is singular (any zero
    coordinate in x(lam) zeroes a row) without materially biasing steps.
    """
    neg = -hess
    ridge = 1e-10 * (1.0 + float(np.abs(neg).sum(axis=1).max()))
    eye = np.eye(len(grad))
    for _ in range(3):
        try:
            return spd_solve(spd_factorize(neg + ridge * eye), grad)
        except NotPositiveDefinite:
            ridge *= 100.0
    return grad.copy()


def _ascent_direction(inst: BqpInstance, state: DualState, grad: np.ndarray) -> np.ndarray:
    """Newton direction at ``state``: ``X^-1 (Q + diag(lam)) X^-1 grad``.

    Falls back to the ridge-regularized Hessian solve when some entry of
    ``x(lam)`` is within ``_CLOSED_FORM_MIN_X`` of zero.
    """
    x = state.x_of_lambda
    if float(np.abs(x).min()) < _CLOSED_FORM_MIN_X:
        return _newton_direction(dual_hessian(state), grad)
    v = grad / x
    return (inst.q @ v + state.lam * v) / x


def _backtrack(inst, state, value, grad, direction, opts):
    """Shrink the step until the trial point is feasible and Armijo holds.

    Returns ``(accepted, state, value)``; at most 60 shrinks in total
    across the feasibility and ascent phases.
    """
    slope = float(grad @ direction)
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial = is_dual_feasible(inst, state.lam + t * direction)
        if trial.feasible:
            trial_value = dual_value(trial, inst)
            if trial_value >= value + opts.armijo_coeff * t * slope:
                assert trial_value >= value, "accepted step must not decrease the dual"
                return True, trial, trial_value
        t *= opts.backtrack_factor
    return False, state, value


def solve_dual(inst: BqpInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Maximize the dual and try to certify a global primal solution.

    Newton iterations ``lam <- lam + t*d`` with ``-H d = grad`` (closed
    form, see the module docstring) run until the gradient sup-norm drops
    below ``opts.grad_tol`` or the iteration budget is spent.  The
    gradient is tested after the last step too, so a run that becomes
    stationary on its final iteration is still certified.  A failed
    Newton backtrack falls back to a plain gradient step; a failed
    gradient step ends the run.  At a stationary point the primal is
    recovered from the cached solve and rounded; the report is Certified
    only when rounding succeeds and the primal-dual gap is below
    ``1e-6 * (1 + |primal|)``.
    """
    opts = opts or SolveOptions()
    try:
        state = initial_point(inst)
    except NoFeasibleStart:
        rowsums = np.abs(inst.q).sum(axis=1)
        return SolveReport(
            lam=rowsums + 1.0, x=None, x_raw=None, primal_value=math.nan,
            dual_value=math.nan, gap=math.nan, iterations=0,
            status=SolveStatus.NO_FEASIBLE_START,
        )

    value = dual_value(state, inst)
    trace = [value]
    iterations = 0
    while True:
        grad = dual_gradient(state)
        stationary = float(np.abs(grad).max()) <= opts.grad_tol
        if stationary or iterations == opts.max_iter:
            break
        direction = _ascent_direction(inst, state, grad)
        accepted, state, value = _backtrack(inst, state, value, grad, direction, opts)
        if not accepted:
            accepted, state, value = _backtrack(inst, state, value, grad, grad, opts)
            if not accepted:
                break
        iterations += 1
        trace.append(value)

    x_raw = state.x_of_lambda
    x = None
    primal = math.nan
    gap = math.nan
    status = SolveStatus.MAX_ITERATIONS
    try:
        x = round_to_signs(x_raw, opts.sign_tol)
        primal = objective_value(inst, x)
        gap = primal - value
    except NotBoolean:
        x = None
    if stationary:
        certified = x is not None and abs(gap) <= _GAP_REL_TOL * (1.0 + abs(primal))
        status = SolveStatus.CERTIFIED if certified else SolveStatus.STATIONARY_NOT_BOOLEAN
    return SolveReport(
        lam=state.lam, x=x, x_raw=x_raw, primal_value=primal, dual_value=value,
        gap=gap, iterations=iterations, status=status, dual_trace=trace,
    )
