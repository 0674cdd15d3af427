"""Damped Newton maximization of the dual function over the feasible cone.

The dual is smooth and concave where the shifted matrix is positive
definite, and that set is open, so every step is backtracked first into
feasibility and then until an Armijo ascent condition holds.  The
Newton direction needs no second factorization: with ``X = diag(x(lam))``
the negated Hessian is ``X (Q + diag(lam))^-1 X``, so the step solving
``-H d = grad`` is ``X^-1 (Q + diag(lam)) X^-1 grad``, one matrix-vector
product.  When some ``|x_i(lam)|`` falls below ``1e-3`` that formula
divides by near-zeros (and ``-H`` is singular at an exact zero), so the
solver steps along the gradient instead; it never forms a matrix other
than ``Q + diag(lam)``.  The ascent stops at a stationary point, at the
iteration budget, or at a step that leaves ``lam`` bitwise unchanged,
which every later iteration would repeat.  At a stationary point the
solved vector ``x(lam)`` has unit entries; its rounding to signs is
certified globally optimal by :func:`verify.check_certificate` on the
final dual state, the rule that checks stored certificates too.
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
    dual_value,
    is_dual_feasible,
    require_count,
)
from .verify import check_certificate

_MAX_BACKTRACKS = 60
_BACKTRACK_FACTOR = 0.5
_ARMIJO_COEFF = 1e-4
_SIGN_TOL = 1e-4
_MAX_SHIFT_DOUBLINGS = 60
# Below this min |x_i(lam)| the closed-form step divides by near-zeros.
_CLOSED_FORM_MIN_X = 1e-3


class NoFeasibleStart(Exception):
    """No positive definite shift found while doubling the start offset."""


class SolveStatus(str, Enum):
    CERTIFIED = "Certified"
    STATIONARY_NOT_BOOLEAN = "StationaryNotBoolean"
    MAX_ITERATIONS = "MaxIterations"
    NO_FEASIBLE_START = "NoFeasibleStart"


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule of :func:`solve_dual`.

    The line search and rounding are module constants: each backtrack
    scales the step by ``_BACKTRACK_FACTOR = 0.5``, at most
    ``_MAX_BACKTRACKS = 60`` times; a step is accepted when the Armijo
    condition with ``_ARMIJO_COEFF = 1e-4`` holds; and rounding accepts
    entries within ``_SIGN_TOL = 1e-4`` of +/-1.
    """

    grad_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        require_count(self.max_iter, "max_iter", 1)


@dataclass
class SolveReport:
    """Outcome of one dual maximization.

    ``x`` is the rounded sign vector when rounding succeeded, else None;
    ``x_raw`` is the pre-rounding solve ``x(lam)``.  ``primal_value``
    and ``gap`` (primal minus dual) come from the certificate check and
    are NaN when ``x`` is None.  ``iterations`` counts the steps that
    moved ``lam``; ``dual_trace`` holds the dual value at the start plus
    after each of them.
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
    data) the offset doubles up to 60 times before giving up.  Row sums
    that overflow float64 raise :class:`NoFeasibleStart` at once.
    """
    with np.errstate(over="ignore"):
        rowsums = np.abs(inst.q).sum(axis=1)
    if not np.isfinite(rowsums).all():
        raise NoFeasibleStart("absolute row sums of Q overflow float64")
    shift = 1.0
    for _ in range(_MAX_SHIFT_DOUBLINGS):
        state = is_dual_feasible(inst, rowsums + shift)
        if state.feasible:
            return state
        shift *= 2.0
    raise NoFeasibleStart("could not find a positive definite start shift")


def _ascent_direction(inst: BqpInstance, state: DualState, grad: np.ndarray) -> np.ndarray:
    """Newton direction at ``state``: ``X^-1 (Q + diag(lam)) X^-1 grad``.

    Returns ``grad`` itself when some entry of ``x(lam)`` is within
    ``_CLOSED_FORM_MIN_X`` of zero.
    """
    x = state.x_of_lambda
    if float(np.abs(x).min()) < _CLOSED_FORM_MIN_X:
        return grad
    v = grad / x
    return (inst.q @ v + state.lam * v) / x


def _backtrack(inst, state, value, grad, direction):
    """Shrink the step until the trial point is feasible and Armijo holds.

    Returns the accepted ``(state, value)``, or None when no trial passes
    within 60 shrinks in total across the feasibility and ascent phases.
    (An accepted trial can be ``state`` itself: a step too small to move
    ``lam`` gets the instance's memoized state back.)
    """
    slope = float(grad @ direction)
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial = is_dual_feasible(inst, state.lam + t * direction)
        if trial.feasible:
            trial_value = dual_value(trial, inst)
            if trial_value >= value + _ARMIJO_COEFF * t * slope:
                assert trial_value >= value, "accepted step must not decrease the dual"
                return trial, trial_value
        t *= _BACKTRACK_FACTOR
    return None


def solve_dual(inst: BqpInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Maximize the dual and try to certify a global primal solution.

    Newton iterations ``lam <- lam + t*d`` with ``-H d = grad`` (closed
    form, see the module docstring) run until the gradient sup-norm drops
    below ``opts.grad_tol``, the budget is spent, or a step leaves ``lam``
    bitwise unchanged (MaxIterations, as a full budget of repeats would
    report).  The gradient is tested after the last step too, so a run
    that becomes stationary on its final iteration is still certified.
    A Newton backtrack in which no trial passes falls back to a plain
    gradient step.  At a stationary point the primal is
    recovered from the cached solve and rounded (every entry within
    ``_SIGN_TOL`` of +/-1, else ``x`` is None); the report is Certified
    only when the rounding passes :func:`verify.check_certificate` on the
    final state, which reuses its ``x(lam)`` and gives f(x) and the gap.
    """
    opts = opts or SolveOptions()
    try:
        state = initial_point(inst)
    except NoFeasibleStart:
        with np.errstate(over="ignore"):
            lam = np.abs(inst.q).sum(axis=1) + 1.0
        return SolveReport(
            lam=lam, x=None, x_raw=None, primal_value=math.nan,
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
        step = _backtrack(inst, state, value, grad, direction)
        if step is None and direction is not grad:
            step = _backtrack(inst, state, value, grad, grad)
        if step is None or np.array_equal(step[0].lam, state.lam):
            break
        state, value = step
        iterations += 1
        trace.append(value)

    x_raw = state.x_of_lambda
    x = np.sign(x_raw) if np.abs(np.abs(x_raw) - 1.0).max() <= _SIGN_TOL else None
    primal = gap = math.nan
    certified = False
    if x is not None:
        check = check_certificate(inst, x, state)
        primal, gap, certified = check.primal, check.gap, check.overall
    status = SolveStatus.MAX_ITERATIONS
    if stationary:
        status = SolveStatus.CERTIFIED if certified else SolveStatus.STATIONARY_NOT_BOOLEAN
    return SolveReport(
        lam=state.lam, x=x, x_raw=x_raw, primal_value=primal, dual_value=value,
        gap=gap, iterations=iterations, status=status, dual_trace=trace,
    )
