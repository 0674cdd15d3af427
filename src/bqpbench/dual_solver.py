"""Primal-first certification, then damped Newton maximization of the dual.

A sign vector ``x`` is globally optimal when ``Q + diag(lam)`` is
positive definite and ``(Q + diag(lam)) x = c``.  Read backwards, ``x``
fixes ``lam(x) = x * (c - Qx)``, so one Cholesky decides ``x``: the
primal try descends greedily by single flips (flipping ``x_i`` changes
the objective by ``2 (lam(x)_i + Q_ii)``) and asks
:func:`verify.check_certificate` about ``lam(x)``.  The solver tries
``sign(c)`` first, the rounding of ``x(t e) = (Q + t I)^-1 c`` as ``t``
grows, which costs no factorization before the test; on a generated
instance its ``lam(x)`` is the planted multipliers, whose dual state the
instance already holds.

Otherwise the dual is maximized from a diagonally dominant start.  It is
smooth and concave where the shifted matrix is positive definite, and
that set is open, so every step is backtracked first into feasibility
and then until an Armijo ascent condition holds.  The start point and
the primal tries test their multipliers with the validating
:func:`model.is_dual_feasible`; the backtracking tests the trial points
it forms itself with ``model._trial_state``, which checks neither ``Q``
nor ``lam`` again and gives the same states.  The backtracking is
warm-started: the first one of a solve starts at the full step ``t =
1`` and each later one at twice the last accepted step (at most 1), so
an ascent that creeps along the boundary, where the accepted steps are
short, tests a few trial points per step instead of halving down from 1
every time.  The Newton direction needs no second factorization: with
``X = diag(x(lam))`` the negated Hessian is ``X (Q + diag(lam))^-1 X``,
so the step solving ``-H d = grad`` is ``X^-1 (Q + diag(lam)) X^-1
grad``, one matrix-vector product.  When some ``|x_i(lam)|`` falls
below ``1e-3`` that formula divides by near-zeros (and ``-H`` is
singular at an exact zero), so the solver steps along the gradient
instead; it never forms a matrix other than ``Q + diag(lam)``.  The
ascent stops at a stationary point, at the iteration budget, at a
backtrack in which no trial passes, or at a step that leaves the dual
value bitwise unchanged.  Wherever it stops, the primal try runs once
more, on the signs of the final ``x(lam)``; a primal try is the only
way a solve certifies.

:func:`solve_dual` runs the phases in order: the primal try on
``sign(c)``, :func:`initial_point`, the ascent (``_ascend``) and the
primal try where it stops.  Each phase returns states, not reports;
:func:`solve_dual` builds the one :class:`SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (
    BqpInstance,
    DualState,
    _trial_state,
    dual_gradient,
    is_dual_feasible,
    require_count,
)
from .verify import check_certificate

_MAX_BACKTRACKS = 60
_BACKTRACK_FACTOR = 0.5
# Each backtrack starts at min(1, _STEP_GROWTH * the last accepted step).
_STEP_GROWTH = 2.0
_ARMIJO_COEFF = 1e-4
_MAX_SHIFT_DOUBLINGS = 60
# Below this min |x_i(lam)| the closed-form step divides by near-zeros.
_CLOSED_FORM_MIN_X = 1e-3


class SolveStatus(str, Enum):
    CERTIFIED = "Certified"
    STATIONARY_NOT_BOOLEAN = "StationaryNotBoolean"
    MAX_ITERATIONS = "MaxIterations"
    NO_FEASIBLE_START = "NoFeasibleStart"


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule of :func:`solve_dual`.

    The line search is set by module constants: a backtrack starts at
    ``t = 1`` on the first step of a solve and at ``min(1, _STEP_GROWTH
    * t_last)`` (``_STEP_GROWTH = 2``) after an accepted step ``t_last``,
    scales the step by ``_BACKTRACK_FACTOR = 0.5`` at most
    ``_MAX_BACKTRACKS = 60`` times from there, and accepts it when the
    Armijo condition with ``_ARMIJO_COEFF = 1e-4`` holds.
    """

    grad_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        require_count(self.max_iter, "max_iter", 1)


@dataclass(eq=False)
class SolveReport:
    """Outcome of one solve: a certifying primal try, or the dual ascent.

    ``x`` is the certified sign vector, and None unless the status is
    Certified; ``x_raw`` is the solve ``x(lam)`` at the reported ``lam``.
    ``primal_value`` and ``gap`` (primal minus dual) come from the
    certificate check and are NaN when ``x`` is None.  ``dual_value`` is
    the ``value`` of the dual state at the reported ``lam``, NaN when no
    feasible start was found.  ``iterations`` counts the ascent steps that
    raised the dual (0 when the first primal try certified); ``dual_trace``
    holds the dual value at the start and after each of them, then the
    value at a certifying primal try's ``lam(x)``, so its last entry is
    ``dual_value``; it is empty when no feasible start was found.  The
    ascent's entries rise; a certificate's value equals f(x) and can lie
    a rounding error below them.  A primal try that fails changes
    nothing.  Reports compare by identity.
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
    """Starting multipliers: absolute row sums plus one.

    That shift is strictly diagonally dominant with positive diagonal,
    hence positive definite; if factorization still fails (overflow-scale
    data) the offset doubles up to 60 times.  When no shift is feasible
    the infeasible state at the last one tried is returned; row sums that
    overflow float64 give the infeasible state at row sums plus one at
    once.
    """
    with np.errstate(over="ignore"):
        rowsums = np.abs(inst.q).sum(axis=1)
    if not np.isfinite(rowsums).all():
        return DualState(lam=rowsums + 1.0, q=inst.q, x_of_lambda=None)
    for doubling in range(_MAX_SHIFT_DOUBLINGS):
        state = is_dual_feasible(inst, rowsums + 2.0 ** doubling)
        if state.feasible:
            break
    return state


def _ascent_direction(inst: BqpInstance, state: DualState, grad: np.ndarray) -> np.ndarray:
    """Newton direction at ``state``: ``X^-1 (Q + diag(lam)) X^-1 grad``.

    Returns ``grad`` itself when some entry of ``x(lam)`` is within
    ``_CLOSED_FORM_MIN_X`` of zero.
    """
    x = state.x_of_lambda
    if np.minimum.reduce(np.abs(x)) < _CLOSED_FORM_MIN_X:
        return grad
    v = grad / x
    # In place, each step as in (Q v + lam * v) / x.
    direction = inst.q @ v
    direction += state.lam * v
    direction /= x
    return direction


def _signs(v: np.ndarray) -> np.ndarray:
    """Round to a sign vector, with 0 -> +1."""
    return np.where(v < 0.0, -1.0, 1.0)


def _primal_try(inst: BqpInstance, x: np.ndarray):
    """Certify the 1-flip local minimum that greedy descent reaches from ``x``.

    Each step flips the coordinate whose flip lowers the objective most,
    ``2 (lam(x)_i + Q_ii)`` with ``lam(x) = x * (c - Qx)``, at most n
    times, updating ``Qx`` by one row of the symmetric ``Q`` per flip.
    Then one :func:`is_dual_feasible` test at ``lam(x)`` and
    :func:`verify.check_certificate` decide.  Returns the dual state at
    ``lam(x)`` and the check that passed, or None, also when ``lam(x)``
    overflows.  ``x`` is overwritten with the local minimum.
    """
    q, c, diag = inst.q, inst.c, inst.q.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        qx = q @ x
        for _ in range(inst.n):
            change = x * (c - qx) + diag
            i = int(np.argmin(change))
            if not change[i] < 0.0:
                break
            x[i] = -x[i]
            qx += (2.0 * x[i]) * q[i]
        lam = x * (c - qx)
    if not np.isfinite(lam).all():
        return None
    state = is_dual_feasible(inst, lam)
    check = check_certificate(inst, x, state)
    return (state, check) if check.overall else None


def _backtrack(inst, state, grad, direction, t0):
    """Shrink the step from ``t0`` until the trial point is feasible and
    Armijo holds.

    Returns the accepted dual state and the step ``t`` it was accepted at,
    or None when none of the 60 trials ``t = t0, t0/2, ..., t0 * 2^-59``
    passes: the budget is shared by the feasibility and Armijo tests and
    counts down from ``t0``, not from 1.  Each trial ``lam`` is a fresh
    array formed here, so :func:`model._trial_state` tests it without
    validating it again; it runs under :func:`_ascend`'s
    ``np.errstate``.  A trial ``lam`` that is not finite (the step
    overflowed float64) fails that entry's pivot rule, so it is an
    infeasible trial, as an overflowing shifted diagonal is.  (An accepted
    trial can be ``state`` itself: a step too small to move ``lam`` gets
    the instance's memoized state back, from either entry.)
    """
    lam, value = state.lam, state.value
    slope = float(grad @ direction)
    t = t0
    for _ in range(_MAX_BACKTRACKS):
        # lam + t * direction, with one fresh array instead of two.
        trial_lam = t * direction
        trial_lam += lam
        trial = _trial_state(inst, trial_lam)
        if trial.feasible and trial.value >= value + _ARMIJO_COEFF * t * slope:
            assert trial.value >= value, "accepted step must not decrease the dual"
            return trial, t
        t *= _BACKTRACK_FACTOR
    return None


def _ascend(inst: BqpInstance, state: DualState, opts: SolveOptions):
    """Damped Newton ascent of the dual from the feasible ``state``.

    Returns the final state, the dual trace (the value at ``state`` and
    after each step that raised it) and the status an uncertified report
    gets where the ascent stopped: StationaryNotBoolean when the gradient
    sup-norm is at most ``opts.grad_tol``, tested after the last step
    too; MaxIterations when the budget is spent, when no trial of a
    backtrack passes, or when an accepted step leaves the dual value
    bitwise unchanged.
    """
    trace, t0 = [state.value], 1.0
    # Near the float64 limit the step arithmetic may overflow; the
    # trials it spoils are infeasible (see _backtrack).
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            grad = dual_gradient(state)
            if np.maximum.reduce(np.abs(grad)) <= opts.grad_tol:
                return state, trace, SolveStatus.STATIONARY_NOT_BOOLEAN
            if len(trace) - 1 == opts.max_iter:
                break
            accepted = _backtrack(inst, state, grad, _ascent_direction(inst, state, grad), t0)
            if accepted is None or accepted[0].value == state.value:
                break
            state, t = accepted
            t0 = min(1.0, _STEP_GROWTH * t)
            trace.append(state.value)
    return state, trace, SolveStatus.MAX_ITERATIONS


def solve_dual(inst: BqpInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Certify a global primal solution, or maximize the dual trying.

    The phases run in order, each only when the one before did not
    certify: the primal try on ``sign(c)`` (0 -> +1); the start at
    :func:`initial_point`; the ascent (:func:`_ascend`), Newton
    iterations ``lam <- lam + t*d`` with ``-H d = grad`` (closed form,
    see the module docstring) until the gradient sup-norm drops below
    ``opts.grad_tol``, the budget is spent, or an accepted step leaves
    the dual value bitwise unchanged (MaxIterations, as a full budget of
    such steps would report); and the primal try on the signs of the
    final ``x(lam)`` (0 -> +1).  Each backtrack starts at ``t = min(1,
    _STEP_GROWTH * t_last)``, ``t_last`` being the last accepted step
    (``t = 1`` on the first step); a backtrack in which no trial passes
    ends the ascent.  A try that certifies gives the report its ``x``
    and ``lam(x)``.  When no try certifies, the report holds the ascent's
    final ``lam``, no ``x`` and the status StationaryNotBoolean or
    MaxIterations.  When :func:`initial_point` finds no feasible start,
    no ascent runs and the report holds its ``lam``, no ``x_raw``, its
    NaN dual value, an empty trace and the status NoFeasibleStart.
    """
    opts = opts or SolveOptions()
    trace, status = [], SolveStatus.NO_FEASIBLE_START
    x = _signs(inst.c)
    tried = _primal_try(inst, x)
    if tried is None:
        state = initial_point(inst)
        if state.feasible:
            state, trace, status = _ascend(inst, state, opts)
            x = _signs(state.x_of_lambda)
            tried = _primal_try(inst, x)
    iterations = max(len(trace) - 1, 0)
    if tried is None:
        x, primal, gap = None, math.nan, math.nan
    else:
        (state, check), status = tried, SolveStatus.CERTIFIED
        primal, gap, trace = check.primal, check.gap, [*trace, state.value]
    return SolveReport(
        lam=state.lam, x=x, x_raw=state.x_of_lambda, primal_value=primal,
        dual_value=state.value, gap=gap, iterations=iterations, status=status,
        dual_trace=trace,
    )
