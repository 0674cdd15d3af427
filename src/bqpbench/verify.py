"""Certificate checking: feasibility, stationarity, and the zero-gap identity.

A certificate ``(x, lam)`` proves ``x`` globally optimal when the shifted
matrix is positive definite, ``(Q + diag(lam)) x = c``, and ``x`` is a
sign vector; those conditions force the primal-dual gap to zero.
:func:`check_certificate` makes that decision on a dual state that is
already built; :func:`verify_certificate` builds one for a stored
certificate and asks it, and the solver asks it on its final
state, so both certify by the same rule.  The
same inverse condition can be phrased as positive semidefiniteness of the
bordered block ``[[Q+diag(lam), c], [c', t]]`` for ``t`` at least
``c'(Q+diag(lam))^-1 c``, which this module decides through the block's
Schur complement with the same dual state as the certificate check.
Both checks get their dual state from :func:`model.is_dual_feasible`,
which memoizes the last feasible state on the instance: at the ``lam``
the solver just returned, or the one the other check just used, neither
factorizes again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, nan

import numpy as np

from .model import BqpInstance, Certificate, DualState, is_dual_feasible

# The certificate tolerance of check_certificate, verify_certificate and
# ``bqpbench verify --tol``.
CERT_TOL = 1e-6


@dataclass
class VerifyReport:
    """Outcome of the four certificate checks.

    ``primal`` is the objective f(x) and ``gap`` is f(x) minus the dual
    value; both are NaN when the multipliers are infeasible (the dual value
    is undefined there) or ``x`` is not a sign vector.  ``overall`` is the
    conjunction of the four booleans.
    """

    pd_ok: bool
    stationary_ok: bool
    boolean_ok: bool
    primal: float
    gap: float
    gap_ok: bool
    overall: bool


def inertia_note(q: np.ndarray) -> str:
    """Informational signature of the instance matrix ``q``: one full
    eigendecomposition, which no certificate check needs."""
    eigs = np.linalg.eigvalsh(q)
    tol = 1e-8 * (1.0 + float(np.abs(q).sum(axis=1).max()))
    neg = int((eigs < -tol).sum())
    pos = int((eigs > tol).sum())
    zero = len(eigs) - neg - pos
    return f"Q inertia: {neg} negative, {zero} zero, {pos} positive"


def check_certificate(inst: BqpInstance, x, state: DualState, tol: float = CERT_TOL) -> VerifyReport:
    """The four certificate checks of ``(x, state.lam)``, for a length-n
    float vector ``x`` and a dual state from :func:`is_dual_feasible`
    (no factorization here).

    pd_ok: ``state`` is feasible; stationary_ok: the residual
    ``(Q + diag(lam)) x - c`` has sup-norm at most ``tol * (1 + ||c||_inf)``
    (one that overflows fails); boolean_ok: every entry of ``x`` is exactly
    +/-1; gap_ok: the primal-dual gap ``f(x) - state.value`` is at most
    ``tol * (1 + |f(x)|)`` in magnitude.  One product ``Q x`` serves the
    residual and f(x); the dual value is the one the state carries.  A
    residual or an f(x) that overflows float64 warns nowhere: it fails its
    check (an f(x) of +-inf gives a gap that is not finite).
    """
    if not 0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    pd_ok = state.feasible

    boolean_ok = bool((np.abs(x) == 1.0).all())

    primal, gap, gap_ok = nan, nan, False
    with np.errstate(over="ignore", invalid="ignore"):
        qx = inst.q @ x
        residual = qx + state.lam * x - inst.c
        if pd_ok and boolean_ok:
            primal = float(0.5 * (x @ qx) - inst.c @ x)
            gap = primal - state.value
            gap_ok = bool(abs(gap) <= tol * (1.0 + abs(primal)))
    stationary_ok = bool(np.abs(residual).max() <= tol * (1.0 + np.abs(inst.c).max()))

    return VerifyReport(
        pd_ok=pd_ok, stationary_ok=stationary_ok, boolean_ok=boolean_ok, primal=primal,
        gap=gap, gap_ok=gap_ok, overall=pd_ok and stationary_ok and boolean_ok and gap_ok,
    )


def verify_certificate(inst: BqpInstance, cert: Certificate, tol: float = CERT_TOL) -> VerifyReport:
    """Check a certificate against its instance: one factorization of the
    shifted matrix (none when it is the instance's memoized dual point),
    then :func:`check_certificate`.  :func:`is_dual_feasible` checks the
    length of ``cert.lam``, and so of ``cert.x``, against ``inst.n``."""
    return check_certificate(inst, cert.x, is_dual_feasible(inst, cert.lam), tol)


def schur_block_psd(inst: BqpInstance, lam, t: float) -> tuple[bool, float]:
    """PSD test of the bordered block ``[[Q + diag(lam), c], [c', t]]``;
    returns (is_psd, schur) with ``schur = t - c'(Q + diag(lam))^-1 c``.

    With a positive definite shift the block is PSD iff ``schur >= 0``;
    the test accepts ``schur >= -1e-8 * (1 + |t|)``.  One factorization
    (:func:`is_dual_feasible`, none when ``lam`` is the instance's
    memoized dual point) gives ``x(lam)``; the block is never formed.
    A shift that fails ``spd_factorize``'s pivot rule gives ``(False,
    nan)``: a certificate needs PD, so a singular PSD shift is not PSD here.
    A ``c'x(lam)`` that overflows float64 gives a schur of -inf or NaN, not
    PSD, and no warning.
    """
    if not isfinite(t):
        raise ValueError("t must be finite")
    state = is_dual_feasible(inst, lam)
    if not state.feasible:
        return False, nan
    with np.errstate(over="ignore", invalid="ignore"):
        schur = t - float(inst.c @ state.x_of_lambda)
    return bool(schur >= -1e-8 * (1.0 + abs(t))), schur
