"""Certificate checking: feasibility, stationarity, and the zero-gap identity.

A certificate ``(x, lam)`` proves ``x`` globally optimal when the shifted
matrix is positive definite, ``(Q + diag(lam)) x = c``, and ``x`` is a
sign vector; those conditions force the primal-dual gap to zero.  The
same inverse condition can be phrased as positive semidefiniteness of the
bordered block ``[[Q+diag(lam), c], [c', t]]`` for ``t`` at least
``c'(Q+diag(lam))^-1 c``, which this module checks spectrally as an
independent route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import nan

import numpy as np

from .generator import Certificate
from .model import BqpInstance, as_vector, dual_value, is_dual_feasible, objective_value
from .numerics import min_eigenvalue


@dataclass
class VerifyReport:
    """Outcome of the four certificate checks plus informational inertia.

    ``gap`` is NaN when the multipliers are infeasible (the dual value is
    undefined there); ``overall`` is the conjunction of the four booleans.
    ``inertia_note`` describes the signature of the instance matrix ``q``;
    it needs a full eigendecomposition, so it is computed on first read.
    """

    pd_ok: bool
    stationary_ok: bool
    boolean_ok: bool
    gap: float
    gap_ok: bool
    overall: bool
    q: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def inertia_note(self) -> str:
        eigs = np.linalg.eigvalsh(self.q)
        tol = 1e-8 * (1.0 + float(np.abs(self.q).sum(axis=1).max()))
        neg = int((eigs < -tol).sum())
        pos = int((eigs > tol).sum())
        zero = len(eigs) - neg - pos
        return f"Q inertia: {neg} negative, {zero} zero, {pos} positive"


def verify_certificate(inst: BqpInstance, cert: Certificate, tol: float = 1e-6) -> VerifyReport:
    """Check a certificate against its instance.

    pd_ok: the shifted matrix factorizes; stationary_ok: the residual
    ``(Q + diag(lam)) x - c`` has sup-norm at most ``tol * (1 + ||c||_inf)``;
    boolean_ok: every entry of ``x`` is exactly +/-1; gap_ok: the
    primal-dual gap is at most ``tol * (1 + |f(x)|)`` in magnitude.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = as_vector(cert.x, inst.n)
    lam = as_vector(cert.lam, inst.n)

    state = is_dual_feasible(inst, lam)
    pd_ok = state.feasible

    residual = inst.q @ x + lam * x - inst.c
    stationary_ok = bool(np.abs(residual).max() <= tol * (1.0 + np.abs(inst.c).max()))

    boolean_ok = bool((np.abs(x) == 1.0).all())

    if pd_ok and boolean_ok:
        gap = objective_value(inst, x) - dual_value(state, inst)
        gap_ok = bool(abs(gap) <= tol * (1.0 + abs(objective_value(inst, x))))
    else:
        gap, gap_ok = nan, False

    return VerifyReport(
        pd_ok=pd_ok,
        stationary_ok=stationary_ok,
        boolean_ok=boolean_ok,
        gap=gap,
        gap_ok=gap_ok,
        overall=pd_ok and stationary_ok and boolean_ok and gap_ok,
        q=inst.q,
    )


def schur_block_psd(inst: BqpInstance, lam, t: float) -> tuple[bool, float]:
    """Spectral PSD test of the bordered block ``[[Q + diag(lam), c], [c', t]]``;
    returns (is_psd, min_eig).

    When the shifted matrix is positive definite this agrees with the
    closed-form condition ``t >= c'(Q + diag(lam))^-1 c`` up to the
    eigenvalue tolerance ``1e-8 * (1 + ||block||_inf)``.
    """
    n = inst.n
    lam = as_vector(lam, n)
    block = np.empty((n + 1, n + 1))
    block[:n, :n] = inst.q
    block.flat[: n * (n + 2) : n + 2] += lam
    block[:n, n] = inst.c
    block[n, :n] = inst.c
    block[n, n] = t
    low = min_eigenvalue(block)
    tol = 1e-8 * (1.0 + float(np.abs(block).sum(axis=1).max()))
    return bool(low >= -tol), low
