"""Random instance generator with a planted, certifiable global optimum.

Instances are built inside out: draw a random symmetric integer matrix,
pick multipliers as the absolute row sums (diagonal included) so the
shifted matrix is diagonally dominant, draw a random sign vector, and set
the linear term to ``Qx + lam * x``.  The shift is then proven positive
definite from that construction, with no factorization, wherever the
proof applies (see :func:`_proven_state`), and :func:`model.is_dual_feasible`
decides it by Cholesky, memoizing ``x(lam)``, everywhere else.
:func:`verify.check_certificate`, the rule the solver and ``verify`` use,
accepts the planted pair ``(x, lam)`` on that state, so ``x`` is the
unique global minimizer and every instance ships with a certificate that
``verify`` accepts.
The solver's first primal try reads that memo: ``c_i x_i >= margin >= 0``,
so ``sign(c)`` is the planted ``x`` wherever ``c_i != 0``, its 1-flip
descent almost always mends the rest, and at the planted ``x`` the try's
``x * (c - Qx)`` is bitwise the planted ``lam`` while the data stay below
2**53 in magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BqpInstance,
    Certificate,
    DualState,
    _feasible_state,
    is_dual_feasible,
    require_count,
)
from .verify import check_certificate

_MAX_REDRAWS = 100
# Multipliers below this keep every sum of the construction an exact
# float64 integer (see _proven_state).
_EXACT_LIMIT = 2.0 ** 52


class GenerationFailed(Exception):
    """No certified draw within the retry policy, or a float64 overflow."""


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs.

    ``base`` scales the normal draws before integer rounding (so entries
    land roughly in ``[-4*base, 4*base]``); ``margin`` is added to every
    multiplier on top of the row sums and is rounded to an integer to
    keep all emitted data integral.
    """

    n: int
    base: float = 10.0
    seed: int = 0
    margin: float = 0.0

    def __post_init__(self):
        require_count(self.n, "n", 1)
        require_count(self.seed, "seed", 0)
        if not 0 < self.base < math.inf:
            raise ValueError("base must be positive and finite")
        if not 0 <= self.margin < math.inf:
            raise ValueError("margin must be nonnegative and finite")


def round_half_away(values) -> np.ndarray:
    """Round to nearest integer with halves away from zero (0.5 -> 1, -0.5 -> -1)."""
    values = np.asarray(values, dtype=float)
    rounded = np.abs(values, out=np.empty_like(values))
    rounded += 0.5
    np.floor(rounded, out=rounded)
    return np.copysign(rounded, values, out=rounded)


def _attempts(seed: int):
    """The (stream, bump) of each attempt: one stream spawned from
    ``SeedSequence(seed)`` per redraw, on demand, and the last stream again
    with the bump.  ``spawn`` numbers the children in order, so attempt i
    draws from ``SeedSequence(seed).spawn(_MAX_REDRAWS + 1)[i]``."""
    root = np.random.SeedSequence(seed)
    for _ in range(_MAX_REDRAWS + 1):
        (stream,) = root.spawn(1)
        yield stream, 0.0
    yield stream, 1.0


def _finite(cfg: GenConfig, name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise GenerationFailed(f"{name} overflows float64 at n={cfg.n}, base={cfg.base!r}")
    return values


def _proven_state(inst: BqpInstance, x: np.ndarray, lam: np.ndarray, shift: float) -> DualState | None:
    """The planted dual state where the shift is proven positive definite,
    else None (undecided); ``lam`` is the absolute row sums of ``inst.q``
    plus the integer ``shift`` (margin and bump), and ``inst.c`` is
    ``Qx + lam * x``.

    With ``max(lam) < 2**52`` every sum of the construction is an exact
    float64 integer, so ``A = Q + diag(lam)`` has the slack
    ``a_ii - sum_{j != i} |q_ij| = q_ii + |q_ii| + shift >= 0`` in each row
    exactly: ``A`` is symmetric, weakly diagonally dominant and has a
    nonnegative diagonal, hence positive semidefinite, and row ``i`` is
    strictly dominant iff ``q_ii > 0`` or ``shift > 0``.  A weakly chained
    diagonally dominant matrix, one whose every weak row reaches a strict
    row along nonzero entries, is nonsingular (Shivakumar and Chew, Proc.
    AMS 43, 1974; Taussky's irreducible case, Amer. Math. Monthly 56,
    1949), so a multi-source search from the strict rows over ``q != 0``
    that reaches every row proves ``A`` nonsingular and, being positive
    semidefinite, positive definite.  ``c`` is exact
    too, so ``A x = c`` holds exactly and ``x(lam)`` is ``x`` itself; the
    state takes the dual value from it as :func:`is_dual_feasible` does,
    is memoized on ``inst``, and keeps ``lam`` and ``x`` read-only.  Runs
    under the caller's ``np.errstate``, which must ignore overflow and
    invalid results.
    """
    if not np.maximum.reduce(lam) < _EXACT_LIMIT:
        return None
    q = inst.q
    reached = (q.diagonal() > 0) | (shift > 0)
    frontier = reached
    while frontier.any():
        # The rows next to the frontier: Q is symmetric, so they are the
        # columns in which the frontier's rows hold a nonzero.
        frontier = (q[frontier] != 0).any(axis=0) & ~reached
        reached |= frontier
    if not reached.all():
        return None
    return _feasible_state(inst, lam, x)


@np.errstate(over="ignore", invalid="ignore")
def generate_instance(cfg: GenConfig) -> tuple[BqpInstance, Certificate]:
    """Generate one instance together with its planted certificate.

    Randomness: PCG64 streams derived from ``SeedSequence(cfg.seed)``;
    normal variates come from numpy's ``standard_normal`` (ziggurat).
    Output is bitwise deterministic for a fixed seed.  Each attempt draws
    ``Q = round(base * (G + G') / 2)`` (halves away from zero) and a
    uniform random sign vector, and takes the multipliers as the absolute
    row sums of ``Q`` (diagonal included) plus the margin.  That shift is
    diagonally dominant, but only weakly where a diagonal entry is not
    positive, so each attempt sets ``c = Qx + lam * x`` and decides the
    shift: :func:`_proven_state` proves it positive definite by chained
    diagonal dominance, with no factorization, and a draw it leaves
    undecided (multipliers of 2**52 or more, a weak row with no nonzero
    path to a strict one) is tested with :func:`model.is_dual_feasible`.
    Where the shift is positive definite, the planted certificate is
    checked on that state with :func:`verify.check_certificate` (no
    factorization): if either fails,
    the next attempt spawns the next stream, and after 100 redraws one
    last attempt repeats the final draw with every multiplier bumped by
    1, which makes the integer shift strictly dominant.  The returned
    instance holds the planted dual state (``lam``, ``x(lam)``) in its
    memo, so checking the certificate or solving the instance right away
    factorizes nothing.  A draw whose Q, lam or c is not finite, or whose
    positive definite shift has a dual value that is not finite (a
    ``base`` too large for float64: a redraw at that scale overflows
    too), or whose n x n matrix cannot be allocated, raises
    :class:`GenerationFailed`.
    """
    margin = float(round_half_away(cfg.margin))
    for stream, bump in _attempts(cfg.seed):
        rng = np.random.Generator(np.random.PCG64(stream))
        try:
            gauss = rng.standard_normal((cfg.n, cfg.n))
        except MemoryError as exc:
            raise GenerationFailed(f"cannot allocate an n x n matrix at n={cfg.n}") from exc
        # base * (G + G') / 2 in one buffer; the draw is freed before rounding.
        q = gauss + gauss.T
        del gauss
        q *= cfg.base
        q /= 2.0
        q = _finite(cfg, "Q", round_half_away(q))
        x = 2.0 * rng.integers(0, 2, size=cfg.n) - 1.0
        lam = _finite(cfg, "lambda", np.abs(q).sum(axis=1) + margin + bump)
        inst = BqpInstance(q, _finite(cfg, "c", q @ x + lam * x))
        del q  # the instance holds its own copy
        state = _proven_state(inst, x, lam, margin + bump)
        if state is None:
            state = is_dual_feasible(inst, lam)
        if state.feasible:
            # A redraw at the same scale would overflow too.
            _finite(cfg, "the dual value", state.value)
            if check_certificate(inst, x, state).overall:
                return inst, Certificate(x=x, lam=lam)
    raise GenerationFailed(
        f"no certified draw after {_MAX_REDRAWS} redraws and a margin bump"
    )
