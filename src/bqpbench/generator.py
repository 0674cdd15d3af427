"""Random instance generator with a planted, certifiable global optimum.

Instances are built inside out: draw a random symmetric integer matrix,
pick multipliers as the absolute row sums (diagonal included) so the
shifted matrix is diagonally dominant, draw a random sign vector, and set
the linear term to ``(Q + diag(lam)) x``.  The planted pair ``(x, lam)``
then satisfies the stationarity and positive-definiteness conditions
that make ``x`` the unique global minimizer, so every emitted instance
ships with its own optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BqpInstance, as_sign_vector, as_vector, q_of_lambda
from .numerics import NotPositiveDefinite, require_symmetric, spd_factorize

_MAX_REDRAWS = 100


class GenerationFailed(Exception):
    """Retry policy exhausted without a positive definite shift."""


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
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.base > 0:
            raise ValueError("base must be positive")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


class Certificate:
    """Planted witness: sign vector ``x`` and multipliers ``lam``.

    For generated instances the shifted matrix is positive definite and
    ``(Q + diag(lam)) x = c`` holds exactly in integer arithmetic.
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


def round_half_away(values) -> np.ndarray:
    """Round to nearest integer with halves away from zero (0.5 -> 1, -0.5 -> -1)."""
    values = np.asarray(values, dtype=float)
    return np.copysign(np.floor(np.abs(values) + 0.5), values)


def multipliers_from_rowsums(q, margin: float = 0.0) -> np.ndarray:
    """Multipliers as absolute row sums of ``q`` (diagonal included) plus ``margin``.

    Makes the shifted matrix diagonally dominant; dominance is only weak
    when a diagonal entry is negative, which is why callers re-test
    positive definiteness afterwards.
    """
    q = require_symmetric(q)
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return np.abs(q).sum(axis=1) + margin


def generate_instance(cfg: GenConfig) -> tuple[BqpInstance, Certificate]:
    """Generate one instance together with its planted certificate.

    Randomness: PCG64 streams derived from ``SeedSequence(cfg.seed)``;
    normal variates come from numpy's ``standard_normal`` (ziggurat).
    Output is bitwise deterministic for a fixed seed.  Each attempt draws
    ``Q = round(base * (G + G') / 2)`` (halves away from zero) and a
    uniform random sign vector; if the row-sum shift is not positive
    definite the next attempt uses the next spawned stream, and after
    100 redraws the multipliers of the final draw are bumped by 1, which
    makes the integer shift strictly dominant.  The shifted matrix that
    passed the factorization also yields the linear term ``c = (Q +
    diag(lam)) x``.
    """
    margin = float(round_half_away(cfg.margin))
    streams = np.random.SeedSequence(cfg.seed).spawn(_MAX_REDRAWS + 1)
    last = None
    for stream in streams:
        rng = np.random.Generator(np.random.PCG64(stream))
        gauss = rng.standard_normal((cfg.n, cfg.n))
        q = round_half_away(cfg.base * (gauss + gauss.T) / 2.0)
        x = 2.0 * rng.integers(0, 2, size=cfg.n) - 1.0
        lam = multipliers_from_rowsums(q, margin)
        shifted = q_of_lambda(q, lam)
        try:
            spd_factorize(shifted)
        except NotPositiveDefinite:
            last = (q, x, lam)
            continue
        return BqpInstance(q, shifted @ x), Certificate(x=x, lam=lam)

    q, x, lam = last
    lam = lam + 1.0
    shifted = q_of_lambda(q, lam)
    try:
        spd_factorize(shifted)
    except NotPositiveDefinite as exc:
        raise GenerationFailed(
            f"no positive definite shift after {_MAX_REDRAWS} redraws and a margin bump"
        ) from exc
    return BqpInstance(q, shifted @ x), Certificate(x=x, lam=lam)
