"""Exact minimization over all sign vectors, for ground truth at small n.

A sign vector splits as x = (p, s): a prefix p of k = n - m coordinates
and a suffix s of the last m = min(n, 13) coordinates.  The 2^m suffixes
form one table in lexicographic order (-1 before +1), with their own
cost base(s) = s'Q_ss s / 2 - c_s's computed once.  The 2^m vectors that
share a prefix form a block, whose values

    const(p) + base(s) + w(p)'s,   const(p) = p'Q_pp p / 2 - c_p'p,
                                   w(p) = Q_ps' p,

are reduced with dense numpy ops.  Every value in block p is at least
lb(p) = const(p) + min(base) - ||w(p)||_1, and one (2^k x k)(k x m)
product gives that bound for all blocks at once.

A first pass visits the blocks in increasing bound and stops at the first
block whose bound, less a rounding slack, is above the running minimum
plus the tie tolerance: no value in it, or in any later block, can be a
minimizer or tie with one.  A second pass revisits, in prefix order, only
the visited blocks whose minimum is within the tie tolerance, to count
minimizers and pick the lexicographically smallest one.  The result is
the one a scan of all 2^n vectors gives, bit for bit.  How much is
skipped depends on the data: where every vector ties (Q = 0, c = 0),
every block is visited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BqpInstance

_BLOCK_BITS = 13
_TIE_REL = 1e-9
# Rounding slack of the block bounds, relative to the data's scale.
_SLACK_REL = 1e-12


class TooLarge(Exception):
    """Instance dimension exceeds the enumeration cap, its sign tables
    cannot be allocated, or its objective values overflow float64."""


@dataclass
class OracleResult:
    best_x: np.ndarray
    best_value: float
    minimizer_count: int


def _sign_table(bits: int) -> np.ndarray:
    """All sign vectors of length ``bits`` as rows, in lexicographic order.

    Row index i maps its binary digits (most significant first) to signs,
    0 -> -1 and 1 -> +1, so ascending i is ascending lexicographic order.
    """
    if bits == 0:
        return np.zeros((1, 0))
    codes = np.arange(2 ** bits, dtype=np.uint32)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    return 2.0 * ((codes[:, None] >> shifts[None, :]) & 1) - 1.0


def _block_values(p, q_pp, q_ps, c_p, suffixes, suffix_base) -> np.ndarray:
    """Objective values of the block with prefix ``p``, in suffix order."""
    const = 0.5 * (p @ (q_pp @ p)) - c_p @ p
    return const + suffixes @ (q_ps.T @ p) + suffix_base


def brute_force_minimize(inst: BqpInstance, max_n: int = 25) -> OracleResult:
    """Return the global minimum over all 2^n sign vectors.

    Ties within ``1e-9 * (1 + |best|)`` of the minimum are counted, and
    the reported minimizer is the lexicographically smallest of them
    (ordering -1 < +1).

    Only blocks that can hold a minimizer are evaluated (see the module
    docstring).  The first pass visits blocks in increasing lb (a stable
    sort, so equal bounds keep prefix order) and stops at the first block
    with ``lb - slack > best + 1e-9 * (1 + |best|)``, ``best`` being the
    running minimum.  Later blocks have bounds at least as high, and
    ``b -> b + 1e-9 * (1 + |b|)`` is increasing, so every skipped value
    is above the final minimum plus the tie tolerance.  The minimum, the
    visited blocks within the tie tolerance, and so the count and the
    lexicographic winner, are therefore those of a full scan; the
    minimum is read as the first one in prefix order, as a full scan
    finds it, which also fixes the sign of a zero minimum.

    The slack is ``1e-12 * (1 + 2S)`` with ``S = sum|Q_ij| + sum|c_i|``.
    Every partial sum formed in evaluating a value or a bound is at most
    S in magnitude, so rounding moves either by a few n * 2^-53 * S,
    far below the slack at any n whose tables fit in memory.  Where 2S
    overflows, the slack is infinite and every block is visited: a block
    is only skipped when no evaluation in it can overflow, and its bound
    is finite.

    Raises :class:`TooLarge` for ``n > max_n``, for a sign table that
    cannot be allocated, and for data on which the first pass finds a
    block minimum that is not finite (the objective overflows float64).
    """
    n = inst.n
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the enumeration cap {max_n}")

    m = min(n, _BLOCK_BITS)
    k = n - m
    q, c = inst.q, inst.c
    q_pp, q_ps, q_ss = q[:k, :k], q[:k, k:], q[k:, k:]
    c_p, c_s = c[:k], c[k:]

    # Overflowing data make infs and NaNs here; they are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            suffixes = _sign_table(m)
            prefixes = _sign_table(k)
            # Per-suffix cost that does not depend on the prefix.
            suffix_base = 0.5 * np.einsum("ij,jk,ik->i", suffixes, q_ss, suffixes) - suffixes @ c_s
            lower = (
                0.5 * np.einsum("ij,jk,ik->i", prefixes, q_pp, prefixes) - prefixes @ c_p
                + suffix_base.min() - np.abs(prefixes @ q_ps).sum(axis=1)
            )
        except MemoryError as exc:
            raise TooLarge(f"cannot allocate the sign tables at n={n}") from exc
        slack = _SLACK_REL * (1.0 + 2.0 * (np.abs(q).sum() + np.abs(c).sum()))
        key = lower - slack
        order = np.argsort(key, kind="stable")

        block_mins = np.full(2 ** k, np.inf)
        best = np.inf
        visited = order
        for i, pi in enumerate(order.tolist()):
            if key[pi] > best + _TIE_REL * (1.0 + abs(best)):
                visited = order[:i]
                break
            block_mins[pi] = _block_values(prefixes[pi], q_pp, q_ps, c_p, suffixes, suffix_base).min()
            if block_mins[pi] < best:
                best = block_mins[pi]
    if not np.isfinite(block_mins[visited]).all():
        raise TooLarge("objective values overflow float64")
    # The first minimum in prefix order, as a full scan finds it.
    best = block_mins[np.argmin(block_mins)]

    tie_tol = _TIE_REL * (1.0 + abs(best))
    count = 0
    best_index = None
    for pi in np.nonzero(block_mins <= best + tie_tol)[0]:
        vals = _block_values(prefixes[pi], q_pp, q_ps, c_p, suffixes, suffix_base)
        ties = np.nonzero(vals <= best + tie_tol)[0]
        count += ties.size
        if best_index is None and ties.size:
            best_index = (int(pi) << m) | int(ties[0])

    best_x = np.concatenate([prefixes[best_index >> m], suffixes[best_index & (2 ** m - 1)]])
    return OracleResult(best_x=best_x, best_value=float(best), minimizer_count=int(count))
