"""Exhaustive minimization over all sign vectors, for ground truth at small n.

The search space is scanned in lexicographic order (-1 before +1) using
vectorized blocks: the trailing ``m`` coordinates are enumerated once as
a 2^m x m sign table whose quadratic contribution is precomputed, and a
python-level loop walks the 2^(n-m) prefixes, reducing each block with
dense numpy ops.  A first pass finds the minimum, a second pass revisits
only the blocks that can contain ties to count minimizers and pick the
lexicographically smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BqpInstance

_BLOCK_BITS = 13
_TIE_REL = 1e-9


class TooLarge(Exception):
    """Instance dimension exceeds the enumeration cap, or its objective
    values overflow float64."""


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


def brute_force_minimize(inst: BqpInstance, max_n: int = 25) -> OracleResult:
    """Enumerate all 2^n sign vectors and return the global minimum.

    Ties within ``1e-9 * (1 + |best|)`` of the minimum are counted, and
    the reported minimizer is the lexicographically smallest of them
    (ordering -1 < +1).  Refuses instances with ``n > max_n``, and
    those on which the first pass finds a block minimum that is not
    finite (the objective overflows float64).
    """
    n = inst.n
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the enumeration cap {max_n}")

    m = min(n, _BLOCK_BITS)
    k = n - m
    q, c = inst.q, inst.c
    q_pp, q_ps, q_ss = q[:k, :k], q[:k, k:], q[k:, k:]
    c_p, c_s = c[:k], c[k:]

    suffixes = _sign_table(m)
    prefixes = _sign_table(k)

    def block_values(pi: int) -> np.ndarray:
        p = prefixes[pi]
        const = 0.5 * (p @ (q_pp @ p)) - c_p @ p
        return const + suffixes @ (q_ps.T @ p) + suffix_base

    block_mins = np.empty(2 ** k)
    best = np.inf
    # Overflowing data make infs and NaNs here; they are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per-suffix cost that does not depend on the prefix.
        suffix_base = 0.5 * np.einsum("ij,jk,ik->i", suffixes, q_ss, suffixes) - suffixes @ c_s
        for pi in range(2 ** k):
            vals = block_values(pi)
            block_mins[pi] = vals.min()
            if block_mins[pi] < best:
                best = block_mins[pi]
    if not np.isfinite(block_mins).all():
        raise TooLarge("objective values overflow float64")

    tie_tol = _TIE_REL * (1.0 + abs(best))
    count = 0
    best_index = None
    for pi in np.nonzero(block_mins <= best + tie_tol)[0]:
        vals = block_values(int(pi))
        ties = np.nonzero(vals <= best + tie_tol)[0]
        count += ties.size
        if best_index is None and ties.size:
            best_index = (int(pi) << m) | int(ties[0])

    best_x = np.concatenate([prefixes[best_index >> m], suffixes[best_index & (2 ** m - 1)]])
    return OracleResult(best_x=best_x, best_value=float(best), minimizer_count=int(count))
