"""Exact minimization over all sign vectors, for ground truth at small n.

A sign vector splits as x = (p, s): a prefix p of k = n - m coordinates
and a suffix s of the last m = min(n, 13) coordinates.  The 2^m suffixes
form one table S in lexicographic order (-1 before +1), built once per
width and shared, read-only, by every later call, with their own cost
base(s) = s'Q_ss s / 2 - c_s's.  The 2^m vectors that share a prefix
form a block, whose values

    const(p) + base(s) + w(p)'s,   const(p) = p'Q_pp p / 2 - c_p'p,
                                   w(p) = Q_ps' p,

are evaluated a chunk of blocks at a time: the rows w(p)' of a chunk
form one matrix W, and one product W S' gives the w(p)'s of all of them.

Two lower bounds on the values in block p decide which blocks are
evaluated.  The L1 bound lb(p) = const(p) + min(base) - ||w(p)||_1
comes from one (2^k x k)(k x m) product for all blocks at once.  The
head bound splits s into its first t = min(6, m) bits u and the rest v:

    head(p) = const(p) + min_u [B(u) + w_u(p)'u] - ||w_v(p)||_1,
    B(u) = min_v base(u, v),

exact over the 2^t heads and so never below lb(p).  It costs a 2^t-column
product per block, so it is computed only where the L1 bound cannot
prune.

A first pass evaluates the block of lowest L1 bound alone.  The
candidates are the other blocks whose L1 bound, less a rounding slack,
is within the tie tolerance of that block's minimum; every other block
is skipped there, and only the candidates get a head bound.  The pass
walks them in increasing head bound, in chunks of at most 8 blocks, each
cut off at the frontier: the first candidate whose head bound, less the
slack, is above the running minimum plus the tie tolerance.  The
frontier is taken again after every chunk, and the pass stops when the
next chunk would be empty: no value in a skipped block can be a
minimizer or tie with one.  A second pass revisits, in prefix order and
in chunks, only the evaluated blocks whose minimum is within the tie
tolerance, to count minimizers and pick the lexicographically smallest
one.  The result is the one a scan of all 2^n vectors gives, bit for bit
(see :func:`brute_force_minimize` for against what).  How much is
skipped depends on the data: where every vector ties (Q = 0, c = 0),
every block is evaluated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import BqpInstance

_BLOCK_BITS = 13
# Blocks per product in both passes, after the first block.
_CHUNK = 8
# Suffix bits over which the head bound is exact.
_HEAD_BITS = 6
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


@functools.lru_cache(maxsize=None)
def _suffix_table(bits: int) -> np.ndarray:
    """The read-only sign table of width ``bits``, built on first use.

    It serves the suffixes, the head bits and prefixes of up to 13 bits
    (n <= 26).  Widths run from 0 to the block width, so at most 14 tables
    (1.6 MB) are ever kept.  A wider prefix table (under ``--force`` only)
    is built per call and not kept: it can take hundreds of MB.
    """
    table = _sign_table(bits)
    table.setflags(write=False)
    return table


def _tie_limit(best):
    """The largest value that ties with ``best``."""
    return best + _TIE_REL * (1.0 + abs(best))


def _block_values(p, const, q_ps, suffixes, suffix_base) -> np.ndarray:
    """Objective values of the blocks with prefixes ``p`` (one per row) and
    prefix costs ``const``: one row per block, in suffix order.

    A single block is evaluated as two rows: numpy sends a one-row
    product to gemv, whose sums can round otherwise than gemm's, and a
    block must get the same values in whatever chunk it is evaluated.
    """
    rows = len(p)
    if rows == 1:
        p, const = np.repeat(p, 2, axis=0), np.repeat(const, 2)
    # In place: a fresh array per sum would cost more than the product.
    values = (p @ q_ps) @ suffixes.T
    values += const[:, None]
    values += suffix_base
    return values[:rows]


def _head_bounds(p, const, q_ps, suffix_base) -> np.ndarray:
    """The head bound of the blocks with prefixes ``p`` (one per row) and
    prefix costs ``const``: a lower bound on every value in each block.

    The suffix s splits into its first t = min(_HEAD_BITS, m) bits u and
    the rest v, and w(p) = Q_ps' p into w_u and w_v alike; with B(u) =
    min_v base(u, v), every value in block p is at least

        head(p) = const(p) + min_u [B(u) + w_u(p)'u] - ||w_v(p)||_1,

    the L1 bound made exact over the head bits, so never below it.
    """
    t = min(_HEAD_BITS, q_ps.shape[1])
    w = p @ q_ps
    heads = w[:, :t] @ _suffix_table(t).T
    heads += suffix_base.reshape(2 ** t, -1).min(axis=1)
    bounds = heads.min(axis=1)
    bounds += const
    bounds -= np.abs(w[:, t:]).sum(axis=1)
    return bounds


def brute_force_minimize(inst: BqpInstance, max_n: int = 25) -> OracleResult:
    """Return the global minimum over all 2^n sign vectors.

    Ties within ``1e-9 * (1 + |best|)`` of the minimum are counted, and
    the reported minimizer is the lexicographically smallest of them
    (ordering -1 < +1).

    Only blocks that can hold a minimizer are evaluated (see the module
    docstring).  The first pass orders the blocks by lb (a stable sort,
    so equal bounds keep prefix order) and evaluates the first, of
    minimum ``b1``.  It skips every block with ``lb - slack > b1 + 1e-9 *
    (1 + |b1|)``, and orders the rest, the candidates, by head (a stable
    sort again).  After each chunk it takes the frontier, the first
    candidate in that order with ``head - slack > best + 1e-9 * (1 +
    |best|)``, ``best`` being the minimum so far, and evaluates at most 8
    more candidates short of it.  Both bounds are at most every value of
    their block, later candidates have head bounds at least as high,
    ``best <= b1``, and ``b -> b + 1e-9 * (1 + |b|)`` is increasing, so
    every skipped value is above the final minimum plus the tie
    tolerance.  The blocks evaluated include every block that a
    one-block-at-a-time walk in the same order visits.  The minimum, the
    evaluated blocks within the tie tolerance, and so the count and the
    lexicographic winner, are therefore those of a full scan; the
    minimum is read as the first one in prefix order, as a full scan
    finds it, which also fixes the sign of a zero minimum.

    On integer-valued data (every generator, fixture and test instance)
    every partial sum is exact, so ``best_x``, the bytes of
    ``best_value`` and ``minimizer_count`` are those of any scan of all
    2^n values.  On other data they are those of a scan of every block
    through the same kernel, in chunks of any size, wherever a row of a
    gemm product does not depend on the rows beside it (OpenBLAS's does
    not; ``tests/test_oracle_float_property.py`` checks it); a single
    block is evaluated as two rows to stay on gemm.

    The slack is ``1e-12 * (1 + 2S)`` with ``S = sum|Q_ij| + sum|c_i|``.
    Every partial sum formed in evaluating a value or a bound is at most
    S in magnitude: a value is a sum of terms such as ``p_i Q_ij s_j``
    whose magnitudes add up to at most S, and every partial sum of lb(p)
    or head(p), B(u) and the ``|w_j(p)|`` included, is a signed sub-sum of
    those terms.  Rounding moves each by a few n * 2^-53 * S, far below
    the slack at any n whose tables fit in memory.  Where 2S
    overflows, the slack is infinite and every block is evaluated: a
    block is only skipped when no evaluation in it can overflow, and its
    bound is finite.

    Raises :class:`TooLarge` for ``n > max_n``, for a sign table or a
    slice of head bounds that cannot be allocated, and for data on which the first pass finds a
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

    # Overflowing data make infs and NaNs here; they are refused below,
    # or, in a block whose minimum is finite, are never a minimizer.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            suffixes = _suffix_table(m)
            prefixes = _suffix_table(k) if k <= _BLOCK_BITS else _sign_table(k)
            # Per-suffix cost that does not depend on the prefix.
            suffix_base = 0.5 * ((suffixes @ q_ss) * suffixes).sum(axis=1) - suffixes @ c_s
            const = 0.5 * ((prefixes @ q_pp) * prefixes).sum(axis=1) - prefixes @ c_p
            lower = const + suffix_base.min() - np.abs(prefixes @ q_ps).sum(axis=1)
        except MemoryError as exc:
            raise TooLarge(f"cannot allocate the sign tables at n={n}") from exc
        slack = _SLACK_REL * (1.0 + 2.0 * (np.abs(q).sum() + np.abs(c).sum()))
        # An infinite slack skips nothing, whatever the bound (even NaN).
        bounded = np.isfinite(slack)
        key = lower - slack if bounded else np.full(2 ** k, -np.inf)
        order = np.argsort(key, kind="stable")

        block_mins = np.full(2 ** k, np.inf)
        first = order[:1]
        block_mins[first] = _block_values(prefixes[first], const[first], q_ps, suffixes, suffix_base).min(axis=1)
        best = block_mins[first[0]]
        # The candidates: every other block short of the L1 frontier.
        frontier = np.searchsorted(key[order], _tie_limit(best), side="right")
        cand = order[1:frontier]
        head_key = np.full(cand.size, -np.inf)
        if bounded:
            # In slices, so that no product outgrows the 2^k x m one above.
            step = max(1, (2 ** k * m) >> min(_HEAD_BITS, m))
            try:
                for lo in range(0, cand.size, step):
                    idx = cand[lo:lo + step]
                    head_key[lo:lo + step] = _head_bounds(prefixes[idx], const[idx], q_ps, suffix_base) - slack
            except MemoryError as exc:
                raise TooLarge(f"cannot allocate the head bounds at n={n}") from exc
        walk = np.argsort(head_key, kind="stable")
        cand, sorted_key = cand[walk], head_key[walk]

        start = 0
        stop = min(np.searchsorted(sorted_key, _tie_limit(best), side="right"), _CHUNK)
        while start < stop:
            idx = cand[start:stop]
            mins = _block_values(prefixes[idx], const[idx], q_ps, suffixes, suffix_base).min(axis=1)
            block_mins[idx] = mins
            best = min(best, mins.min())
            frontier = np.searchsorted(sorted_key, _tie_limit(best), side="right")
            start, stop = stop, min(frontier, stop + _CHUNK)
        if not np.isfinite(block_mins[np.r_[first, cand[:start]]]).all():
            raise TooLarge("objective values overflow float64")
        # The first minimum in prefix order, as a full scan finds it.
        best = block_mins[np.argmin(block_mins)]

        limit = _tie_limit(best)
        tied = np.nonzero(block_mins <= limit)[0]
        count = 0
        best_index = None
        for lo in range(0, tied.size, _CHUNK):
            idx = tied[lo:lo + _CHUNK]
            vals = _block_values(prefixes[idx], const[idx], q_ps, suffixes, suffix_base)
            rows, cols = np.nonzero(vals <= limit)
            count += rows.size
            if best_index is None and rows.size:
                best_index = (int(idx[rows[0]]) << m) | int(cols[0])

    best_x = np.concatenate([prefixes[best_index >> m], suffixes[best_index & (2 ** m - 1)]])
    return OracleResult(best_x=best_x, best_value=float(best), minimizer_count=int(count))
