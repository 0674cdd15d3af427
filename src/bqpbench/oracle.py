"""Exact minimization over all sign vectors, for ground truth at small n.

A sign vector splits as x = (p, s): a prefix p of k = n - m coordinates
and a suffix s of the last m = min(n, 13) coordinates.  The 2^m suffixes
form one table S in lexicographic order (-1 before +1), built once per
width and shared, read-only, by every later call.  The 2^m vectors that
share a prefix form a block, whose values are

    const(p) + base(s) + w(p)'s,   const(p) = p'Q_pp p / 2 - c_p'p,
                                   base(s) = s'Q_ss s / 2 - c_s's,
                                   w(p) = Q_ps' p.

The cost tables base and const are built from half-width tables.  A
cost x'Ax / 2 - b'x over x = (u, v), u its first half, is

    (U A_uv) V' + b(u)[:, None] + b(v),

with U and V the sign tables of the halves and b(u), b(v) the costs of
the halves alone: one small product and two broadcasts, in the order of
the full table, and no sign table wider than the halves.

A block is evaluated by head rows.  The suffix splits again, into its
first t = min(6, m) bits u, the head, and the other r = m - t bits v,
the tail, and w(p) alike into w_u and w_v.  Head row (p, u) holds the
2^r values

    heads[p, u] + base(u, v) + tails[p, v],   summed in that order,
    heads[p, u] = const(p) + w_u(p)'u,   tails[p, v] = w_v(p)'v,

so a chunk of blocks, whose rows w(p)' form a matrix W, takes two small
products, H = W_u U' and T = W_v V', and then only the sums of the rows
it evaluates.  Two lower bounds decide which rows those are.  The L1
bound of a block, lb(p) = const(p) + min(base) - ||w(p)||_1, comes from
one (2^k x k)(k x m) product for all blocks at once; the bound of a head
row,

    heads[p, u] + B(u) - ||w_v(p)||_1,   B(u) = min_v base(u, v),

is the L1 bound made exact over the head bits, so never below it.  B(u)
is formed once per call, so a row bound costs two small sums beyond H.

A first pass evaluates every head row of the block of lowest L1 bound.
The candidates are the other blocks whose L1 bound, less a rounding
slack, is within the tie tolerance of that block's minimum; every other
block is skipped there.  The pass walks the candidates in increasing L1
bound, in chunks of at most 64 blocks, each cut off at the frontier: the
first candidate whose L1 bound, less the slack, is above the running
minimum plus the tie tolerance.  In each chunk it evaluates only the head
rows whose bound is within that limit plus the slack, 256 rows at a
time, and takes the limit again before each slice.  The frontier is
taken again after every chunk, and the pass stops when the next chunk
would be empty: no value in a skipped row or block can be a minimizer or
tie with one.  A second pass takes the tied blocks, those whose minimum
is within the final tie tolerance, in prefix order and in chunks of at
most 64, and evaluates again, by the same row loop and the same sums,
their head rows whose bound is within that tolerance plus the slack: it
counts the minimizers, and the first one it meets is the
lexicographically smallest.  The result is the one a scan of all 2^n
vectors gives, bit for bit (see :func:`brute_force_minimize` for against
what and for the tolerances).  How much is skipped depends on the data:
where every vector ties (Q = 0, c = 0), every head row is evaluated, and
again in the second pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import BqpInstance

# The largest n enumerated without --force: brute_force_minimize's and
# ``bqpbench oracle``'s default cap.
MAX_N = 25

_BLOCK_BITS = 13
# Suffix bits of a head row: a row holds the 2^(13 - 6) = 128 values that
# share a prefix and the first 6 suffix bits.
_HEAD_BITS = 6
# Blocks per chunk of either pass.  On four 64-instance pools of the
# n = 24 instances of the near-boundary benchmark (one BLAS thread, 2
# vCPUs), a call took 21-36% longer with chunks of 16 blocks, -2% to +11%
# with 32, and -4% to +5% with 128.  Walking the candidates in order of
# their 6-bit head bound (the least bound of their head rows) instead took
# 7-9% longer in chunks of 32 and 21-26% in chunks of 8 (measured before
# the row slices): it forms every candidate's H once more, to sort them.
_WALK_CHUNK = 64
# Head rows evaluated at a time: their values and the one gathered
# operand beside them take 512 KB, as the values of 8 whole blocks do.
_SLICE_ROWS = 256
_TIE_REL = 1e-9
# Rounding slack of the bounds, relative to the data's scale.
_SLACK_REL = 1e-12
# Integral data whose 1/2 sum|Q_ij| + sum|c_i| is below this are summed
# exactly (see brute_force_minimize).
_EXACT_SCALE = 2.0 ** 52


class TooLarge(Exception):
    """Instance dimension exceeds the enumeration cap, its sign tables
    cannot be allocated, or its objective values overflow float64."""


@dataclass(eq=False)
class OracleResult:
    """A minimizer, the minimum and the number of sign vectors attaining
    it; results compare by identity."""

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

    It serves the suffixes (whose rows also give the head and tail
    tables), the halves of the cost tables and prefixes of up to 13 bits
    (n <= 26).  Widths run from 0 to the
    block width, so at most 14 tables (1.6 MB) are ever held.
    """
    table = _sign_table(bits)
    table.setflags(write=False)
    return table


def _signs(bits: int) -> np.ndarray:
    """The sign table of width ``bits``: the shared one up to the block
    width; a wider one (under ``--force`` only) is built per call and not
    cached, as it can take hundreds of MB."""
    return _suffix_table(bits) if bits <= _BLOCK_BITS else _sign_table(bits)


def _costs(a, b) -> np.ndarray:
    """``x'Ax / 2 - b'x`` for every sign vector x of width ``len(b)``, in
    lexicographic order.

    x splits into its first h = len(b) // 2 bits u and the rest v, so the
    table is ``(U A_uv) V' + b(u)[:, None] + b(v)`` raveled, with U and V
    the sign tables of the halves and b(u), b(v) the costs of the halves
    alone.
    """
    h = b.shape[0] // 2
    u, v = _signs(h), _signs(b.shape[0] - h)
    cost_u = 0.5 * ((u @ a[:h, :h]) * u).sum(axis=1) - u @ b[:h]
    cost_v = 0.5 * ((v @ a[h:, h:]) * v).sum(axis=1) - v @ b[h:]
    costs = (u @ a[:h, h:]) @ v.T
    costs += cost_u[:, None]
    costs += cost_v
    return costs.ravel()


def _tolerances(q, c):
    """The tie tolerance, relative to ``1 + |best|``, and the rounding
    slack of the bounds: both 0 on data whose every partial sum is exact
    (see :func:`brute_force_minimize`), else ``1e-9`` and ``1e-12 * (1 +
    2S)`` with ``S = sum|Q_ij| + sum|c_i|``."""
    abs_q, abs_c = np.abs(q).sum(), np.abs(c).sum()
    if 0.5 * abs_q + abs_c < _EXACT_SCALE and (q == np.trunc(q)).all() and (c == np.trunc(c)).all():
        return 0.0, 0.0
    return _TIE_REL, _SLACK_REL * (1.0 + 2.0 * (abs_q + abs_c))


def _head_rows(p, const, q_ps, suffixes, floors):
    """The head rows of the blocks with prefixes ``p`` (one per row) and
    prefix costs ``const``: ``heads``, ``tails`` and the rows' bounds.

    ``floors`` holds B(u) = min_v base(u, v), the least suffix cost of each
    head u, the first t suffix bits, v the other r bits; its length gives
    t.  With w(p) = Q_ps' p split alike into w_u and w_v,

        heads[p, u] = const(p) + w_u(p)'u,   tails[p, v] = w_v(p)'v,

    and the bound of head row (p, u), at most each of its values, is
    ``heads[p, u] + B(u) - ||w_v(p)||_1``.  The sign tables of
    the heads and of the tails are views of ``suffixes``: its rows 0, 2^r,
    2 * 2^r, ... hold the heads in order and its first 2^r rows the tails.

    A single block is evaluated as two rows: numpy sends a one-row product
    to gemv, whose sums can round otherwise than gemm's, and a block must
    get the same values in whatever chunk it is evaluated.
    """
    blocks = len(p)
    if blocks == 1:
        p, const = np.repeat(p, 2, axis=0), np.repeat(const, 2)
    head_bits = floors.shape[0].bit_length() - 1
    width = suffixes.shape[0] // floors.shape[0]
    w = p @ q_ps
    heads = w[:, :head_bits] @ suffixes[::width, :head_bits].T
    heads += const[:, None]
    tails = w[:, head_bits:] @ suffixes[:width, head_bits:].T
    heads, tails = heads[:blocks], tails[:blocks]
    bounds = heads + floors
    bounds -= np.add.reduce(np.abs(w[:blocks, head_bits:]), axis=1)[:, None]
    return heads, tails, bounds


def _row_values(heads, tails, base, rows, cols) -> np.ndarray:
    """The values of the head rows (``rows[i]``, ``cols[i]``) of
    :func:`_head_rows`, given in row-major order, each once: one row of
    2^r each,

        heads[p, u] + base(u, v) + tails[p, v],   summed in that order.
    """
    values = heads[rows, cols][:, None] + base[cols]
    values += tails[rows]
    return values


def brute_force_minimize(inst: BqpInstance, max_n: int = MAX_N) -> OracleResult:
    """Return the global minimum over all 2^n sign vectors.

    Ties are counted, and the reported minimizer is the lexicographically
    smallest of them (ordering -1 < +1).  On integral data with ``V =
    1/2 sum|Q_ij| + sum|c_i| < 2^52`` a tie is an equal value; on other
    data it is a value within ``1e-9 * (1 + |best|)`` of the minimum.

    The cost tables base and const come from half-width tables, and only
    head rows that can hold a minimizer are evaluated (see the module
    docstring).  The first pass evaluates every head row of the block of
    least lb (the first in prefix order among equal bounds), of minimum
    ``b1``.  It skips every block with ``lb - slack > b1 + tol(b1)``,
    ``tol(b) = 1e-9 * (1 + |b|)`` (0 on integral data), and walks the
    rest, the candidates, in a stable sort by lb.  Before each chunk it
    takes the frontier, the first candidate in that order with ``lb -
    slack > best + tol(best)``, ``best`` being the minimum so far, and
    takes at most 64 more candidates short of it; of those it evaluates
    the head rows whose bound is at or below that limit plus the slack,
    the limit taken again before each slice of 256 rows.  Both
    bounds are at most every value of their block or row, later
    candidates have L1 bounds at least as high, ``best <= b1``, and ``b ->
    b + tol(b)`` is increasing, so every skipped value is above the final
    minimum plus the tie tolerance.  The minimum, the evaluated rows within
    the tie tolerance, and so the count and the lexicographic winner, are
    therefore those of a full scan; the minimum is read as the first one
    in prefix order, as a full scan finds it, which also fixes the sign
    of a zero minimum.  The second pass evaluates those tied rows again:
    the head rows, whose bound is at or below the final limit plus the
    slack, of the blocks whose minimum is at or below that limit, in
    prefix order, so the first value within the limit it meets is the
    lexicographic winner.

    On integral data with ``V < 2^52`` every sum the oracle forms is
    exact, so ``best_x``, the bytes of ``best_value`` and
    ``minimizer_count`` are those of any exact scan of all 2^n values,
    and the tie tolerance and the slack are 0.  A value is a sum of the
    terms ``p_i Q_ij s_j``, ``Q_ij x_i x_j / 2`` and ``c_i x_i``, whose
    magnitudes add up to at most V, and every partial sum the kernel and
    the bounds form is a multiple of 1/2 bounded by the magnitudes of
    distinct ones of those terms, so by V < 2^52, and is held exactly in
    float64.  That covers the entries of the gemm products W = P Q_ps, H,
    T and U A_uv V' in whatever order BLAS sums them, ``||w_v||_1``, B(u),
    the head row bounds and lb(p).  The inner sums ``x'Ax`` of the costs
    of the halves are integers of magnitude at most ``sum|Q_ij| <= 2V <
    2^53`` before they are halved, so they are exact too.

    On other data the results are those of a scan of every block through
    the same kernel, the cost tables of :func:`_costs` included, in chunks
    of any size, wherever a row of a gemm product does not depend on the
    rows beside it (OpenBLAS's does not;
    ``tests/test_oracle_float_property.py`` checks it); a single block is
    evaluated as two rows to stay on gemm.  The slack is then ``1e-12 *
    (1 + 2S)`` with ``S = sum|Q_ij| + sum|c_i|``.  Every partial sum formed
    in evaluating a value, a cost or a bound is at most S in magnitude, by
    the argument above, and rounding moves each by a few n *
    2^-53 * S, far below the slack at any n whose tables fit in memory.
    Where 2S overflows, the slack is infinite and every head row of every
    block is evaluated: a row is only skipped when no evaluation in it can
    overflow, and its bound is finite.

    Raises :class:`TooLarge` for ``n > max_n``, for a sign table that
    cannot be allocated, and for data on which an evaluated block has a
    minimum that is not finite (the objective overflows float64).
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
            # Before the cost tables: a prefix table too large to allocate
            # fails here, before any half table of its width is built.
            prefixes = _signs(k)
            # Per-suffix cost that does not depend on the prefix.
            suffix_base = _costs(q_ss, c_s)
            const = _costs(q_pp, c_p)
            # The L1 bounds, with the row sums as a product: numpy's sum
            # along rows of m <= 13 entries took several times as long.
            key = const + suffix_base.min() - np.abs(prefixes @ q_ps) @ np.ones(m)
        except MemoryError as exc:
            raise TooLarge(f"cannot allocate the sign tables at n={n}") from exc
        tie_rel, slack = _tolerances(q, c)
        head_bits = min(_HEAD_BITS, m)
        # base(u, v) by head row, and B(u), formed once per call.
        base = suffix_base.reshape(2 ** head_bits, -1)
        floors = np.minimum.reduce(base, axis=1)
        # The L1 bounds less the slack; an infinite slack skips nothing,
        # whatever the bound (even NaN).
        if np.isfinite(slack):
            key -= slack
        else:
            key.fill(-np.inf)

        block_mins = np.full(2 ** k, np.inf)
        evaluated = np.zeros(2 ** k, dtype=bool)
        best = limit = np.inf
        count = 0
        best_index = None

        def evaluate(idx, visit):
            """Call ``visit(blocks, heads, values)`` on the head rows of
            blocks ``idx`` whose bound is not above the tie limit plus the
            slack, in row-major order, _SLICE_ROWS at a time; the limit is
            read again before each slice."""
            heads, tails, bounds = _head_rows(prefixes[idx], const[idx], q_ps, suffixes, floors)
            all_rows, all_cols = np.nonzero(~(bounds > limit + slack))
            for lo in range(0, all_rows.size, _SLICE_ROWS):
                rows, cols = all_rows[lo:lo + _SLICE_ROWS], all_cols[lo:lo + _SLICE_ROWS]
                if lo:
                    # The limit may have fallen since the rows were cut.
                    near = ~(bounds[rows, cols] > limit + slack)
                    rows, cols = rows[near], cols[near]
                if rows.size:
                    visit(idx[rows], cols, _row_values(heads, tails, base, rows, cols))

        def take_minima(blocks, heads, values):
            """First pass: take the rows' minima into the blocks' and the
            running minimum, and lower the tie limit."""
            nonlocal best, limit
            row_mins = np.minimum.reduce(values, axis=1)
            np.minimum.at(block_mins, blocks, row_mins)
            evaluated[blocks] = True
            best = min(best, row_mins.min())
            limit = best + tie_rel * (1.0 + abs(best))

        def count_ties(blocks, heads, values):
            """Second pass: count the values within the final tie limit;
            the first one met is the lexicographic winner."""
            nonlocal count, best_index
            ties = values <= limit
            if best_index is None and ties.any():
                row, col = divmod(int(np.argmax(ties)), ties.shape[1])
                best_index = (int(blocks[row]) << m) | (int(heads[row]) << (m - head_bits)) | col
            count += np.count_nonzero(ties)

        # The block of least L1 key first, every head row of it.
        first = np.argmin(key, keepdims=True)
        evaluate(first, take_minima)
        # The candidates: every other block short of the L1 frontier, in
        # the order of a stable sort of all the L1 keys (a NaN limit, from a
        # first block that overflows, keeps them all).
        cand = np.flatnonzero(~(key > limit))
        cand = cand[cand != first[0]]
        cand = cand[np.argsort(key[cand], kind="stable")]
        sorted_key = key[cand]
        start = 0
        stop = min(np.searchsorted(sorted_key, limit, side="right"), _WALK_CHUNK)
        while start < stop:
            evaluate(cand[start:stop], take_minima)
            frontier = np.searchsorted(sorted_key, limit, side="right")
            start, stop = stop, min(frontier, stop + _WALK_CHUNK)
        if not np.isfinite(block_mins[evaluated]).all():
            raise TooLarge("objective values overflow float64")
        # The first minimum in prefix order, as a full scan finds it.
        best = block_mins[np.argmin(block_mins)]
        limit = best + tie_rel * (1.0 + abs(best))
        # The tied blocks in prefix order, their rows evaluated again.
        tied = np.flatnonzero(block_mins <= limit)
        for lo in range(0, tied.size, _WALK_CHUNK):
            evaluate(tied[lo:lo + _WALK_CHUNK], count_ties)

    best_x = np.concatenate([prefixes[best_index >> m], suffixes[best_index & (2 ** m - 1)]])
    return OracleResult(best_x=best_x, best_value=float(best), minimizer_count=int(count))
