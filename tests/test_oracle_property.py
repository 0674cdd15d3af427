import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import bqpbench.oracle as oracle
from bqpbench import BqpInstance, brute_force_minimize
from test_oracle_float_property import _gaussian_instances


def full_table(inst):
    """All 2^n sign vectors as the rows of one table (lexicographic order,
    -1 before +1), and their values."""
    n = inst.n
    codes = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]
    x = 2.0 * (codes & 1) - 1.0
    return x, 0.5 * np.einsum("ij,jk,ik->i", x, inst.q, x) - x @ inst.c


def full_table_minimum(inst):
    """The minimum over the full table; the first row within the tie
    tolerance wins."""
    x, values = full_table(inst)
    best = values.min()
    ties = values <= best + 1e-9 * (1.0 + abs(best))
    return x[np.argmax(ties)], best, int(ties.sum())


@st.composite
def _small_integer_instances(draw):
    # n >= 14 puts a prefix of at least one bit in front of the 13-bit
    # suffix table, so blocks can be skipped; entries in -3..3 make ties.
    n = draw(st.integers(14, 18))
    entries = st.integers(-3, 3)
    q = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    q = np.triu(q) + np.triu(q, 1).T
    c = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=float)
    return BqpInstance(q, c)


@settings(max_examples=25, deadline=None)
@given(_small_integer_instances())
def test_pruned_oracle_equals_the_full_table(inst):
    ref_x, ref_value, ref_count = full_table_minimum(inst)
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, ref_x)
    assert result.best_value == ref_value
    assert result.minimizer_count == ref_count


@settings(max_examples=25, deadline=None)
@given(st.one_of(_small_integer_instances(), _gaussian_instances()), st.sampled_from([1, oracle._HEAD_BITS, 9]),
       st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_head_bound_is_below_every_block_minimum(inst, bits, quantile):
    # Block p holds the 2^13 vectors with prefix p, consecutive in the full
    # table, and its head row u the 2^(13 - bits) of them whose suffix
    # starts with u.  At any head width, every row's bound is at most the
    # row's minimum and at least the block's L1 bound, both up to the
    # oracle's rounding slack (0 on integer data, where the values are
    # exact).  The oracle evaluates a head row unless its bound is above a
    # cut, so every row whose minimum is at most the cut less the slack is
    # evaluated, no row of a block whose L1 bound less the slack is above
    # the cut is, and the rows' values are the full table's.
    m = min(inst.n, oracle._BLOCK_BITS)
    k = inst.n - m
    q, c = inst.q, inst.c
    q_ps = q[:k, k:]
    prefixes = oracle._sign_table(k)
    suffix_base = oracle._costs(q[k:, k:], c[k:])
    const = oracle._costs(q[:k, :k], c[:k])
    values = full_table(inst)[1].reshape(2 ** k, 2 ** bits, -1)
    row_mins = values.min(axis=2)
    cut = np.quantile(row_mins, quantile)
    _, slack = oracle._tolerances(q, c)
    base = suffix_base.reshape(2 ** bits, -1)
    head_values, tails, bounds = oracle._head_rows(prefixes, const, q_ps, oracle._suffix_table(m), base.min(axis=1))
    l1 = const + suffix_base.min() - np.abs(prefixes @ q_ps).sum(axis=1)
    assert (bounds - slack <= row_mins).all()
    assert (bounds + slack >= l1[:, None]).all()
    rows, heads = np.nonzero(~(bounds > cut))
    evaluated = np.zeros(row_mins.shape, dtype=bool)
    evaluated[rows, heads] = True
    assert evaluated[row_mins <= cut - slack].all()
    assert (l1[rows] - slack <= cut).all()
    if rows.size:
        got = oracle._row_values(head_values, tails, base, rows, heads)
        np.testing.assert_allclose(got, values[rows, heads], rtol=0, atol=slack)


@st.composite
def _large_integer_instances(draw):
    # Integer data scaled by up to 1e12: a large part, scaled, plus a small
    # one, so that distinct values lie far closer than 1e-9 of their
    # magnitude.
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]))

    def symmetric():
        a = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)), dtype=np.int64)
        a = a.reshape(n, n)
        return np.triu(a) + np.triu(a, 1).T

    def vector():
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)

    return scale * symmetric() + symmetric(), scale * vector() + vector()


def exact_scan(q, c):
    """Twice the minimum over all sign vectors, its count and the first
    vector attaining it, in Python integers."""
    n = len(c)
    codes = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]
    x = (2 * (codes & 1) - 1).astype(object)
    twice = ((x @ q.astype(object)) * x).sum(axis=1) - 2 * (x @ c.astype(object))
    best = min(twice)
    ties = [i for i, value in enumerate(twice) if value == best]
    return best, len(ties), x[ties[0]].astype(float)


@settings(max_examples=25, deadline=None)
@given(_large_integer_instances())
def test_ties_are_exact_on_integer_data(data):
    q, c = data
    twice_best, count, best_x = exact_scan(q, c)
    result = brute_force_minimize(BqpInstance(q.astype(float), c.astype(float)))
    assert result.minimizer_count == count
    np.testing.assert_array_equal(result.best_x, best_x)
    assert result.best_value == twice_best / 2
