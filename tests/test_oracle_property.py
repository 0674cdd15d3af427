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
@given(st.one_of(_small_integer_instances(), _gaussian_instances()), st.sampled_from([oracle._HEAD_BITS, oracle._SCREEN_BITS]))
def test_head_bound_is_below_every_block_minimum(inst, bits):
    # Block p holds the 2^13 vectors with prefix p, consecutive in the
    # full table.  Its head bound at the ordering (6) and the screening
    # (9) width is at most its minimum and at least its L1 bound, both up
    # to the oracle's rounding slack.
    m = min(inst.n, oracle._BLOCK_BITS)
    k = inst.n - m
    q, c = inst.q, inst.c
    q_ps, q_ss = q[:k, k:], q[k:, k:]
    suffixes = oracle._sign_table(m)
    prefixes = oracle._sign_table(k)
    suffix_base = 0.5 * np.einsum("ij,jk,ik->i", suffixes, q_ss, suffixes) - suffixes @ c[k:]
    const = 0.5 * np.einsum("ij,jk,ik->i", prefixes, q[:k, :k], prefixes) - prefixes @ c[:k]
    block_mins = full_table(inst)[1].reshape(2 ** k, 2 ** m).min(axis=1)
    l1 = const + suffix_base.min() - np.abs(prefixes @ q_ps).sum(axis=1)
    slack = oracle._SLACK_REL * (1.0 + 2.0 * (np.abs(q).sum() + np.abs(c).sum()))
    head = oracle._head_bounds(prefixes, const, q_ps, suffix_base.reshape(2 ** bits, -1).min(axis=1))
    assert (head - slack <= block_mins).all()
    assert (head + slack >= l1).all()
