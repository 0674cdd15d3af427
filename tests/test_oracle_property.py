import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqpbench import BqpInstance, brute_force_minimize


def full_table_minimum(inst):
    """All 2^n sign vectors as the rows of one table (lexicographic order,
    -1 before +1), valued at once; the first row within the tie tolerance
    wins."""
    n = inst.n
    codes = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]
    x = 2.0 * (codes & 1) - 1.0
    values = 0.5 * np.einsum("ij,jk,ik->i", x, inst.q, x) - x @ inst.c
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
