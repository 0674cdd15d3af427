import itertools

import numpy as np
import pytest

import golden_data as gold
from bqpbench import BqpInstance, TooLarge, brute_force_minimize, objective_value


def exhaustive_reference(inst):
    """Independent direct enumeration via itertools, no incremental tricks."""
    best_value = np.inf
    best_x = None
    for signs in itertools.product((-1.0, 1.0), repeat=inst.n):
        value = objective_value(inst, np.array(signs))
        if value < best_value:
            best_value = value
            best_x = np.array(signs)
    return best_x, best_value


def test_example1():
    result = brute_force_minimize(BqpInstance(gold.Q1, gold.C1))
    np.testing.assert_array_equal(result.best_x, gold.X1)
    assert result.best_value == gold.F1
    assert result.minimizer_count == 1


def test_linear_only():
    inst = BqpInstance(np.zeros((2, 2)), [1.0, -1.0])
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, [1.0, -1.0])
    assert result.best_value == -2.0
    assert result.minimizer_count == 1


def test_symmetric_tie_lexicographic():
    # f = x1*x2 has the two minimizers (-1, 1) and (1, -1); the report
    # must pick the lexicographically smaller one.
    inst = BqpInstance([[0.0, 1.0], [1.0, 0.0]], np.zeros(2))
    result = brute_force_minimize(inst)
    assert result.best_value == -1.0
    assert result.minimizer_count == 2
    np.testing.assert_array_equal(result.best_x, [-1.0, 1.0])


def test_refuses_beyond_cap():
    inst = BqpInstance(np.eye(6), np.ones(6))
    with pytest.raises(TooLarge):
        brute_force_minimize(inst, max_n=5)


def test_matches_direct_enumeration():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8):
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        inst = BqpInstance(a + a.T, rng.integers(-9, 10, n).astype(float))
        ref_x, ref_value = exhaustive_reference(inst)
        result = brute_force_minimize(inst)
        assert result.best_value == pytest.approx(ref_value, abs=1e-12)
        assert objective_value(inst, result.best_x) == result.best_value


def test_block_split_agrees_with_direct_objective():
    # n above the block width exercises the prefix/suffix split.
    rng = np.random.default_rng(31)
    n = 15
    a = rng.standard_normal((n, n))
    inst = BqpInstance((a + a.T) / 2.0, rng.standard_normal(n))
    result = brute_force_minimize(inst)
    assert objective_value(inst, result.best_x) == pytest.approx(result.best_value, abs=1e-12)
    for _ in range(1000):
        x = 2.0 * rng.integers(0, 2, n) - 1.0
        assert objective_value(inst, x) >= result.best_value - 1e-9 * (1.0 + abs(result.best_value))


def test_lexicographic_first_across_blocks():
    # Zero data: every sign vector ties at 0, so the count is 2^n and the
    # winner is all minus ones, even when ties span many blocks.
    n = 14
    inst = BqpInstance(np.zeros((n, n)), np.zeros(n))
    result = brute_force_minimize(inst)
    assert result.minimizer_count == 2 ** n
    np.testing.assert_array_equal(result.best_x, -np.ones(n))


@pytest.mark.parametrize("n", [2, 14])
def test_refuses_overflowing_objective(n):
    # Entries of +-1e308 make objective values overflow to +-inf and NaN,
    # in one block (n = 2) and across the prefix/suffix split (n = 14);
    # no warning may escape.
    signs = np.where(np.random.default_rng(n).random((n, n)) < 0.5, -1.0, 1.0)
    inst = BqpInstance(1e308 * np.triu(signs) + 1e308 * np.triu(signs, 1).T, np.ones(n))
    with pytest.raises(TooLarge, match="overflow float64"):
        brute_force_minimize(inst)
