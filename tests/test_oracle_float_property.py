import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import bqpbench.oracle as oracle
from bqpbench import BqpInstance, brute_force_minimize, objective_value


def unpruned_scan(inst):
    """Every block through the oracle's kernel, its cost tables included,
    in chunks of its size and prefix order, so the 2^n values come out in
    lexicographic order; the first value within the tie tolerance of the
    minimum wins."""
    m = min(inst.n, oracle._BLOCK_BITS)
    k = inst.n - m
    q, c = inst.q, inst.c
    q_pp, q_ps, q_ss = q[:k, :k], q[:k, k:], q[k:, k:]
    c_p, c_s = c[:k], c[k:]
    suffixes = oracle._suffix_table(m)
    prefixes = oracle._sign_table(k)
    suffix_base = oracle._costs(q_ss, c_s)
    const = oracle._costs(q_pp, c_p)
    values = np.concatenate([
        oracle._block_values(prefixes[lo:lo + oracle._CHUNK], const[lo:lo + oracle._CHUNK],
                             q_ps, suffixes, suffix_base)
        for lo in range(0, 2 ** k, oracle._CHUNK)
    ]).ravel()
    best = values[np.argmin(values)]
    ties = values <= best + 1e-9 * (1.0 + abs(best))
    first = int(np.argmax(ties))
    x = np.concatenate([prefixes[first >> m], suffixes[first & (2 ** m - 1)]])
    return x, float(best), int(ties.sum())


@st.composite
def _gaussian_instances(draw):
    # Non-integer data, where partial sums round: n >= 14 puts a prefix of
    # at least one bit in front of the 13-bit suffix table.
    n = draw(st.integers(14, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((n, n))
    return BqpInstance((a + a.T) / 2.0, rng.standard_normal(n))


@settings(max_examples=25, deadline=None)
@given(_gaussian_instances())
def test_pruned_oracle_is_the_unpruned_scan_bitwise(inst):
    ref_x, ref_value, ref_count = unpruned_scan(inst)
    result = brute_force_minimize(inst)
    assert result.best_x.tobytes() == ref_x.tobytes()
    assert np.float64(result.best_value).tobytes() == np.float64(ref_value).tobytes()
    assert result.minimizer_count == ref_count
    assert abs(objective_value(inst, result.best_x) - result.best_value) <= 1e-12
