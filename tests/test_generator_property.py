import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import bqpbench.generator as gen
from bqpbench import BqpInstance, min_eigenvalue, q_of_lambda


@st.composite
def _row_sum_shifts(draw):
    # Small symmetric integer matrices, zeros common so that patterns are
    # often reducible, shifted as the generator shifts them.
    n = draw(st.integers(1, 8))
    entries = st.one_of(st.just(0), st.integers(-3, 3))
    q = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float)
    q = q.reshape(n, n)
    q = np.triu(q) + np.triu(q, 1).T
    x = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    shift = float(draw(st.sampled_from([0, 0, 0, 1])))
    lam = np.abs(q).sum(axis=1) + shift
    return BqpInstance(q, q @ x + lam * x), x, lam, shift


@settings(max_examples=400, deadline=None)
@given(_row_sum_shifts())
def test_a_proven_shift_is_positive_definite(draw):
    inst, x, lam, shift = draw
    state = gen._proven_state(inst, x.copy(), lam.copy(), shift)
    if state is not None:
        assert min_eigenvalue(q_of_lambda(inst.q, lam)) > 0
        assert state.x_of_lambda.tobytes() == x.tobytes()
