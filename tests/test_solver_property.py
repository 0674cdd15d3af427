import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqpbench import BqpInstance, SolveStatus, brute_force_minimize, objective_value, solve_dual


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 10))
    entries = st.integers(-20, 20)
    q = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float)
    q = q.reshape(n, n)
    q = np.triu(q) + np.triu(q, 1).T
    # Zero entries of c leave x_i(lam) near 0, where the solver steps
    # along the gradient instead of the closed-form Newton direction.
    c = draw(st.lists(st.one_of(st.just(0), entries), min_size=n, max_size=n))
    return BqpInstance(q, np.array(c, dtype=float))


@settings(max_examples=150, deadline=None)
@given(_instances())
def test_dual_bounds_the_minimum_and_certificates_are_optimal(inst):
    best = brute_force_minimize(inst).best_value
    tol = 1e-9 * (1.0 + abs(best))
    report = solve_dual(inst)
    assert report.dual_value <= best + tol
    if report.status is SolveStatus.CERTIFIED:
        assert abs(objective_value(inst, report.x) - best) <= tol


@st.composite
def _spectral_instances(draw):
    """Planted at lam = (ceil(-lambda_min(Q)) + 1) * e: Q + diag(lam) is PD
    and c = (Q + diag(lam)) x, so the drawn x is the unique minimizer."""
    n = draw(st.integers(1, 10))
    q = np.array(draw(st.lists(st.integers(-20, 20), min_size=n * n, max_size=n * n)), dtype=float)
    q = q.reshape(n, n)
    q = np.triu(q) + np.triu(q, 1).T
    x = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    lam = np.ceil(-np.linalg.eigvalsh(q)[0]) + 1.0
    return BqpInstance(q, q @ x + lam * x)


@settings(max_examples=150, deadline=None)
@given(_spectral_instances())
def test_certified_spectral_instances_are_oracle_minimizers(inst):
    best = brute_force_minimize(inst).best_value
    tol = 1e-9 * (1.0 + abs(best))
    report = solve_dual(inst)
    assert report.dual_value <= best + tol
    if report.status is SolveStatus.CERTIFIED:
        assert abs(objective_value(inst, report.x) - best) <= tol
