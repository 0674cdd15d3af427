import numpy as np
import pytest

import golden_data as gold
from conftest import fd_gradient, fd_hessian, rel_err
from bqpbench import (
    BqpInstance,
    DimensionMismatch,
    GenConfig,
    Infeasible,
    dual_gradient,
    dual_hessian,
    dual_value,
    generate_instance,
    is_dual_feasible,
    lagrangian_value,
    min_eigenvalue,
    objective_value,
    q_of_lambda,
)


@pytest.fixture
def example1():
    return BqpInstance(gold.Q1, gold.C1)


def interior_state(inst, rng):
    lam = np.abs(inst.q).sum(axis=1) + rng.uniform(1.0, 5.0, inst.n)
    state = is_dual_feasible(inst, lam)
    assert state.feasible
    return state


class TestInstance:
    def test_dimensions_must_agree(self):
        with pytest.raises(DimensionMismatch):
            BqpInstance(np.eye(3), [1.0, 2.0])

    def test_immutable_arrays(self, example1):
        with pytest.raises(ValueError):
            example1.q[0, 0] = 99.0


class TestObjective:
    def test_example1_planted_value(self, example1):
        assert objective_value(example1, gold.X1) == gold.F1

    def test_pure_linear_term(self):
        inst = BqpInstance(np.zeros((3, 3)), [1.0, 1.0, 1.0])
        assert objective_value(inst, [1.0, 1.0, 1.0]) == -3.0

    def test_scalar_quadratic(self):
        inst = BqpInstance([[2.0]], [0.0])
        assert objective_value(inst, [1.0]) == 1.0

    def test_rejects_non_sign_entries(self, example1):
        with pytest.raises(ValueError):
            objective_value(example1, [0.5, 1.0, -1.0, 1.0, 1.0])


class TestShiftedMatrix:
    def test_example1_diagonal(self):
        shifted = q_of_lambda(gold.Q1, gold.LAMBDA1_INT)
        np.testing.assert_array_equal(np.diag(shifted), [18.0, 62.0, 37.0, 20.0, 17.0])
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_array_equal(shifted[off], gold.Q1[off])

    def test_zero_shift_is_identity_map(self):
        np.testing.assert_array_equal(q_of_lambda(gold.Q1, np.zeros(5)), gold.Q1)

    def test_unit_shift_of_zero_matrix(self):
        np.testing.assert_array_equal(q_of_lambda(np.zeros((3, 3)), np.ones(3)), np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q_of_lambda(np.eye(2), [1.0, 2.0, 3.0])


class TestLagrangian:
    def test_equals_objective_on_sign_vectors(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            inst, _ = generate_instance(GenConfig(n=int(rng.integers(1, 10)), seed=seed))
            x = 2.0 * rng.integers(0, 2, inst.n) - 1.0
            lam = rng.normal(scale=50.0, size=inst.n)
            f = objective_value(inst, x)
            lagr = lagrangian_value(inst, x, lam)
            assert abs(lagr - f) <= 1e-12 * (1.0 + abs(f))

    def test_at_origin(self):
        inst = BqpInstance(gold.Q1, gold.C1)
        lam = np.array([4.0, -2.0, 1.0, 0.0, 3.0])
        assert lagrangian_value(inst, np.zeros(5), lam) == -0.5 * lam.sum()

    def test_example1_planted_point(self, example1):
        assert lagrangian_value(example1, gold.X1, gold.LAMBDA1_INT) == pytest.approx(gold.F1, abs=1e-12)


class TestDualValue:
    def test_example1(self, example1):
        state = is_dual_feasible(example1, gold.LAMBDA1_INT)
        assert dual_value(state, example1) == pytest.approx(-171.0, abs=1e-9)

    def test_zero_instance(self):
        inst = BqpInstance(np.zeros((4, 4)), np.zeros(4))
        state = is_dual_feasible(inst, np.ones(4))
        assert dual_value(state, inst) == -2.0

    def test_infeasible_raises(self, example1):
        state = is_dual_feasible(example1, np.zeros(5))
        with pytest.raises(Infeasible):
            dual_value(state, example1)


class TestDualGradient:
    def test_zero_at_planted_multipliers(self, example1):
        state = is_dual_feasible(example1, gold.LAMBDA1_INT)
        assert np.abs(dual_gradient(state)).max() <= 1e-10

    def test_at_zero_solution(self):
        inst = BqpInstance(np.zeros((3, 3)), np.zeros(3))
        state = is_dual_feasible(inst, np.ones(3))
        np.testing.assert_array_equal(dual_gradient(state), [-0.5, -0.5, -0.5])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for seed in (0, 1, 2):
            inst, _ = generate_instance(GenConfig(n=7, seed=seed))
            state = interior_state(inst, rng)
            assert min_eigenvalue(q_of_lambda(inst.q, state.lam)) > 1e-3
            exact = dual_gradient(state)
            approx = fd_gradient(inst, state.lam, step=1e-5)
            assert rel_err(approx, exact) <= 1e-5


class TestDualHessian:
    def test_identity_shift_of_zero_matrix(self):
        c = np.array([3.0, -2.0, 0.5])
        inst = BqpInstance(np.zeros((3, 3)), c)
        state = is_dual_feasible(inst, np.ones(3))
        np.testing.assert_allclose(dual_hessian(state), -np.diag(c * c), atol=1e-14)

    def test_zero_linear_term(self):
        inst = BqpInstance(np.zeros((3, 3)), np.zeros(3))
        state = is_dual_feasible(inst, np.ones(3))
        np.testing.assert_array_equal(dual_hessian(state), np.zeros((3, 3)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for seed in (3, 4):
            inst, _ = generate_instance(GenConfig(n=6, seed=seed))
            state = interior_state(inst, rng)
            exact = dual_hessian(state)
            approx = fd_hessian(inst, state.lam, step=1e-4)
            assert rel_err(approx, exact) <= 1e-4

    def test_negative_semidefinite_at_feasible_points(self):
        rng = np.random.default_rng(47)
        for seed in range(5):
            inst, _ = generate_instance(GenConfig(n=8, seed=seed))
            state = interior_state(inst, rng)
            neg = -dual_hessian(state)
            tol = 1e-8 * (1.0 + np.abs(neg).sum(axis=1).max())
            assert min_eigenvalue(neg) >= -tol


class TestFeasibility:
    def test_example1_planted_multipliers(self, example1):
        state = is_dual_feasible(example1, gold.LAMBDA1_INT)
        assert state.feasible
        assert state.factor is not None
        np.testing.assert_allclose(state.x_of_lambda, gold.X1, atol=1e-12)

    def test_zero_multipliers_infeasible(self, example1):
        state = is_dual_feasible(example1, np.zeros(5))
        assert not state.feasible
        assert state.factor is None and state.x_of_lambda is None

    def test_unit_shift_of_zero_matrix(self):
        inst = BqpInstance(np.zeros((2, 2)), [1.0, 0.0])
        assert is_dual_feasible(inst, np.ones(2)).feasible


class TestWeakDuality:
    def test_dual_never_exceeds_primal(self):
        rng = np.random.default_rng(53)
        for seed in range(15):
            n = int(rng.integers(2, 13))
            inst, _ = generate_instance(GenConfig(n=n, seed=seed))
            state = interior_state(inst, rng)
            g = dual_value(state, inst)
            for _ in range(20):
                x = 2.0 * rng.integers(0, 2, n) - 1.0
                f = objective_value(inst, x)
                assert g <= f + 1e-9 * (1.0 + abs(f))
