import numpy as np
import pytest

import golden_data as gold
from bqpbench import (
    BqpInstance,
    GenConfig,
    NotBoolean,
    SolveOptions,
    SolveStatus,
    generate_instance,
    initial_point,
    is_dual_feasible,
    round_to_signs,
    solve_dual,
    verify_certificate,
    Certificate,
    dual_gradient,
    dual_hessian,
)


class TestInitialPoint:
    def test_example1(self):
        state = initial_point(BqpInstance(gold.Q1, gold.C1))
        np.testing.assert_array_equal(state.lam, [23.0, 50.0, 40.0, 29.0, 23.0])
        assert state.feasible

    def test_zero_matrix(self):
        state = initial_point(BqpInstance(np.zeros((4, 4)), np.ones(4)))
        np.testing.assert_array_equal(state.lam, np.ones(4))
        np.testing.assert_array_equal(state.factor.lower, np.eye(4))

    def test_scalar(self):
        state = initial_point(BqpInstance([[-5.0]], [1.0]))
        np.testing.assert_array_equal(state.lam, [6.0])


class TestRoundToSigns:
    def test_near_unit(self):
        np.testing.assert_array_equal(round_to_signs([0.9999, -1.0001], 1e-3), [1.0, -1.0])

    def test_rejects_off_unit(self):
        with pytest.raises(NotBoolean) as exc:
            round_to_signs([0.5, 1.0], 1e-3)
        assert exc.value.indices == (0,)

    def test_exact_signs_identity(self):
        np.testing.assert_array_equal(round_to_signs([-1.0, 1.0, -1.0], 1e-4), [-1.0, 1.0, -1.0])

    def test_near_zero_never_rounded(self):
        with pytest.raises(NotBoolean):
            round_to_signs([1e-9, 1.0], 1e-4)

    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            round_to_signs([1.0], 0.7)


class TestRecoverPrimal:
    def test_scalar(self):
        assert is_dual_feasible(BqpInstance([[0.0]], [1.0]), [1.0]).x_of_lambda == pytest.approx(1.0)


class TestSolveExamples:
    def test_scalar_closed_form(self):
        # g(lam) = -1/(2 lam) - lam/2 peaks at lam = 1 with value -1.
        report = solve_dual(BqpInstance([[0.0]], [1.0]))
        assert report.status is SolveStatus.CERTIFIED
        assert report.lam[0] == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_array_equal(report.x, [1.0])
        assert report.primal_value == pytest.approx(-1.0, abs=1e-9)
        assert report.dual_value == pytest.approx(-1.0, abs=1e-6)

    def test_example1(self):
        report = solve_dual(BqpInstance(gold.Q1, gold.C1))
        assert report.status is SolveStatus.CERTIFIED
        assert np.abs(report.lam - gold.LAMBDA1_REPORTED).max() <= 1e-3
        np.testing.assert_array_equal(report.x, gold.X1)

    def test_example2(self):
        report = solve_dual(BqpInstance(gold.Q2, gold.C2))
        assert report.status is SolveStatus.CERTIFIED
        assert np.abs(report.lam - gold.LAMBDA2_REPORTED).max() <= 1e-2
        np.testing.assert_array_equal(report.x, gold.X2)

    def test_example3(self):
        report = solve_dual(BqpInstance(gold.Q3, gold.C3))
        assert report.status is SolveStatus.CERTIFIED
        assert np.abs(report.lam - gold.LAMBDA3_REPORTED).max() <= 1e-2
        np.testing.assert_array_equal(report.x, gold.X3)


class TestSolveBehavior:
    def test_monotone_ascent_and_weak_duality(self):
        for seed in (0, 1, 2, 3):
            inst, _ = generate_instance(GenConfig(n=20, seed=seed))
            report = solve_dual(inst)
            trace = np.array(report.dual_trace)
            assert (np.diff(trace) >= 0.0).all()
            assert report.dual_value <= report.primal_value + 1e-9 * (1.0 + abs(report.primal_value))

    def test_certified_reports_verify(self):
        for seed in (5, 6):
            inst, _ = generate_instance(GenConfig(n=15, seed=seed))
            report = solve_dual(inst)
            assert report.status is SolveStatus.CERTIFIED
            assert abs(report.gap) <= 1e-6 * (1.0 + abs(report.primal_value))
            assert np.abs(np.abs(report.x_raw) - 1.0).max() <= 1e-4
            cert = Certificate(x=report.x, lam=report.lam)
            assert verify_certificate(inst, cert).overall

    def test_generated_sizes_certify_within_budget(self):
        for n, seed in ((2, 0), (20, 1), (64, 2), (200, 3)):
            inst, cert = generate_instance(GenConfig(n=n, seed=seed))
            report = solve_dual(inst)
            assert report.status is SolveStatus.CERTIFIED
            assert report.iterations <= 100
            np.testing.assert_array_equal(report.x, cert.x)

    def test_scaling_leaves_solution_unchanged(self):
        inst, _ = generate_instance(GenConfig(n=12, seed=9))
        report = solve_dual(inst)
        scale = 3.5
        scaled = BqpInstance(scale * inst.q, scale * inst.c)
        scaled_report = solve_dual(scaled)
        assert scaled_report.status is SolveStatus.CERTIFIED
        np.testing.assert_array_equal(scaled_report.x, report.x)
        assert scaled_report.primal_value == pytest.approx(scale * report.primal_value, rel=1e-12)
        assert scaled_report.dual_value == pytest.approx(scale * report.dual_value, rel=1e-6)

    def test_every_iterate_feasible(self):
        # The trace only records accepted (hence feasible) points, and the
        # final multipliers must still be feasible.
        inst, _ = generate_instance(GenConfig(n=25, seed=13))
        report = solve_dual(inst)
        assert is_dual_feasible(inst, report.lam).feasible

    def test_max_iterations_status(self):
        # Zero data: the dual -0.5*sum(lam) has no stationary point in the
        # open feasible cone, so the budget runs out.
        inst = BqpInstance(np.zeros((2, 2)), np.zeros(2))
        report = solve_dual(inst, SolveOptions(max_iter=5))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.x is None and np.isnan(report.gap)

    def test_stationary_after_last_allowed_step_is_certified(self):
        # The second step reaches |g| ~ 3e-9 < grad_tol; the budget of two
        # steps is spent, but the point is stationary and must certify.
        inst, cert = generate_instance(GenConfig(n=50, seed=3))
        report = solve_dual(inst, SolveOptions(max_iter=2))
        assert report.status is SolveStatus.CERTIFIED
        assert report.iterations == 2
        np.testing.assert_array_equal(report.x, cert.x)

    def test_stationary_not_boolean_with_loose_tolerance(self):
        # With a huge gradient tolerance the start point already counts as
        # stationary, but its solution is nowhere near signs.
        inst = BqpInstance(np.zeros((2, 2)), np.zeros(2))
        report = solve_dual(inst, SolveOptions(grad_tol=0.6))
        assert report.status is SolveStatus.STATIONARY_NOT_BOOLEAN
        assert report.x is None

    def test_no_feasible_start_status(self, monkeypatch):
        import bqpbench.dual_solver as ds
        from bqpbench import DualState, NoFeasibleStart

        def never_feasible(inst, lam):
            return DualState(lam=np.asarray(lam, float), feasible=False,
                             factor=None, x_of_lambda=None)

        monkeypatch.setattr(ds, "is_dual_feasible", never_feasible)
        inst = BqpInstance(np.eye(2), [1.0, 1.0])
        with pytest.raises(NoFeasibleStart):
            ds.initial_point(inst)
        report = ds.solve_dual(inst)
        assert report.status is SolveStatus.NO_FEASIBLE_START
        assert report.iterations == 0 and report.x is None

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(backtrack_factor=1.0)
        with pytest.raises(ValueError):
            SolveOptions(sign_tol=0.5)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)


class TestNewtonDirection:
    def test_closed_form_solves_newton_system(self, monkeypatch):
        import bqpbench.dual_solver as ds

        inst, _ = generate_instance(GenConfig(n=60, seed=0))
        state = initial_point(inst)
        for _ in range(2):
            grad = dual_gradient(state)
            hess = dual_hessian(state)
            with monkeypatch.context() as m:
                m.setattr(ds, "dual_hessian", None)  # the closed form must not need it
                direction = ds._ascent_direction(inst, state, grad)
            np.testing.assert_allclose(direction, np.linalg.solve(-hess, grad), rtol=1e-10)
            # The ridge path solves (-H + ridge*I) d = grad, which moves d by
            # about ridge / lambda_min(-H) relative (5e-8 here).
            ridge = 1e-10 * (1.0 + np.abs(hess).sum(axis=1).max())
            shift = ridge / np.linalg.eigvalsh(-hess)[0]
            np.testing.assert_allclose(
                direction, ds._newton_direction(hess, grad), rtol=2.0 * shift
            )
            state = is_dual_feasible(inst, state.lam + direction)
            assert state.feasible

    def test_zero_solution_takes_ridge_fallback(self, monkeypatch):
        # With c = 0, x(lam) = 0: the closed form would divide by zero.
        import bqpbench.dual_solver as ds

        calls = []

        def counted(state):
            calls.append(state)
            return dual_hessian(state)

        monkeypatch.setattr(ds, "dual_hessian", counted)
        inst = BqpInstance([[2.0, 1.0], [1.0, 3.0]], np.zeros(2))
        state = initial_point(inst)
        grad = dual_gradient(state)
        direction = ds._ascent_direction(inst, state, grad)
        assert len(calls) == 1
        np.testing.assert_array_equal(direction, ds._newton_direction(dual_hessian(state), grad))
        assert np.isfinite(direction).all()
        report = ds.solve_dual(inst, SolveOptions(max_iter=3))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert len(calls) == 4
