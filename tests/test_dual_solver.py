import warnings

import numpy as np
import pytest

import golden_data as gold
from conftest import load_fixture_text, report_bits, spectral_instance
from bqpbench import (
    BqpInstance,
    DualState,
    GenConfig,
    SolveOptions,
    SolveStatus,
    generate_instance,
    initial_point,
    is_dual_feasible,
    solve_dual,
    verify_certificate,
    Certificate,
    dual_gradient,
    dual_hessian,
    objective_value,
    parse_instance,
)


def unplanted_instance(n, seed):
    """Q from the generator and an independent nonzero integer c."""
    q = generate_instance(GenConfig(n=n, seed=seed))[0].q
    c = np.round(10.0 * np.random.default_rng([seed, 3]).standard_normal(n))
    c[c == 0] = 1.0
    return BqpInstance(q, c)


class TestInitialPoint:
    def test_example1(self):
        state = initial_point(BqpInstance(gold.Q1, gold.C1))
        np.testing.assert_array_equal(state.lam, [23.0, 50.0, 40.0, 29.0, 23.0])
        assert state.feasible

    def test_zero_matrix(self):
        state = initial_point(BqpInstance(np.zeros((4, 4)), np.ones(4)))
        np.testing.assert_array_equal(state.lam, np.ones(4))
        # Q + diag(1) = I, so x(lam) = c.
        np.testing.assert_array_equal(state.x_of_lambda, np.ones(4))

    def test_scalar(self):
        state = initial_point(BqpInstance([[-5.0]], [1.0]))
        np.testing.assert_array_equal(state.lam, [6.0])

    def test_shift_doubles_until_feasible(self, monkeypatch):
        # 2**60 + 1 rounds to 2**60, so Q + diag(lam) = 0 until the shift
        # reaches 256, the float spacing at 2**60: nine feasibility tests.
        import bqpbench.dual_solver as ds

        tests = []
        monkeypatch.setattr(ds, "is_dual_feasible", lambda inst, lam: tests.append(lam) or is_dual_feasible(inst, lam))
        state = ds.initial_point(BqpInstance([[-2.0**60]], [1.0]))
        assert len(tests) == 9 and state.feasible
        np.testing.assert_array_equal(state.lam - 2.0**60, [256.0])

    def test_overflowing_row_sums(self):
        # Row sums of 2e308 overflow float64; no warning may escape.  The
        # start is the infeasible state at row sums + 1, and the report
        # holds its lam.
        inst = BqpInstance(np.full((2, 2), 1e308), [1.0, 1.0])
        state = initial_point(inst)
        assert not state.feasible
        np.testing.assert_array_equal(state.lam, [np.inf, np.inf])
        report = solve_dual(inst)
        assert report.status is SolveStatus.NO_FEASIBLE_START
        assert report.iterations == 0 and report.x is None
        np.testing.assert_array_equal(report.lam, state.lam)
        assert report.x_raw is None and np.isnan(report.dual_value)
        assert report.dual_trace == []


class TestXOfLambda:
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

    def test_step_that_leaves_lambda_unchanged_ends_the_run(self):
        # Every accepted step from lam = 2**60 + 256 rounds back to lam, so
        # no iteration counts and the start point is reported.
        inst = BqpInstance([[-2.0**60]], [1.0])
        start = initial_point(inst)
        report = solve_dual(inst)
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 0
        np.testing.assert_array_equal(report.lam, start.lam)
        assert report.dual_trace == [report.dual_value]

    def test_boundary_stall_stops_before_the_budget(self):
        # The c = 0 example stalls at the PD boundary; once lam stops moving
        # the run ends with the value a full budget of repeats would give.
        report = solve_dual(BqpInstance([[2.0, 1.0], [1.0, 3.0]], np.zeros(2)))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations < 100
        assert report.dual_value == pytest.approx(1.0857864376264048, abs=1e-12)
        assert len(report.dual_trace) == report.iterations + 1

    def test_try_after_the_last_allowed_step_certifies(self, first_try_off):
        # The budget of two steps is spent; the try where the ascent stops
        # still runs and certifies the planted x.
        inst, cert = generate_instance(GenConfig(n=50, seed=3))
        report = solve_dual(inst, SolveOptions(max_iter=2))
        assert report.status is SolveStatus.CERTIFIED
        assert report.iterations == 2
        np.testing.assert_array_equal(report.x, cert.x)

    def test_stationary_after_last_allowed_step_is_reported_stationary(self, monkeypatch, first_try_off):
        # The second step reaches |g| ~ 3e-9 < grad_tol.  With the try
        # refused, the gradient test after the last step decides the status:
        # StationaryNotBoolean, not MaxIterations.
        import bqpbench.dual_solver as ds
        from bqpbench.verify import check_certificate

        def refusing(inst, x, state):
            report = check_certificate(inst, x, state)
            report.overall = False
            return report

        monkeypatch.setattr(ds, "check_certificate", refusing)
        inst, _ = generate_instance(GenConfig(n=50, seed=3))
        report = ds.solve_dual(inst, SolveOptions(max_iter=2))
        assert report.status is SolveStatus.STATIONARY_NOT_BOOLEAN
        assert report.iterations == 2 and report.x is None

    def test_stationary_not_boolean_with_loose_tolerance(self):
        # With a huge gradient tolerance the start point already counts as
        # stationary, but its solution is nowhere near signs.
        inst = BqpInstance(np.zeros((2, 2)), np.zeros(2))
        report = solve_dual(inst, SolveOptions(grad_tol=0.6))
        assert report.status is SolveStatus.STATIONARY_NOT_BOOLEAN
        assert report.x is None

    def test_no_feasible_start_status(self, monkeypatch):
        import bqpbench.dual_solver as ds
        from bqpbench import DualState

        def never_feasible(inst, lam):
            return DualState(lam=np.asarray(lam, float), q=inst.q, x_of_lambda=None)

        monkeypatch.setattr(ds, "is_dual_feasible", never_feasible)
        inst = BqpInstance(np.eye(2), [1.0, 1.0])
        # Row sums 1; the last of 60 shifts tried is 2**59.
        state = ds.initial_point(inst)
        assert not state.feasible
        np.testing.assert_array_equal(state.lam, [1.0 + 2.0**59] * 2)
        report = ds.solve_dual(inst)
        assert report.status is SolveStatus.NO_FEASIBLE_START
        assert report.iterations == 0 and report.x is None
        np.testing.assert_array_equal(report.lam, state.lam)

    def test_overflowing_step_is_an_infeasible_trial(self):
        # Finite data near the float64 limit: the Newton direction at the
        # start overflows, and its trial lam that is not finite counts as
        # an infeasible trial.  The solve reports, and no warning escapes.
        inst = BqpInstance([[5e306, 5e306], [5e306, 7.5e306]], [5e306, 5e306])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_dual(inst)
        assert report.status in (SolveStatus.CERTIFIED, SolveStatus.MAX_ITERATIONS,
                                 SolveStatus.STATIONARY_NOT_BOOLEAN)
        assert np.isfinite(report.lam).all() and np.isfinite(report.dual_value)
        assert (np.diff(report.dual_trace) >= 0.0).all()
        assert report.dual_trace[-1] == report.dual_value

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)


class TestCertification:
    def test_certify_decision_comes_from_check_certificate(self, monkeypatch, first_try_off):
        # The try where the ascent stops is the only certify path: it asks
        # check_certificate once, at lam(x) rather than the ascent's state,
        # and its verdict, not a gap test of the solver's own, decides.
        import bqpbench.dual_solver as ds
        from bqpbench.verify import check_certificate

        seen = []

        def refusing(inst, x, state):
            seen.append((x, state))
            report = check_certificate(inst, x, state)
            report.overall = False
            return report

        monkeypatch.setattr(ds, "check_certificate", refusing)
        report = ds.solve_dual(BqpInstance(gold.Q1, gold.C1))
        assert report.status is SolveStatus.STATIONARY_NOT_BOOLEAN
        assert report.x is None
        assert np.isnan(report.primal_value) and np.isnan(report.gap)
        assert len(seen) == 1
        x, state = seen[0]
        np.testing.assert_array_equal(x, gold.X1)
        np.testing.assert_array_equal(state.lam, x * (gold.C1 - gold.Q1 @ x))
        assert state.feasible and not np.array_equal(state.lam, report.lam)

    def test_rounding_gives_exact_signs(self):
        # x(lam) is near, not at, the signs; the reported x is exactly them.
        inst, cert = generate_instance(GenConfig(n=40, seed=4))
        report = solve_dual(inst)
        assert report.status is SolveStatus.CERTIFIED
        assert not (np.abs(report.x_raw) == 1.0).all()
        np.testing.assert_array_equal(report.x, np.sign(report.x_raw))
        np.testing.assert_array_equal(report.x, cert.x)

    @pytest.mark.parametrize("make,count", [
        (lambda: BqpInstance(gold.Q1, gold.C1), 5),
        (lambda: BqpInstance(gold.Q2, gold.C2), 4),
        (lambda: BqpInstance(gold.Q3, gold.C3), 4),
        (lambda: generate_instance(GenConfig(n=12, seed=9))[0], 4),
        (lambda: generate_instance(GenConfig(n=50, seed=0))[0], 3),
        (lambda: generate_instance(GenConfig(n=200, seed=1))[0], 3),
    ])
    def test_factorizations_per_solve(self, factorizations, monkeypatch, first_try_off, make, count):
        # The ascent factorizes its start point and each trial point
        # (``count``), and the try where it stops one more, at lam(x): one
        # factorization per dual point, never two at the same lam.  The
        # trials go through the lean entry, the rest through is_dual_feasible.
        import bqpbench.dual_solver as ds

        inst = make()
        factorizations.clear()
        factorized, trials = [], []

        def recording(entry, is_trial):
            def recorded(inst, lam):
                before = len(factorizations)
                state = entry(inst, lam)
                if len(factorizations) > before:
                    factorized.append(np.asarray(lam, dtype=float).tobytes())
                    trials.append(is_trial)
                return state
            return recorded

        monkeypatch.setattr(ds, "is_dual_feasible", recording(is_dual_feasible, False))
        monkeypatch.setattr(ds, "_trial_state", recording(ds._trial_state, True))
        report = ds.solve_dual(inst)
        assert report.status is SolveStatus.CERTIFIED and report.iterations > 0
        assert len(factorizations) == len(factorized) == count + 1
        assert len(set(factorized)) == len(factorized)
        assert 0 < sum(trials) < len(trials)

    @pytest.mark.parametrize("make,count", [
        (lambda: BqpInstance(gold.Q1, gold.C1), 1),
        (lambda: BqpInstance(gold.Q2, gold.C2), 1),
        (lambda: BqpInstance(gold.Q3, gold.C3), 1),
        (lambda: generate_instance(GenConfig(n=12, seed=9))[0], 0),
        (lambda: generate_instance(GenConfig(n=50, seed=0))[0], 0),
        (lambda: generate_instance(GenConfig(n=200, seed=1))[0], 0),
    ])
    def test_first_primal_try_factorizations(self, factorizations, make, count):
        # One factorization at lam(x), or none on a generated instance,
        # whose memo holds the planted lam.
        inst = make()
        factorizations.clear()
        report = solve_dual(inst)
        assert report.status is SolveStatus.CERTIFIED and report.iterations == 0
        assert len(factorizations) == count


class TestPrimalTry:
    @pytest.mark.parametrize("n,seeds", [(50, range(8)), (200, range(2))])
    def test_spectral_instances_certify_the_planted_x(self, n, seeds):
        for seed in seeds:
            inst, x = spectral_instance(n, seed)
            report = solve_dual(inst)
            assert report.status is SolveStatus.CERTIFIED
            np.testing.assert_array_equal(report.x, x)
            assert report.dual_trace[-1] == report.dual_value

    def test_fixed_point_of_the_ascent_is_certified(self, first_try_off):
        # Margin 1000: the ascent reaches a fixed point with |g| ~ 2.1e-8, just
        # above grad_tol (14 steps when only an unmoved lam ended the ascent;
        # fewer since a step that leaves the dual value unchanged ends it);
        # the try where it stops certifies.
        inst, x = spectral_instance(50, 1132797281, margin=1000.0)
        report = solve_dual(inst)
        assert report.status is SolveStatus.CERTIFIED
        assert 0 < report.iterations <= 14
        assert len(report.dual_trace) == report.iterations + 2
        np.testing.assert_array_equal(report.x, x)
        assert report.dual_trace[-1] == report.dual_value
        assert verify_certificate(inst, Certificate(x=report.x, lam=report.lam)).overall

    def test_first_try_miss_is_certified_where_the_ascent_stops(self):
        # fixtures/ascent8.bqp: sign(c) is not the planted x, and the descent
        # from it does not reach x, so the ascent runs; the try on the signs
        # of its final x(lam) certifies x at exactly the planted lam, after 9
        # ascent steps.
        f = parse_instance(load_fixture_text("ascent8.bqp"))
        inst, cert = f.instance, f.certificate
        assert (np.sign(inst.c) != cert.x).any()
        report = solve_dual(inst)
        assert report.status is SolveStatus.CERTIFIED
        assert report.iterations == 9
        np.testing.assert_array_equal(report.x, cert.x)
        np.testing.assert_array_equal(report.lam, cert.lam)
        assert report.dual_trace[-1] == report.dual_value
        assert verify_certificate(inst, Certificate(x=report.x, lam=report.lam)).overall

    def test_failed_tries_change_nothing(self, monkeypatch):
        # Unplanted instances have no certificate; the report must be the
        # ascent's, bit for bit.
        import bqpbench.dual_solver as ds

        reports = []
        for tries in (ds._primal_try, lambda *args: None):
            monkeypatch.setattr(ds, "_primal_try", tries)
            reports.append(ds.solve_dual(unplanted_instance(24, 11)))
        assert reports[0].status is SolveStatus.MAX_ITERATIONS
        assert report_bits(reports[0]) == report_bits(reports[1])

    def test_descent_reaches_a_one_flip_local_minimum(self):
        import bqpbench.dual_solver as ds

        for seed in range(4):
            inst = unplanted_instance(12, seed)
            x = np.ones(12)
            ds._primal_try(inst, x)
            f = objective_value(inst, x)
            for i in range(12):
                flipped = x.copy()
                flipped[i] = -flipped[i]
                assert objective_value(inst, flipped) >= f

    def test_flat_step_ends_the_ascent(self, monkeypatch):
        # The gradient fallback once crawled here for all 100 iterations
        # with steps of about 3.6e-15 that left the dual value unchanged.
        # The warm-started line search ends it after 37 steps, on a Newton
        # step of t ~ 2.2e-19 that leaves the value unchanged.
        import bqpbench.dual_solver as ds

        steps = []
        real = ds._backtrack
        monkeypatch.setattr(ds, "_backtrack", lambda *args: steps.append(real(*args)) or steps[-1])
        report = solve_dual(unplanted_instance(24, 2746936418))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations < 100
        assert report.dual_value == pytest.approx(-1520.3946605885887, rel=1e-12, abs=0.0)
        assert len(report.dual_trace) == report.iterations + 1
        # One backtrack per accepted step, then the flat one that ends it.
        assert len(steps) == report.iterations + 1
        flat, _ = steps[-1]
        assert flat.value == report.dual_value


class TestLineSearch:
    @pytest.fixture
    def trials(self, monkeypatch):
        """Every lam that the line search tests (model._trial_state)."""
        import bqpbench.dual_solver as ds

        tested = []
        real = ds._trial_state
        monkeypatch.setattr(ds, "_trial_state", lambda inst, lam: tested.append(lam) or real(inst, lam))
        return tested

    @pytest.fixture
    def validated(self, monkeypatch):
        """Every lam that the solver tests with is_dual_feasible."""
        import bqpbench.dual_solver as ds

        tested = []
        monkeypatch.setattr(ds, "is_dual_feasible", lambda inst, lam: tested.append(lam) or is_dual_feasible(inst, lam))
        return tested

    def test_few_trials_per_accepted_step(self, trials, validated):
        # Restarting every backtrack at t = 1 made 993 tests for 27 steps
        # here, most of them infeasible; the warm start makes about 4.  The
        # bound counts every test, the trials' and is_dual_feasible's.
        report = solve_dual(unplanted_instance(24, 11))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations > 0
        assert len(trials) > 0
        assert len(trials) + len(validated) < 8 * report.iterations

    def test_first_trial_is_the_full_step(self, trials):
        import bqpbench.dual_solver as ds

        inst = unplanted_instance(24, 11)
        start = initial_point(inst)
        direction = ds._ascent_direction(inst, start, dual_gradient(start))
        solve_dual(inst)
        np.testing.assert_array_equal(trials[0], start.lam + direction)

    def test_each_backtrack_starts_at_twice_the_last_accepted_step(self, monkeypatch):
        import bqpbench.dual_solver as ds

        calls = []
        real = ds._backtrack

        def recorded(inst, state, grad, direction, t0):
            accepted = real(inst, state, grad, direction, t0)
            calls.append((t0, None if accepted is None else accepted[1]))
            return accepted

        monkeypatch.setattr(ds, "_backtrack", recorded)
        report = ds.solve_dual(unplanted_instance(24, 11))
        assert len(calls) == report.iterations + 1
        assert calls[0][0] == 1.0
        for (_, t), (t0, _) in zip(calls, calls[1:]):
            assert t0 == min(1.0, 2.0 * t)
        assert min(t0 for t0, _ in calls) < 1.0

    def test_failed_backtrack_ends_the_ascent(self, monkeypatch):
        # A backtrack in which no trial passes ends the ascent at the last
        # accepted step: one backtrack per step, the failed one included.
        import bqpbench.dual_solver as ds

        k, steps = 3, []
        real = ds._backtrack

        def fails_from_step_k(*args):
            steps.append(real(*args) if len(steps) < k else None)
            return steps[-1]

        monkeypatch.setattr(ds, "_backtrack", fails_from_step_k)
        report = ds.solve_dual(unplanted_instance(24, 11))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == k and len(steps) == k + 1
        assert steps[-1] is None
        np.testing.assert_array_equal(report.lam, steps[k - 1][0].lam)
        assert report.dual_trace[1:] == [state.value for state, _ in steps[:k]]

    def test_budget_counts_down_from_the_starting_step(self, monkeypatch):
        import bqpbench.dual_solver as ds

        inst = unplanted_instance(24, 11)
        state = initial_point(inst)
        grad = dual_gradient(state)
        tested = []

        def never_feasible(inst, lam):
            tested.append(lam)
            return DualState(lam=lam, q=inst.q, x_of_lambda=None)

        monkeypatch.setattr(ds, "_trial_state", never_feasible)
        assert ds._backtrack(inst, state, grad, grad, 0.375) is None
        assert len(tested) == 60
        for k, lam in enumerate(tested):
            np.testing.assert_array_equal(lam, state.lam + (0.375 * 0.5 ** k) * grad)


class TestNewtonDirection:
    def test_closed_form_solves_newton_system(self, monkeypatch):
        import bqpbench.dual_solver as ds
        import bqpbench.model

        assert not hasattr(ds, "dual_hessian")
        inst, _ = generate_instance(GenConfig(n=60, seed=0))
        state = initial_point(inst)
        for _ in range(2):
            grad = dual_gradient(state)
            hess = dual_hessian(state)
            with monkeypatch.context() as m:
                m.setattr(bqpbench.model, "dual_hessian", None)  # the closed form must not need it
                direction = ds._ascent_direction(inst, state, grad)
            np.testing.assert_allclose(direction, np.linalg.solve(-hess, grad), rtol=1e-10)
            state = is_dual_feasible(inst, state.lam + direction)
            assert state.feasible

    def test_zero_solution_steps_along_gradient(self, monkeypatch):
        # With c = 0, x(lam) = 0: the closed form would divide by zero, so
        # the direction is the gradient and no Hessian is formed.
        import bqpbench.dual_solver as ds
        import bqpbench.model

        hessians = []
        feasibility_tests = []

        def counted_hessian(state):
            hessians.append(state)
            return dual_hessian(state)

        real_trial = ds._trial_state

        def counted(entry):
            return lambda inst, lam: feasibility_tests.append(entry) or entry(inst, lam)

        monkeypatch.setattr(bqpbench.model, "dual_hessian", counted_hessian)
        inst = BqpInstance([[2.0, 1.0], [1.0, 3.0]], np.zeros(2))
        state = initial_point(inst)
        grad = dual_gradient(state)
        direction = ds._ascent_direction(inst, state, grad)
        np.testing.assert_array_equal(direction, grad)

        # Every test counts: the start, the trials and the primal tries.
        monkeypatch.setattr(ds, "is_dual_feasible", counted(is_dual_feasible))
        monkeypatch.setattr(ds, "_trial_state", counted(real_trial))
        report = ds.solve_dual(inst, SolveOptions(max_iter=5))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert real_trial in feasibility_tests
        assert len(feasibility_tests) <= 10
        assert report.dual_value <= 1.5  # brute-force minimum: x = (1, -1)
        assert hessians == []


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_options_reject_non_finite_grad_tol(value):
    with pytest.raises(ValueError, match="grad_tol"):
        SolveOptions(grad_tol=value)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.5, 100.0, 0, -3, "100"])
def test_options_reject_non_integer_max_iter(value):
    # A float budget would never equal the iteration count, so the solve
    # would run unbounded.
    with pytest.raises(ValueError, match="^max_iter must be an integer"):
        SolveOptions(max_iter=value)


def test_overflowing_objective_reports_without_warning():
    # The first primal try's lambda(x) = (1e308, 1e308) is positive
    # definite and stationary, but f(x) overflows float64: the gap fails
    # the check, so nothing is certified, and no warning escapes
    # (warnings are errors here).
    inst = BqpInstance(np.zeros((2, 2)), [1e308, 1e308])
    report = solve_dual(inst)
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.x is None
