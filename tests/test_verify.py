import math
import warnings

import numpy as np
import pytest

import golden_data as gold
from bqpbench import (
    BqpInstance,
    Certificate,
    GenConfig,
    SolveStatus,
    brute_force_minimize,
    generate_instance,
    is_dual_feasible,
    objective_value,
    parse_instance,
    schur_block_psd,
    solve_dual,
    spd_solve,
    spd_factorize,
    q_of_lambda,
    verify_certificate,
)
from bqpbench.verify import check_certificate, inertia_note


# Q = 0, c = (1e308, 1e308) with the certificate x = (1, 1), lam = c.
OVERFLOWING_OBJECTIVE = ("bqp 1\nn 2\nQ\n0 0\n0 0\nc\n1e308 1e308\n"
                         "x\n1 1\nlambda\n1e308 1e308\n")


@pytest.fixture
def example1():
    return BqpInstance(gold.Q1, gold.C1)


@pytest.fixture
def example1_cert():
    return Certificate(x=gold.X1, lam=gold.LAMBDA1_INT)


class TestVerifyCertificate:
    def test_example1_passes(self, example1, example1_cert):
        report = verify_certificate(example1, example1_cert)
        assert report.pd_ok and report.stationary_ok and report.boolean_ok and report.gap_ok
        assert report.overall
        assert abs(report.gap) <= 1e-9

    def test_flipped_sign_breaks_stationarity(self, example1):
        x = gold.X1.copy()
        x[0] = -x[0]
        report = verify_certificate(example1, Certificate(x=x, lam=gold.LAMBDA1_INT))
        assert not report.stationary_ok
        assert not report.overall

    def test_zero_multipliers_break_definiteness(self, example1):
        report = verify_certificate(example1, Certificate(x=gold.X1, lam=np.zeros(5)))
        assert not report.pd_ok
        assert math.isnan(report.gap) and not report.gap_ok
        assert not report.overall

    def test_overall_is_conjunction(self, example1, example1_cert):
        report = verify_certificate(example1, example1_cert)
        assert report.overall == (
            report.pd_ok and report.stationary_ok and report.boolean_ok and report.gap_ok
        )

    def test_inertia_note_reports_signature(self, example1):
        assert inertia_note(example1.q) == "Q inertia: 3 negative, 0 zero, 2 positive"

    def test_inertia_note_computed_only_when_read(self, example1, example1_cert, monkeypatch):
        import bqpbench.verify as verify_module

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(verify_module.np.linalg, "eigvalsh", refuse)
        assert verify_certificate(example1, example1_cert).overall
        monkeypatch.undo()
        assert inertia_note(example1.q) == "Q inertia: 3 negative, 0 zero, 2 positive"

    def test_tolerance_must_be_positive(self, example1, example1_cert):
        with pytest.raises(ValueError):
            verify_certificate(example1, example1_cert, tol=0.0)


class TestCheckCertificate:
    def test_agrees_with_verify_certificate(self, example1, example1_cert):
        flipped = example1_cert.x.copy()
        flipped[0] = -flipped[0]
        for cert in (example1_cert, Certificate(x=example1_cert.x, lam=example1_cert.lam + 5.0),
                     Certificate(x=flipped, lam=example1_cert.lam),
                     Certificate(x=example1_cert.x, lam=np.zeros(5))):
            state = is_dual_feasible(example1, cert.lam)
            # repr covers every field; it also compares NaN gaps.
            assert repr(check_certificate(example1, cert.x, state)) == repr(verify_certificate(example1, cert))

    def test_primal_is_the_objective_where_the_gap_is_defined(self, example1, example1_cert):
        flipped = example1_cert.x.copy()
        flipped[0] = -flipped[0]
        for x, lam in ((example1_cert.x, example1_cert.lam), (flipped, example1_cert.lam),
                       (example1_cert.x, example1_cert.lam + 5.0),
                       (example1_cert.x, np.zeros(5)), (example1_cert.x * 0.99999, example1_cert.lam)):
            report = check_certificate(example1, x, is_dual_feasible(example1, lam))
            if math.isnan(report.gap):
                assert math.isnan(report.primal)
            else:
                assert report.primal == objective_value(example1, x)
                assert report.gap == report.primal - is_dual_feasible(example1, lam).value

    def test_one_product_with_q(self, example1, example1_cert):
        class CountingQ(np.ndarray):
            products = 0

            def __matmul__(self, other):
                CountingQ.products += 1
                return np.asarray(self) @ other

        state = is_dual_feasible(example1, example1_cert.lam)
        expected = check_certificate(example1, example1_cert.x, state)
        inst = BqpInstance(gold.Q1, gold.C1)
        inst.q = inst.q.view(CountingQ)
        assert repr(check_certificate(inst, example1_cert.x, state)) == repr(expected)
        assert CountingQ.products == 1

    def test_makes_no_factorization(self, example1, example1_cert, monkeypatch):
        import bqpbench.model as model_module

        state = is_dual_feasible(example1, example1_cert.lam)
        monkeypatch.setattr(model_module, "spd_factorize", None)
        assert check_certificate(example1, example1_cert.x, state).overall

    def test_non_sign_entries_fail_boolean(self, example1, example1_cert):
        state = is_dual_feasible(example1, example1_cert.lam)
        report = check_certificate(example1, example1_cert.x * 0.99999, state)
        assert not report.boolean_ok and not report.overall
        assert math.isnan(report.gap)

    def test_overflowing_shift_and_residual(self):
        # Q + diag(lam) = 2e308 overflows: pd_ok and stationary_ok are
        # false, with no warning (warnings are errors here).
        inst = BqpInstance([[1e308]], [1.0])
        report = check_certificate(inst, np.ones(1), is_dual_feasible(inst, [1e308]))
        assert not report.pd_ok and not report.stationary_ok and report.boolean_ok
        assert not report.overall and math.isnan(report.gap)
        assert repr(verify_certificate(inst, Certificate(x=[1.0], lam=[1e308]))) == repr(report)
        is_psd, schur = schur_block_psd(inst, [1e308], 0.0)
        assert is_psd is False and math.isnan(schur)

    def test_near_limit_dual_value_is_minus_inf_without_warning(self):
        # A valid certificate whose sum(lam) overflows float64: the dual
        # value is -inf, still a lower bound, and the gap is inf.
        f = parse_instance("bqp 1\nn 2\nQ\n5e306 5e306\n5e306 7.5e306\nc\n5e306 5e306\n"
                           "x\n1 -1\nlambda\n1e308 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_certificate(f.instance, f.certificate)
            state = is_dual_feasible(f.instance, f.certificate.lam)
        assert report.pd_ok and report.boolean_ok and not report.overall
        assert report.gap == math.inf
        assert state.feasible and state.value == -math.inf

    def test_overflowing_objective_fails_the_gap_without_warning(self):
        # Positive definite, stationary and a sign vector, but f(x) =
        # -c'x overflows float64, and so does c'x(lam) in the Schur check:
        # the gap fails, with no warning (warnings are errors here).
        f = parse_instance(OVERFLOWING_OBJECTIVE)
        report = verify_certificate(f.instance, f.certificate)
        assert report.pd_ok and report.stationary_ok and report.boolean_ok
        assert report.primal == -math.inf and math.isnan(report.gap)
        assert not report.gap_ok and not report.overall
        is_psd, schur = schur_block_psd(f.instance, f.certificate.lam, 0.0)
        assert is_psd is False and schur == -math.inf


class TestDualityGap:
    def test_scalar_hand_computation(self):
        # f([1]) = -1 and g(2) = -1/4 - 1 = -1.25, so the gap is 0.25.
        inst = BqpInstance([[0.0]], [1.0])
        assert is_dual_feasible(inst, [2.0]).value == pytest.approx(-1.25, abs=1e-12)
        assert objective_value(inst, [1.0]) == -1.0


def explicit_block(inst, lam, t):
    n = inst.n
    block = np.empty((n + 1, n + 1))
    block[:n, :n] = q_of_lambda(inst.q, lam)
    block[:n, n] = block[n, :n] = inst.c
    block[n, n] = t
    return block


@pytest.fixture(scope="module", params=[300, 1000])
def solved_row_sum(request):
    inst, _ = generate_instance(GenConfig(n=request.param, seed=7))
    report = solve_dual(inst)
    return inst, report.lam, float(inst.c @ report.x_raw)


class TestSchurBlock:
    def test_decision_matches_explicit_block_spectrum(self, example1):
        # Reference: the smallest eigenvalue of the (n+1)x(n+1) block, on
        # instances small enough that its tolerance sees a unit deficit;
        # planted multipliers and interior ones, where x(lam) is not a sign vector.
        rng = np.random.default_rng(71)
        cases = [(example1, gold.LAMBDA1_INT)]
        for seed in range(4):
            inst, cert = generate_instance(GenConfig(n=3 + seed, seed=seed))
            cases += [(inst, cert.lam), (inst, cert.lam + rng.uniform(0.5, 5.0, inst.n))]
        decisions = set()
        for inst, lam in cases:
            threshold = float(inst.c @ np.linalg.solve(q_of_lambda(inst.q, lam), inst.c))
            for delta in (-10.0, -1.0, 1.0, 10.0):
                block = explicit_block(inst, lam, threshold + delta)
                tol = 1e-8 * (1.0 + np.abs(block).sum(axis=1).max())
                is_psd, schur = schur_block_psd(inst, lam, threshold + delta)
                assert is_psd == bool(np.linalg.eigvalsh(block)[0] >= -tol)
                assert schur == pytest.approx(delta, abs=1e-9 * (1.0 + abs(threshold)))
                decisions.add(is_psd)
        assert decisions == {True, False}

    def test_shift_not_positive_definite(self, example1):
        is_psd, schur = schur_block_psd(example1, np.zeros(5), 1e6)
        assert not is_psd and math.isnan(schur)

    def test_singular_psd_shift_reported_not_psd(self):
        # [[1, 1, 1], [1, 1, 1], [1, 1, t]] is PSD for t >= 1, but the
        # shift [[1, 1], [1, 1]] is singular, so no certificate exists.
        inst = BqpInstance([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        is_psd, schur = schur_block_psd(inst, [0.0, 0.0], 5.0)
        assert not is_psd and math.isnan(schur)

    def test_non_finite_t_rejected(self, example1):
        with pytest.raises(ValueError, match="finite"):
            schur_block_psd(example1, gold.LAMBDA1_INT, math.inf)

    @pytest.mark.parametrize("delta", [-10.0, -1.0])
    def test_schur_deficit_rejected_at_scale(self, solved_row_sum, delta):
        # With the solver's lam the Schur complement of t = c'x(lam) + delta
        # is delta itself; a spectral test of the bordered block misses
        # these deficits, whose eigenvalue is about delta / (n + 1).
        inst, lam, ctx = solved_row_sum
        is_psd, schur = schur_block_psd(inst, lam, ctx + delta)
        assert not is_psd
        assert schur == pytest.approx(delta, abs=1e-6)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_threshold_and_above_accepted_at_scale(self, solved_row_sum, delta):
        inst, lam, ctx = solved_row_sum
        is_psd, schur = schur_block_psd(inst, lam, ctx + delta)
        assert is_psd
        assert schur == pytest.approx(delta, abs=1e-6)

    def test_example1_threshold(self, example1):
        is_psd, low = schur_block_psd(example1, gold.LAMBDA1_INT, gold.CTX1)
        assert is_psd
        assert abs(low) <= 1e-6

    def test_example1_below_threshold(self, example1):
        is_psd, low = schur_block_psd(example1, gold.LAMBDA1_INT, gold.CTX1 - 1.0)
        assert not is_psd
        assert low < 0

    def test_example1_above_threshold(self, example1):
        is_psd, low = schur_block_psd(example1, gold.LAMBDA1_INT, gold.CTX1 + 1.0)
        assert is_psd
        assert low > 0

    def test_agrees_with_analytic_condition(self):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 11))
            inst, _ = generate_instance(GenConfig(n=n, seed=checked))
            lam = np.abs(inst.q).sum(axis=1) + rng.uniform(0.5, 5.0, n)
            threshold = float(inst.c @ spd_solve(spd_factorize(q_of_lambda(inst.q, lam)), inst.c))
            t = threshold + rng.normal(scale=1.0 + abs(threshold) / 10.0)
            if abs(t - threshold) <= 1e-6 * (1.0 + abs(t)):
                continue
            is_psd, _ = schur_block_psd(inst, lam, t)
            assert is_psd == (t > threshold)
            checked += 1


class TestZeroGapIdentityChain:
    def test_certified_solves_connect_dual_lagrangian_objective(self):
        for seed in (2, 3):
            inst, _ = generate_instance(GenConfig(n=10, seed=seed))
            report = solve_dual(inst)
            assert report.status is SolveStatus.CERTIFIED
            g = is_dual_feasible(inst, report.lam).value
            x, lam = report.x_raw, report.lam
            lagr = 0.5 * (x @ (inst.q @ x) + lam @ (x * x)) - inst.c @ x - 0.5 * lam.sum()
            f = objective_value(inst, report.x)
            scale = 1.0 + abs(f)
            assert abs(g - lagr) <= 1e-9 * scale
            assert abs(lagr - f) <= 1e-9 * scale

    def test_certificate_soundness_against_oracle(self):
        for seed in (11, 12, 13):
            inst, cert = generate_instance(GenConfig(n=8, seed=seed))
            assert verify_certificate(inst, cert, tol=1e-6).overall
            result = brute_force_minimize(inst)
            np.testing.assert_array_equal(result.best_x, cert.x)
            assert result.best_value == objective_value(inst, cert.x)


def test_owned_matrices_are_validated_once(monkeypatch):
    # One symmetry check per matrix that enters from outside or is built by
    # the caller; Q+diag(lam) rebuilt from an instance's own q is checked
    # only inside spd_factorize.
    import bqpbench.model as model_module
    import bqpbench.numerics as numerics_module

    calls = []
    real = numerics_module.require_symmetric
    for module in (numerics_module, model_module):
        monkeypatch.setattr(module, "require_symmetric", lambda a: calls.append(1) or real(a))

    inst, cert = generate_instance(GenConfig(n=30, seed=0))
    assert len(calls) == 1  # BqpInstance; the planted shift is proven PD
    calls.clear()
    assert verify_certificate(inst, cert).overall
    assert len(calls) == 0  # the factor the generator made at cert.lam
    is_psd, _ = schur_block_psd(inst, cert.lam, float(inst.c @ cert.x) + 1.0)
    assert is_psd
    assert len(calls) == 0
    is_psd, _ = schur_block_psd(inst, cert.lam + 1.0, float(inst.c @ cert.x) + 1.0)
    assert is_psd
    assert len(calls) == 1  # spd_factorize of the new shifted matrix


def test_infinite_tolerance_is_rejected(example1, example1_cert):
    """An infinite tolerance would pass any stationarity residual and gap."""
    tampered = Certificate(x=example1_cert.x, lam=example1_cert.lam + 5.0)
    assert not verify_certificate(example1, tampered).overall
    with pytest.raises(ValueError, match="finite"):
        verify_certificate(example1, tampered, tol=math.inf)
