import math

import numpy as np
import pytest

import golden_data as gold
from bqpbench import (
    BqpInstance,
    Certificate,
    GenConfig,
    SolveStatus,
    brute_force_minimize,
    dual_value,
    generate_instance,
    is_dual_feasible,
    lagrangian_value,
    objective_value,
    schur_block_psd,
    solve_dual,
    spd_solve,
    spd_factorize,
    q_of_lambda,
    verify_certificate,
)


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

    def test_inertia_note_reports_signature(self, example1, example1_cert):
        report = verify_certificate(example1, example1_cert)
        assert report.inertia_note == "Q inertia: 3 negative, 0 zero, 2 positive"

    def test_inertia_note_computed_only_when_read(self, example1, example1_cert, monkeypatch):
        import bqpbench.verify as verify_module

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(verify_module.np.linalg, "eigvalsh", refuse)
        report = verify_certificate(example1, example1_cert)
        assert report.overall
        monkeypatch.undo()
        assert report.inertia_note == "Q inertia: 3 negative, 0 zero, 2 positive"

    def test_tolerance_must_be_positive(self, example1, example1_cert):
        with pytest.raises(ValueError):
            verify_certificate(example1, example1_cert, tol=0.0)


class TestDualityGap:
    def test_scalar_hand_computation(self):
        # f([1]) = -1 and g(2) = -1/4 - 1 = -1.25, so the gap is 0.25.
        inst = BqpInstance([[0.0]], [1.0])
        assert dual_value(is_dual_feasible(inst, [2.0]), inst) == pytest.approx(-1.25, abs=1e-12)
        assert objective_value(inst, [1.0]) == -1.0


class TestSchurBlock:
    def test_block_layout(self, example1, monkeypatch):
        import bqpbench.verify as verify_module

        blocks = []
        real = verify_module.min_eigenvalue
        monkeypatch.setattr(verify_module, "min_eigenvalue", lambda a: blocks.append(a) or real(a))
        schur_block_psd(example1, gold.LAMBDA1_INT, 7.0)
        (block,) = blocks
        np.testing.assert_array_equal(block[:5, :5], q_of_lambda(gold.Q1, gold.LAMBDA1_INT))
        np.testing.assert_array_equal(block[:5, 5], gold.C1)
        np.testing.assert_array_equal(block[5, :5], gold.C1)
        assert block[5, 5] == 7.0

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
            g = dual_value(is_dual_feasible(inst, report.lam), inst)
            lagr = lagrangian_value(inst, report.x_raw, report.lam)
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
    # the caller; none for Q+diag(lam) rebuilt from an instance's own q.
    import bqpbench.generator as generator_module
    import bqpbench.model as model_module
    import bqpbench.numerics as numerics_module

    calls = []
    real = numerics_module.require_symmetric
    for module in (numerics_module, model_module, generator_module):
        monkeypatch.setattr(module, "require_symmetric", lambda a: calls.append(1) or real(a))

    inst, cert = generate_instance(GenConfig(n=30, seed=0))
    assert len(calls) == 4  # row sums, q_of_lambda, spd_factorize, BqpInstance
    calls.clear()
    assert verify_certificate(inst, cert).overall
    assert len(calls) == 1  # spd_factorize of the shifted matrix
    calls.clear()
    is_psd, _ = schur_block_psd(inst, cert.lam, float(inst.c @ cert.x) + 1.0)
    assert is_psd
    assert len(calls) == 1  # min_eigenvalue of the bordered block
