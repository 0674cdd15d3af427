import numpy as np
import pytest

import golden_data as gold
from bqpbench import (
    GenConfig,
    NotPositiveDefinite,
    brute_force_minimize,
    dual_gradient,
    generate_instance,
    is_dual_feasible,
    multipliers_from_rowsums,
    objective_value,
    q_of_lambda,
    spd_factorize,
    verify_certificate,
)


class TestRowSumMultipliers:
    def test_example1(self):
        np.testing.assert_array_equal(multipliers_from_rowsums(gold.Q1), gold.LAMBDA1_INT)

    def test_zero_matrix_with_margin(self):
        np.testing.assert_array_equal(multipliers_from_rowsums(np.zeros((2, 2)), 1.0), [1.0, 1.0])

    def test_weak_dominance_boundary(self):
        # Zero diagonal: the shift lands exactly on the dominance boundary
        # and the shifted matrix is singular, hence the post-check on
        # generation.
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        lam = multipliers_from_rowsums(q)
        np.testing.assert_array_equal(lam, [1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(q_of_lambda(q, lam))

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            multipliers_from_rowsums(np.eye(2), -0.5)


class TestPlantedRhs:
    def test_example1(self):
        c = q_of_lambda(gold.Q1, gold.LAMBDA1_INT) @ gold.X1
        np.testing.assert_array_equal(c, gold.C1)


class TestGenerateInstance:
    def test_certificate_verifies(self):
        inst, cert = generate_instance(GenConfig(n=5, base=10.0, seed=42))
        assert verify_certificate(inst, cert).overall

    def test_deterministic_bitwise(self):
        cfg = GenConfig(n=9, base=10.0, seed=7, margin=0.0)
        inst_a, cert_a = generate_instance(cfg)
        inst_b, cert_b = generate_instance(cfg)
        assert inst_a == inst_b
        assert cert_a == cert_b

    def test_all_data_integral(self):
        for seed in range(5):
            inst, cert = generate_instance(GenConfig(n=12, seed=seed))
            for arr in (inst.q, inst.c, cert.x, cert.lam):
                np.testing.assert_array_equal(arr, np.round(arr))

    def test_one_dimensional(self):
        for seed in range(30):
            inst, cert = generate_instance(GenConfig(n=1, seed=seed))
            q = inst.q[0, 0]
            # Row-sum shift plus the retry/bump policy: the shifted scalar
            # is q + |q| or q + |q| + 1, always positive.
            assert cert.lam[0] in (abs(q), abs(q) + 1.0)
            assert q + cert.lam[0] > 0
            np.testing.assert_array_equal(inst.c, (q + cert.lam[0]) * cert.x)
            assert verify_certificate(inst, cert).overall

    def test_margin_rounds_to_integer(self):
        inst, cert = generate_instance(GenConfig(n=6, seed=11, margin=2.5))
        rowsums = np.abs(inst.q).sum(axis=1)
        np.testing.assert_array_equal(cert.lam - rowsums, np.full(6, 3.0))

    def test_planted_point_is_stationary(self):
        for seed in range(10):
            inst, cert = generate_instance(GenConfig(n=10, seed=seed))
            state = is_dual_feasible(inst, cert.lam)
            assert state.feasible
            assert np.abs(dual_gradient(state)).max() <= 1e-10

    def test_shifted_matrix_always_factorizes(self):
        for seed in range(20):
            inst, cert = generate_instance(GenConfig(n=7, seed=seed))
            spd_factorize(q_of_lambda(inst.q, cert.lam))

    def test_planted_solution_is_unique_minimum(self):
        for seed in range(8):
            inst, cert = generate_instance(GenConfig(n=9, seed=seed))
            result = brute_force_minimize(inst)
            np.testing.assert_array_equal(result.best_x, cert.x)
            assert result.best_value == objective_value(inst, cert.x)
            assert result.minimizer_count == 1

    def test_entry_scale(self):
        entries = []
        for seed in range(20):
            inst, _ = generate_instance(GenConfig(n=25, seed=seed))
            entries.append(np.abs(inst.q).ravel())
        entries = np.concatenate(entries)
        assert (entries <= 40.0).mean() >= 0.99

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n=0)
        with pytest.raises(ValueError):
            GenConfig(n=3, base=0.0)
        with pytest.raises(ValueError):
            GenConfig(n=3, margin=-1.0)


class TestRetryPolicy:
    def test_margin_bump_after_exhausted_redraws(self, monkeypatch):
        import bqpbench.generator as gen

        real = gen.spd_factorize
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            if calls["n"] <= 101:
                raise NotPositiveDefinite(0)
            return real(a)

        monkeypatch.setattr(gen, "spd_factorize", flaky)
        inst, cert = gen.generate_instance(GenConfig(n=4, seed=0))
        rowsums = np.abs(inst.q).sum(axis=1)
        np.testing.assert_array_equal(cert.lam, rowsums + 1.0)
        assert verify_certificate(inst, cert).overall

    def test_generation_failed_when_nothing_factorizes(self, monkeypatch):
        import bqpbench.generator as gen
        from bqpbench import GenerationFailed

        def hopeless(a):
            raise NotPositiveDefinite(0)

        monkeypatch.setattr(gen, "spd_factorize", hopeless)
        with pytest.raises(GenerationFailed):
            gen.generate_instance(GenConfig(n=3, seed=0))
