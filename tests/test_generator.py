import dataclasses
import math
import re

import numpy as np
import pytest

import golden_data as gold
from bqpbench import (
    GenConfig,
    GenerationFailed,
    NotPositiveDefinite,
    brute_force_minimize,
    dual_gradient,
    generate_instance,
    is_dual_feasible,
    objective_value,
    q_of_lambda,
    spd_factorize,
    verify_certificate,
)


class TestRowSumMultipliers:
    def test_example1(self):
        # The bundled example's multipliers are its absolute row sums.
        np.testing.assert_array_equal(np.abs(gold.Q1).sum(axis=1), gold.LAMBDA1_INT)

    def test_zero_matrix_with_margin(self):
        # So small a base rounds every entry of Q to zero: lam is the margin.
        inst, cert = generate_instance(GenConfig(n=2, base=1e-3, margin=1.0))
        np.testing.assert_array_equal(inst.q, np.zeros((2, 2)))
        np.testing.assert_array_equal(cert.lam, [1.0, 1.0])

    def test_weak_dominance_boundary(self):
        # Zero diagonal: the shift lands exactly on the dominance boundary
        # and the shifted matrix is singular, hence the post-check on
        # generation.
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        lam = np.abs(q).sum(axis=1)
        np.testing.assert_array_equal(lam, [1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(q_of_lambda(q, lam))

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            GenConfig(n=2, margin=-0.5)


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
    # Every draw is left undecided by the dominance proof, so each one
    # reaches the patched factorization.
    def test_margin_bump_after_exhausted_redraws(self, monkeypatch):
        import bqpbench.generator as gen
        import bqpbench.model as model

        monkeypatch.setattr(gen, "_proven_state", lambda *args: None)
        real = model.spd_factorize
        calls = {"n": 0}

        def flaky(a, **kw):
            calls["n"] += 1
            if calls["n"] <= 101:
                raise NotPositiveDefinite(0)
            return real(a, **kw)

        monkeypatch.setattr(model, "spd_factorize", flaky)
        inst, cert = gen.generate_instance(GenConfig(n=4, seed=0))
        rowsums = np.abs(inst.q).sum(axis=1)
        np.testing.assert_array_equal(cert.lam, rowsums + 1.0)
        assert verify_certificate(inst, cert).overall
        # The bump repeats the last redraw: the 101st child of the seed.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0).spawn(101)[100]))
        g = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(inst.q, gen.round_half_away(10.0 * (g + g.T) / 2.0))
        np.testing.assert_array_equal(cert.x, 2.0 * rng.integers(0, 2, size=4) - 1.0)

    def test_generation_failed_when_nothing_factorizes(self, monkeypatch):
        import bqpbench.generator as gen
        import bqpbench.model as model
        from bqpbench import GenerationFailed

        def hopeless(a, **kw):
            raise NotPositiveDefinite(0)

        monkeypatch.setattr(gen, "_proven_state", lambda *args: None)
        monkeypatch.setattr(model, "spd_factorize", hopeless)
        with pytest.raises(GenerationFailed):
            gen.generate_instance(GenConfig(n=3, seed=0))


@pytest.mark.parametrize("field,value", [
    ("base", float("inf")), ("base", float("nan")), ("margin", float("inf")), ("margin", float("nan")),
])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        GenConfig(n=3, **{field: value})


@pytest.mark.parametrize("n,base,name", [(2, 1e308, "Q"), (50, 1e307, "lambda"), (50, 5e306, "c")])
def test_overflowing_base_fails_cleanly(n, base, name):
    # No overflow warning escapes (warnings are errors here); the failure names n and base.
    message = f"{name} overflows float64 at n={n}, base={base!r}"
    with pytest.raises(GenerationFailed, match=f"^{re.escape(message)}$"):
        generate_instance(GenConfig(n=n, base=base))


def test_overflowing_dual_value_fails_at_once(monkeypatch):
    # Q, lam and c are finite at n = 100, base = 1e305, but sum(lam) and
    # so the planted dual value overflow: no redraw can help.
    import bqpbench.generator as gen

    calls = []
    real = gen.is_dual_feasible
    monkeypatch.setattr(gen, "is_dual_feasible", lambda *a: calls.append(1) or real(*a))
    message = "the dual value overflows float64 at n=100, base=1e+305"
    with pytest.raises(GenerationFailed, match=f"^{re.escape(message)}$"):
        generate_instance(GenConfig(n=100, base=1e305))
    assert len(calls) == 1


def test_largest_scale_still_certifies():
    inst, cert = generate_instance(GenConfig(n=100, base=3e304))
    report = verify_certificate(inst, cert)
    assert report.overall and math.isfinite(report.primal)


def test_failed_certificate_check_is_a_redraw(monkeypatch):
    # A draw whose planted certificate fails check_certificate is drawn
    # again from the next stream.
    import bqpbench.generator as gen

    real = gen.check_certificate
    results = []

    def fail_first(*args):
        report = real(*args)
        results.append(report.overall)
        return dataclasses.replace(report, overall=False) if len(results) == 1 else report

    monkeypatch.setattr(gen, "check_certificate", fail_first)
    inst, cert = gen.generate_instance(GenConfig(n=4, seed=0))
    assert results == [True, True]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0).spawn(2)[1]))
    g = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(inst.q, gen.round_half_away(10.0 * (g + g.T) / 2.0))
    np.testing.assert_array_equal(cert.x, 2.0 * rng.integers(0, 2, size=4) - 1.0)


def test_planted_residual_is_exact_beyond_integer_precision():
    # lam reaches ~2e16 > 2**53 here, so (Q + diag(lam)) x is not exact in
    # float64; c is formed as Qx + lam*x, the product the residual check uses.
    inst, cert = generate_instance(GenConfig(n=300, base=1e14))
    assert cert.lam.max() > 2.0 ** 53
    residual = inst.q @ cert.x + cert.lam * cert.x - inst.c
    assert not residual.any()


@pytest.mark.parametrize("field,value", [
    ("n", 2.5), ("n", 3.0), ("n", float("inf")), ("n", float("nan")), ("n", "3"),
    ("seed", 1.5), ("seed", -1), ("seed", float("nan")),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        GenConfig(**{"n": 3, field: value})


def test_config_accepts_numpy_integers():
    inst, _ = generate_instance(GenConfig(n=np.int64(3), seed=np.uint32(4)))
    assert inst == generate_instance(GenConfig(n=3, seed=4))[0]


def test_unallocatable_dimension_fails_cleanly():
    # 71.1 PiB exceeds the address space, so numpy refuses the draw without
    # touching memory; never try a size the machine could start to allocate.
    with pytest.raises(GenerationFailed, match=r"n=100000000\b"):
        generate_instance(GenConfig(n=10**8))


@pytest.fixture
def decisions(monkeypatch):
    """How each attempt's shift is decided: "proven" by the dominance
    proof, else "pd" or "not pd" by the factorization it falls back to."""
    import bqpbench.generator as gen

    verdicts = []
    real_proof, real_fallback = gen._proven_state, gen.is_dual_feasible

    def proof(*args):
        state = real_proof(*args)
        if state is not None:
            verdicts.append("proven")
        return state

    def fallback(inst, lam):
        state = real_fallback(inst, lam)
        verdicts.append("pd" if state.feasible else "not pd")
        return state

    monkeypatch.setattr(gen, "_proven_state", proof)
    monkeypatch.setattr(gen, "is_dual_feasible", fallback)
    return verdicts


def generated_by_factorization(cfg):
    """The instance and certificate when every attempt is decided by
    is_dual_feasible: the result the dominance proof must not change."""
    import bqpbench.generator as gen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen, "_proven_state", lambda *args: None)
        return gen.generate_instance(cfg)


@pytest.mark.parametrize("cfg,verdicts", [
    # n = 1 with q <= 0: no strict row, and the shift q + |q| is 0.
    (GenConfig(n=1, seed=1, base=1.0), ["not pd", "proven"]),
    # No positive diagonal entry, so no strict row; yet positive definite.
    (GenConfig(n=5, seed=16, base=1.0), ["pd"]),
    # A reducible shift: row 1 is the only strict row, and no nonzero
    # entry joins it to the weak rows 0, 2, 3 and 4.
    (GenConfig(n=5, seed=99, base=1.0), ["pd"]),
    # A weak row with no path to the strict one, and singular.
    (GenConfig(n=2, seed=0, base=1.0), ["not pd", "proven"]),
    # Multipliers of 2**52 or more, where the sums may round.
    (GenConfig(n=40, base=1e15), ["pd"]),
])
def test_undecided_draws_fall_back_to_the_factorization(decisions, cfg, verdicts):
    expected = generated_by_factorization(cfg)
    decisions.clear()
    inst, cert = generate_instance(cfg)
    assert decisions == verdicts
    assert (inst, cert) == expected
    assert verify_certificate(inst, cert).overall


def test_proven_state_is_the_planted_point_exactly(decisions):
    # (Q + diag(lam)) x = c holds exactly, so x(lam) is x and the dual
    # value is f(x), both with no solve.
    inst, cert = generate_instance(GenConfig(n=50, seed=5))
    assert decisions == ["proven"]
    state = is_dual_feasible(inst, cert.lam)  # the memo
    assert state.x_of_lambda.tobytes() == cert.x.tobytes()
    value = -0.5 * (inst.c @ cert.x) - 0.5 * np.add.reduce(cert.lam)
    assert np.float64(state.value).tobytes() == np.float64(value).tobytes()
    assert state.value == objective_value(inst, cert.x)
