"""The one-slot memo of the last feasible dual state on each instance."""

import numpy as np
import pytest

from conftest import report_bits, spectral_instance
from bqpbench import (
    BqpInstance,
    Certificate,
    GenConfig,
    SolveStatus,
    generate_instance,
    is_dual_feasible,
    schur_block_psd,
    solve_dual,
    verify_certificate,
)


def stalled_unplanted():
    q = generate_instance(GenConfig(n=10, seed=3))[0].q
    c = np.round(10.0 * np.random.default_rng([3, 3]).standard_normal(10))
    return BqpInstance(q, c)


def stalled_spectral():
    # Planted at lam = (ceil(-lambda_min(Q)) + 1) * e, next to the PD
    # boundary; the ascent stalls there and meets memo hits on the way,
    # and the primal try where it stops certifies the planted x.
    return spectral_instance(8, 4)[0]


def test_pipeline_factorizes_each_dual_point_once(factorizations):
    # generate (1); solve_dual's first primal try reaches the planted lam,
    # whose dual state the generator left in the memo, and verify_certificate
    # and schur_block_psd at that lam reuse it too.
    inst, cert = generate_instance(GenConfig(n=200, seed=1))
    report = solve_dual(inst)
    assert report.status is SolveStatus.CERTIFIED
    assert verify_certificate(inst, Certificate(x=report.x, lam=report.lam)).overall
    is_psd, _ = schur_block_psd(inst, report.lam, float(inst.c @ report.x_raw) + 1.0)
    assert is_psd
    assert report.iterations == 0
    np.testing.assert_array_equal(report.lam, cert.lam)
    assert len(factorizations) == 1


@pytest.mark.parametrize("make", [
    stalled_unplanted,
    stalled_spectral,
    lambda: BqpInstance([[2, 1], [1, 3]], [0, 0]),
])
def test_repeated_solves_are_bitwise_identical(monkeypatch, first_try_off, make):
    # A memo hit can hand back the very state the ascent holds; the solver
    # must take the same path as without the memo, where every feasibility
    # test factorizes on a fresh instance.  The first primal try is off, so
    # the ascent runs.
    import bqpbench.dual_solver as ds

    expected = SolveStatus.CERTIFIED if make is stalled_spectral else SolveStatus.MAX_ITERATIONS
    tests = []
    real_trial = ds._trial_state
    monkeypatch.setattr(ds, "_trial_state", lambda inst, lam: tests.append(1) or real_trial(inst, lam))
    inst = make()
    counts, reports = [], []
    for target in (inst, inst, make(), None):
        if target is None:  # the same solve with no memo to hit
            target = make()
            monkeypatch.setattr(
                ds, "_trial_state",
                lambda inst, lam: tests.append(1) or real_trial(BqpInstance(inst.q, inst.c), lam))
            monkeypatch.setattr(
                ds, "is_dual_feasible", lambda inst, lam: is_dual_feasible(BqpInstance(inst.q, inst.c), lam))
        tests.clear()
        report = ds.solve_dual(target)
        assert report.status is expected and report.iterations > 0
        reports.append(report_bits(report))
        counts.append(len(tests))
    assert reports[0] == reports[1] == reports[2] == reports[3]
    assert counts[0] == counts[1] == counts[2] == counts[3] > 0


def test_verifying_a_generated_certificate_factorizes_nothing(factorizations):
    # The generator decides PD through is_dual_feasible, so the instance
    # comes back holding the planted dual state.
    inst, cert = generate_instance(GenConfig(n=50, seed=5))
    assert len(factorizations) == 1
    assert verify_certificate(inst, cert).overall
    assert len(factorizations) == 1


def test_reported_arrays_are_read_only():
    inst, _ = generate_instance(GenConfig(n=30, seed=2))
    report = solve_dual(inst)
    state = is_dual_feasible(inst, report.lam)
    for owned in (report.lam, report.x_raw, state.x_of_lambda):
        with pytest.raises(ValueError, match="read-only"):
            owned[0] = 0.0


def traced_generate_and_solve(n):
    """Bytes still traced after generate_instance, and the traced peak of
    solve_dual on its instance, both above the memory traced before."""
    import tracemalloc

    solve_dual(generate_instance(GenConfig(n=4, seed=0))[0])  # lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst, _ = generate_instance(GenConfig(n=n, seed=0))
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        report = solve_dual(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.CERTIFIED
    return held, peak


def test_generated_instance_holds_one_n_by_n_array():
    # Q itself; the planted dual state in the memo is two vectors.
    held, _ = traced_generate_and_solve(400)
    assert held < 1.5 * 400 * 400 * 8


def test_solve_holds_one_trial_matrix_beside_q():
    # Q and the trial point's shifted copy, factorized in place; the
    # states the ascent keeps hold no factor.
    _, peak = traced_generate_and_solve(400)
    assert peak < 2.5 * 400 * 400 * 8


def test_hessian_of_a_memoized_state_factorizes_afresh():
    from bqpbench import dual_hessian, q_of_lambda, spd_factorize, spd_solve

    inst, cert = generate_instance(GenConfig(n=40, seed=6))
    state = is_dual_feasible(inst, cert.lam)
    assert is_dual_feasible(inst, cert.lam) is state  # the generator's memo
    m = spd_solve(spd_factorize(q_of_lambda(inst.q, cert.lam)), np.eye(inst.n))
    x = state.x_of_lambda
    np.testing.assert_allclose(dual_hessian(state), -(x[:, None] * m * x[None, :]),
                               rtol=1e-12, atol=1e-15 * np.abs(m).max())


def test_writing_into_a_passed_lambda_refactorizes(factorizations):
    inst, cert = generate_instance(GenConfig(n=30, seed=2))
    lam = np.array(cert.lam)
    first = is_dual_feasible(inst, lam)
    factorizations.clear()
    lam += 1.0
    second = is_dual_feasible(inst, lam)
    assert len(factorizations) == 1
    assert second is not first
    np.testing.assert_array_equal(first.lam, cert.lam)
    np.testing.assert_array_equal(second.lam, lam)
    fresh = is_dual_feasible(BqpInstance(inst.q, inst.c), lam)
    np.testing.assert_array_equal(second.x_of_lambda, fresh.x_of_lambda)


def test_hit_then_other_lambda_refactorizes(factorizations):
    inst, cert = generate_instance(GenConfig(n=30, seed=2))
    factorizations.clear()
    first = is_dual_feasible(inst, cert.lam)  # the state the generator planted
    assert is_dual_feasible(inst, cert.lam.copy()) is first
    assert len(factorizations) == 0
    other = is_dual_feasible(inst, cert.lam + 0.5)
    assert len(factorizations) == 1 and other is not first
    # An infeasible point leaves the memo alone; the previous one is gone.
    assert not is_dual_feasible(inst, np.full(inst.n, -1e6)).feasible
    assert is_dual_feasible(inst, cert.lam + 0.5) is other
    assert len(factorizations) == 2
    again = is_dual_feasible(inst, cert.lam)
    assert len(factorizations) == 3 and again is not first
    np.testing.assert_array_equal(again.x_of_lambda, first.x_of_lambda)


def test_signed_zero_is_a_different_lambda(factorizations):
    # The memo compares bits, so -0.0 does not hit a state stored at +0.0.
    inst = BqpInstance(np.eye(2), [1.0, 1.0])
    first = is_dual_feasible(inst, [0.0, 0.0])
    second = is_dual_feasible(inst, [-0.0, 0.0])
    assert second is not first and len(factorizations) == 2
    assert np.signbit(second.lam[0])
