"""The line search's lean trial entry, model._trial_state."""

import warnings

import numpy as np
import pytest

from conftest import load_fixture_text, report_bits
from test_dual_solver import unplanted_instance
from bqpbench import BqpInstance, DualState, SolveStatus, is_dual_feasible, parse_instance


def validated_trial(inst, lam):
    """A solver trial through the validating entry, is_dual_feasible, with
    the line search's former test of a lam that is not finite in front."""
    if not np.isfinite(lam).all():
        return DualState(lam=lam, q=inst.q, x_of_lambda=None)
    return is_dual_feasible(inst, lam)


def fixture_instance(name):
    return lambda: parse_instance(load_fixture_text(name)).instance


def scaled_random(seed, n, scale):
    rng = np.random.default_rng([seed, 27])
    a, c = rng.standard_normal((n, n)), rng.standard_normal(n)
    return lambda: BqpInstance(scale * (a + a.T), scale * c)


# (id, instance factory, whether the ascent tests trial points).
CORPUS = [
    *[(name, fixture_instance(name), True)
      for name in ("example1.bqp", "example2.bqp", "example3.bqp", "ascent8.bqp", "spectral50.bqp",
                   "unplanted24.bqp")],
    *[(f"unplanted24-{seed}", lambda seed=seed: unplanted_instance(24, seed), True)
      for seed in (11, 2746936418, 3, 4)],
    *[(f"unplanted{n}", lambda n=n: unplanted_instance(n, n), True) for n in (2, 7, 40)],
    ("c-zero", lambda: BqpInstance([[2.0, 1.0], [1.0, 3.0]], np.zeros(2)), True),
    ("minus-2-60", lambda: BqpInstance([[-2.0**60]], [1.0]), True),
    # Finite data near the float64 limit: the step arithmetic overflows.
    ("limit-5e306", lambda: BqpInstance([[5e306, 5e306], [5e306, 7.5e306]], [5e306, 5e306]), True),
    # Rows of 1e308: the row sums overflow, or every shifted start does.
    ("rows-1e308", lambda: BqpInstance(np.full((2, 2), 1e308), [1.0, 1.0]), False),
    ("huge-1e308", lambda: BqpInstance([[-1e308, 1e308], [1e308, -1e308]], [1.0, 1.0]), False),
    *[(f"scaled-1e{e}", scaled_random(e, 6, 10.0 ** e), True) for e in (0, 150, 300)],
]


@pytest.mark.parametrize("first_try", [True, False], ids=["first-try", "first-try-off"])
@pytest.mark.parametrize("make,ascends", [(make, ascends) for _, make, ascends in CORPUS],
                         ids=[name for name, _, _ in CORPUS])
def test_lean_trials_match_validated_trials(request, monkeypatch, make, ascends, first_try):
    # The same solve twice, each on a fresh instance: trials through the
    # lean entry, then through is_dual_feasible behind the line search's
    # old test of a lam that is not finite.  The reports are bitwise equal,
    # and no warning escapes either.  The trace holds the ascent's start
    # and one value per step, then a certifying try's value.
    import bqpbench.dual_solver as ds

    if not first_try:
        request.getfixturevalue("first_try_off")
    lean, ascents = [], []
    real, real_ascend = ds._trial_state, ds._ascend
    monkeypatch.setattr(ds, "_ascend", lambda *args: ascents.append(1) or real_ascend(*args))
    bits = []
    for entry in (lambda inst, lam: lean.append(1) or real(inst, lam), validated_trial):
        monkeypatch.setattr(ds, "_trial_state", entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ds.solve_dual(make())
        bits.append(report_bits(report))
    assert bits[0] == bits[1]
    if ascends and not first_try:
        assert len(lean) > 0
    certified = report.status is SolveStatus.CERTIFIED
    if ascents:
        assert report.iterations == len(report.dual_trace) - (2 if certified else 1)
    else:
        assert report.iterations == 0 and len(report.dual_trace) == int(certified)


def test_trials_validate_nothing_again(monkeypatch):
    # require_symmetric runs once per is_dual_feasible call that factorizes
    # (the start point and the two primal tries), and never for a trial.
    import bqpbench.dual_solver as ds
    import bqpbench.numerics as numerics

    inst = parse_instance(load_fixture_text("unplanted24.bqp")).instance
    checks, public, trials = [], [], []
    real_check, real_public, real_trial = numerics.require_symmetric, ds.is_dual_feasible, ds._trial_state
    monkeypatch.setattr(numerics, "require_symmetric", lambda a: checks.append(1) or real_check(a))
    monkeypatch.setattr(ds, "is_dual_feasible", lambda inst, lam: public.append(1) or real_public(inst, lam))
    monkeypatch.setattr(ds, "_trial_state", lambda inst, lam: trials.append(1) or real_trial(inst, lam))
    report = ds.solve_dual(inst)
    assert report.status.value == "MaxIterations" and report.iterations > 0
    assert len(public) == 3
    assert len(checks) == len(public)
    assert len(trials) > 10 * len(public)


def test_trial_keeps_the_callers_array_and_memoizes():
    # A fresh lam becomes the feasible state's own, read-only, without a
    # copy; the same lam again is a memo hit.
    import bqpbench.model as model

    inst = BqpInstance([[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0])
    lam = np.array([1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        state = model._trial_state(inst, lam)
        assert state.feasible and state.lam is lam and not lam.flags.writeable
        assert model._trial_state(inst, lam.copy()) is state
    assert model.is_dual_feasible(inst, [1.0, 2.0]) is state


@pytest.mark.parametrize("lam", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 1.0], [1e308, 1.0]])
def test_non_finite_shift_is_an_infeasible_trial(lam):
    # A lam that is not finite, or a shifted diagonal that overflows
    # (1e308 + 1e308), fails the kernel's pivot rule, though Q is positive
    # definite and any finite stand-in for the bad entry would pass it; no
    # warning escapes the caller's errstate, and the memo is left alone.
    import bqpbench.model as model

    inst = BqpInstance(np.diag([1e308, 1e308]), [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            state = model._trial_state(inst, np.array(lam))
    assert not state.feasible and np.isnan(state.value)
    assert inst._dual_memo is None
