"""The small-integer corpus: every instance that has a valid certificate
gets certified, counted.

3,600 unplanted instances with small integer data: for n in (6, 8, 10,
12) and r in (1, 2, 3), 300 draws of Q symmetric and c with entries in
-r..r from ``default_rng(0)``.  An instance is certifiable when the
multipliers ``lam(x*) = x* * (c - Q x*)`` at the oracle's minimizer x*
give a positive definite shift (``is_dual_feasible``).
"""

import numpy as np

from bqpbench import BqpInstance, SolveStatus, brute_force_minimize, is_dual_feasible, solve_dual

CERTIFIABLE = 256
# Raised, never lowered: a solver change that certifies more moves it up.
CERTIFIED_FLOOR = 249


def small_integer_corpus():
    rng = np.random.default_rng(0)
    for n in (6, 8, 10, 12):
        for r in (1, 2, 3):
            for _ in range(300):
                g = rng.integers(-r, r + 1, (n, n))
                q = np.triu(g) + np.triu(g, 1).T
                yield BqpInstance(q, rng.integers(-r, r + 1, n))


def test_every_certifiable_instance_counts():
    certifiable = certified = 0
    above, wrong = [], []
    for k, inst in enumerate(small_integer_corpus()):
        oracle = brute_force_minimize(inst)
        x = oracle.best_x
        # A fresh instance, so the solve below starts with an empty memo.
        certifiable += is_dual_feasible(BqpInstance(inst.q, inst.c), x * (inst.c - inst.q @ x)).feasible
        report = solve_dual(inst)
        # Weak duality; a dual value at a certified point may round a few
        # ulps above the exact minimum.
        if not report.dual_value <= oracle.best_value + 1e-9 * (1.0 + abs(oracle.best_value)):
            above.append(k)
        if report.status is SolveStatus.CERTIFIED:
            certified += 1
            if not np.array_equal(report.x, x):
                wrong.append(k)
    assert above == [] and wrong == []
    assert certifiable == CERTIFIABLE
    assert certified >= CERTIFIED_FLOOR
