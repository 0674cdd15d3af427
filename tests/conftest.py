import math
from pathlib import Path

import numpy as np
import pytest

from bqpbench import BqpInstance, GenConfig, generate_instance, is_dual_feasible

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def spectral_instance(n, seed, margin=1.0):
    """Q and x from the generator, planted at lam = (ceil(-lambda_min(Q)) + margin) * e."""
    inst, cert = generate_instance(GenConfig(n=n, seed=seed))
    lam = np.full(n, math.ceil(-np.linalg.eigvalsh(inst.q)[0]) + margin)
    return BqpInstance(inst.q, (inst.q + np.diag(lam)) @ cert.x), cert.x


@pytest.fixture
def factorizations(monkeypatch):
    """Every factorization the model makes: is_dual_feasible's through
    spd_factorize (the generator's go through it too where its dominance
    proof leaves a draw undecided) and the solver trials' through the
    Cholesky kernel itself."""
    import bqpbench.model

    calls = []
    for name in ("spd_factorize", "_cholesky"):
        real = getattr(bqpbench.model, name)
        monkeypatch.setattr(bqpbench.model, name,
                            lambda a, real=real, **kw: calls.append(1) or real(a, **kw))
    return calls


@pytest.fixture
def first_try_off(monkeypatch):
    """Turn off solve_dual's primal try on sign(c), the one made before
    _ascend runs, so the ascent runs; the try where it stops still runs.
    A try is made only when _ascend has run since the last try."""
    import bqpbench.dual_solver as ds

    real_try, real_ascend = ds._primal_try, ds._ascend
    ascended = []

    def ascend(*args):
        ascended.append(True)
        return real_ascend(*args)

    def primal_try(inst, x):
        if not ascended:
            return None
        ascended.clear()
        return real_try(inst, x)

    monkeypatch.setattr(ds, "_ascend", ascend)
    monkeypatch.setattr(ds, "_primal_try", primal_try)


def report_bits(report) -> bytes:
    """Every field of a SolveReport as bytes, for bitwise comparison."""
    parts = [np.array([report.primal_value, report.dual_value, report.gap, *report.dual_trace]),
             np.array([report.iterations]), report.lam, report.x, report.x_raw]
    bits = b"".join(b"-" if a is None else np.ascontiguousarray(a).tobytes() for a in parts)
    return bits + report.status.value.encode()


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Sup-norm error normalized by 1 + sup-norm of the exact value."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.abs(approx - exact).max() / (1.0 + np.abs(exact).max()))


def fd_gradient(inst: BqpInstance, lam: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the dual value."""
    grad = np.empty_like(lam)
    for i in range(len(lam)):
        bump = np.zeros_like(lam)
        bump[i] = step
        up = is_dual_feasible(inst, lam + bump).value
        down = is_dual_feasible(inst, lam - bump).value
        grad[i] = (up - down) / (2.0 * step)
    return grad


def fd_hessian(inst: BqpInstance, lam: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of the dual gradient, symmetrized."""
    from bqpbench import dual_gradient

    n = len(lam)
    hess = np.empty((n, n))
    for i in range(n):
        bump = np.zeros_like(lam)
        bump[i] = step
        up = dual_gradient(is_dual_feasible(inst, lam + bump))
        down = dual_gradient(is_dual_feasible(inst, lam - bump))
        hess[:, i] = (up - down) / (2.0 * step)
    return 0.5 * (hess + hess.T)
