import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import golden_data as gold
from bqpbench import (
    DimensionMismatch,
    NotPositiveDefinite,
    min_eigenvalue,
    numerics,
    spd_factorize,
    spd_solve,
)

LAPACK_ROUTINES = ("dpotrf", "dpotrs")


def shifted_example1():
    return gold.Q1 + np.diag(gold.LAMBDA1_INT)


class TestFactorize:
    def test_identity(self):
        np.testing.assert_array_equal(spd_factorize(np.eye(2)), np.eye(2))

    def test_hand_checked_2x2(self):
        factor = spd_factorize([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(factor, expected, rtol=1e-15)

    def test_overwrite_factorizes_in_place(self):
        a = np.asfortranarray(shifted_example1())
        kept = a.copy()
        assert not np.shares_memory(spd_factorize(a), a)
        np.testing.assert_array_equal(a, kept)
        factor = spd_factorize(a, overwrite=True)
        assert np.shares_memory(factor, a)
        np.testing.assert_array_equal(factor, spd_factorize(kept))

    def test_negative_diagonal_fails_at_pivot_zero(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(gold.Q1)

    def test_failing_pivot_index_is_first(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(np.diag([1.0, -1.0, 5.0]))

    def test_pivot_below_tolerance_rejected_though_lapack_accepts(self):
        # dpotrf takes the tiny positive pivot; the tolerance 2e-12 does not.
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(np.diag([1.0, 1e-14, 1.0]))

    def test_indefinite_2x2_fails_at_second_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factorize([[1.0, 2.0], [2.0, 1.0]])

    def test_small_pivot_before_lapack_failure_is_reported(self):
        # LAPACK stops at pivot 2 (negative); pivot 1 already failed the tolerance.
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(np.diag([1.0, 1e-14, -1.0]))

    def test_matches_column_loop_reference(self):
        # The column-by-column Cholesky with the same pivot rule is the
        # reference: same accept/reject decision, and the same factor (to
        # roundoff) where it accepts.
        def reference(a):
            n = a.shape[0]
            tol = 1e-12 * (1.0 + np.abs(a.diagonal()).max())
            lower = np.zeros_like(a)
            for j in range(n):
                pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
                if not pivot > tol:
                    return j
                lower[j, j] = math.sqrt(pivot)
                lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
            return lower

        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(80):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0 + rng.uniform(0.0, 2.0 * math.sqrt(n)) * np.eye(n)
            expected = reference(a)
            if isinstance(expected, int):
                with pytest.raises(NotPositiveDefinite):
                    spd_factorize(a)
                outcomes.add("fail")
            else:
                np.testing.assert_allclose(spd_factorize(a), expected, rtol=1e-10, atol=1e-12)
                outcomes.add("ok")
        assert outcomes == {"ok", "fail"}

    def test_weakly_dominant_singular_rejected(self):
        # Diagonal equals the off-diagonal row sum: singular, not PD.
        with pytest.raises(NotPositiveDefinite):
            spd_factorize([[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_factorize([[1.0, 2.0], [0.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            spd_factorize(np.zeros((0, 0)))

    def test_reconstruction_error(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 8, 20):
            a = rng.standard_normal((n, n))
            a = a @ a.T + n * np.eye(n)
            factor = spd_factorize(a)
            err = np.abs(factor @ factor.T - a).max()
            assert err <= 1e-10 * (1.0 + np.abs(a).max())

    def test_agrees_with_spectral_positive_definiteness(self):
        # Success of the factorization must match min eig > 0 away from the boundary.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0 + rng.normal(scale=0.5) * np.eye(n)
            low = float(np.linalg.eigvalsh(a)[0])
            if abs(low) <= 1e-6:
                continue
            try:
                spd_factorize(a)
                assert low > 0
            except NotPositiveDefinite:
                assert low < 0
            checked += 1


class TestSolve:
    def test_identity(self):
        factor = spd_factorize(np.eye(2))
        np.testing.assert_array_equal(spd_solve(factor, [3.0, -7.0]), [3.0, -7.0])

    def test_hand_checked(self):
        factor = spd_factorize([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(spd_solve(factor, [6.0, 5.0]), [1.0, 1.0], atol=1e-14)

    def test_recovers_planted_solution(self):
        factor = spd_factorize(shifted_example1())
        np.testing.assert_allclose(spd_solve(factor, gold.C1), gold.X1, atol=1e-12)

    def test_dimension_mismatch(self):
        factor = spd_factorize(np.eye(3))
        with pytest.raises(DimensionMismatch):
            spd_solve(factor, [1.0, 2.0])

    def test_residual_on_conditioned_matrices(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 12, 30):
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = np.logspace(0, 6, n)
            a = (basis * eigs) @ basis.T
            a = (a + a.T) / 2.0
            b = rng.standard_normal(n)
            x = spd_solve(spd_factorize(a), b)
            resid = np.abs(a @ x - b).max()
            assert resid <= 1e-8 * (1.0 + np.abs(b).max())


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0, abs=1e-10)

    def test_one_by_one(self):
        assert min_eigenvalue([[-7.5]]) == -7.5

    def test_zero_matrix(self):
        assert min_eigenvalue(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-10)

    def test_singular_bordered_block(self):
        # Border the shifted matrix with c and t = c'x; the result is PSD
        # with smallest eigenvalue exactly zero.
        n = 5
        block = np.zeros((n + 1, n + 1))
        block[:n, :n] = shifted_example1()
        block[:n, n] = gold.C1
        block[n, :n] = gold.C1
        block[n, n] = gold.CTX1
        tol = 1e-8 * (1.0 + np.abs(block).sum(axis=1).max())
        assert abs(min_eigenvalue(block)) <= tol

    def test_matches_dense_solver_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            expected = float(np.linalg.eigvalsh(a)[0])
            tol = 1e-8 * (1.0 + np.abs(a).sum(axis=1).max())
            assert abs(min_eigenvalue(a) - expected) <= tol

    def test_clustered_spectrum(self):
        rng = np.random.default_rng(17)
        n = 30
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.concatenate([[1.0, 1.0 + 1e-9, 1.0 + 2e-9], np.linspace(2.0, 9.0, n - 3)])
        a = (basis * eigs) @ basis.T
        a = (a + a.T) / 2.0
        tol = 1e-8 * (1.0 + np.abs(a).sum(axis=1).max())
        assert abs(min_eigenvalue(a) - 1.0) <= tol

    def test_repeated_eigenvalues_exact(self):
        assert min_eigenvalue(np.diag([4.0, 4.0, 4.0, 9.0])) == pytest.approx(4.0, abs=1e-10)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's bqpbench."""
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


class TestLapackSource:
    def test_cli_import_leaves_scipy_linalg_out(self):
        out = run_fresh(
            "import sys, bqpbench.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
        )
        assert out.split() == ["scipy.linalg._flapack"]

    def test_later_scipy_linalg_import_reuses_the_module(self):
        out = run_fresh(
            "from bqpbench import numerics\n"
            "import scipy.linalg\n"
            "lapack = scipy.linalg.lapack\n"
            f"print(lapack._flapack is numerics._flapack and all(getattr(lapack, r) is "
            f"getattr(numerics._flapack, r) for r in {LAPACK_ROUTINES!r}))"
        )
        assert out == "True"

    def test_earlier_scipy_linalg_import_is_reused(self):
        out = run_fresh(
            "import scipy.linalg\n"
            "from bqpbench import numerics\n"
            "print(numerics._flapack is scipy.linalg.lapack._flapack)"
        )
        assert out == "True"

    def test_fallback_when_the_file_is_not_found(self, monkeypatch):
        a = np.array([[4.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        expected = spd_factorize(a)
        monkeypatch.setattr(numerics, "_flapack_file", lambda: None)
        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        fallback = numerics._load_flapack()
        for routine in LAPACK_ROUTINES:
            assert getattr(fallback, routine) is getattr(scipy.linalg.lapack, routine)
        monkeypatch.setattr(numerics, "_flapack", fallback)
        np.testing.assert_array_equal(spd_factorize(a), expected)
