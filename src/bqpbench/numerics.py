"""Dense symmetric linear algebra kernel.

The rest of the package does its factorizations and solves here:
Cholesky factorization as the only positive-definiteness witness (one
LAPACK ``dpotrf`` call, which returns the lower factor as a plain array
or rejects the matrix), solves against that factor (one LAPACK
``dpotrs`` call), and the smallest eigenvalue of a symmetric matrix (one
dense ``eigvalsh``).  Matrix-vector products stay with their callers, and
``verify.inertia_note``, an informational line of the CLI's ``verify``
output, calls ``numpy.linalg.eigvalsh`` itself.  Matrices are plain
float64 numpy arrays; symmetry is validated exactly (entrywise equality)
at every public entry point.  The pivot rule lives in one private kernel,
``_cholesky``, which validates nothing: :func:`spd_factorize` is
``require_symmetric`` plus that kernel, and ``model._trial_state``, which
tests the solver's line-search trials on an instance's already validated
matrix, calls the kernel directly.

LAPACK comes from scipy's compiled f2py wrappers, the same objects that
``scipy.linalg.lapack`` exposes.  Their extension module
``scipy/linalg/_flapack*.so`` is loaded by file location and registered
as ``scipy.linalg._flapack``, so ``scipy.linalg``'s package init (and the
``numpy.testing`` chain it imports) never runs, and a later
``import scipy.linalg`` reuses this module.  Where the file cannot be
found (zip or frozen layouts), ``from scipy.linalg import lapack``
supplies the same wrappers, only slower to import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def _flapack_file() -> str | None:
    """Path of scipy's ``linalg/_flapack`` extension; runs no scipy code."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or []) if spec else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_flapack():
    """scipy's f2py LAPACK wrappers, without importing ``scipy.linalg``."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    path = _flapack_file()
    if path is None:
        from scipy.linalg import lapack
        return lapack
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


class DimensionMismatch(ValueError):
    """Operand shapes do not agree."""


class NotPositiveDefinite(Exception):
    """Cholesky pivot failure: the matrix is not positive definite."""


def require_symmetric(a) -> np.ndarray:
    """Validate and return ``a`` as a square, exactly symmetric float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    return a


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of ``a``, or None where the pivot rule
    rejects it.

    ``a`` is a square, symmetric, Fortran-ordered float64 array that the
    caller gives up: LAPACK's ``dpotrf`` factorizes it in place.  The
    pivot rule: ``dpotrf`` must take every pivot, and every pivot
    ``L[j, j]**2`` must exceed ``1e-12 * (1 + max |diagonal of a|)``.  A
    diagonal that is not finite makes that tolerance inf or NaN, so such
    a matrix is rejected too, without a check of its own.  Nothing else
    about ``a`` is checked here; :func:`spd_factorize` is the validating
    entry.
    """
    # The ufunc reductions, not the array methods: this runs once per
    # line-search trial, where the methods' call overhead shows.
    pivot_tol = 1e-12 * (1.0 + float(np.maximum.reduce(np.abs(a.diagonal()))))
    lower, info = _flapack.dpotrf(a, lower=1, overwrite_a=1)
    if info > 0 or not np.minimum.reduce(lower.diagonal()) ** 2 > pivot_tol:
        return None
    return lower


def spd_factorize(a, overwrite: bool = False) -> np.ndarray:
    """Cholesky-factorize a symmetric matrix; return the lower factor L.

    Succeeds exactly when the matrix is positive definite under the
    pivot rule of :func:`_cholesky`, which rejects the numerically
    singular weakly-dominant matrices that row-sum shifted instances can
    produce; otherwise raises :class:`NotPositiveDefinite`.  ``L`` is a
    plain lower-triangular float array with ``A = L @ L.T``; with
    ``overwrite`` a Fortran-ordered float array is factorized in place and
    becomes ``L``: the caller gives ``a`` up.
    """
    a = require_symmetric(a)
    lower = _cholesky(a if overwrite else np.array(a, order="F"))
    if lower is None:
        raise NotPositiveDefinite("not positive definite")
    return lower


def spd_solve(lower: np.ndarray, b) -> np.ndarray:
    """Solve A x = b through the Cholesky factor ``lower`` of A (LAPACK
    ``dpotrs``).

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    b = np.asarray(b, dtype=float)
    n = lower.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatch(
            f"right-hand side of shape {b.shape} does not match factor dimension {n}"
        )
    x, _ = _flapack.dpotrs(lower, b, lower=1)
    return x


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix (``numpy.linalg.eigvalsh``)."""
    return float(np.linalg.eigvalsh(require_symmetric(a))[0])
