"""Solver contracts used by the FEM and flux modules.

scipy.sparse matrices back the global Galerkin systems; small dense LU solves
back the per-patch saddle-point systems.  Heavy lifting is delegated to scipy
behind the contracts below.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse.linalg


class ConstructionError(ValueError):
    """Operands of a solve have inconsistent shapes."""


class SolverError(RuntimeError):
    """Iterative/direct solve failed to reach the requested residual.

    Carries the achieved relative residual in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularSystemError(RuntimeError):
    """Dense factorization hit a pivot below the singularity threshold."""


def solve_spd(A, b, tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Solve a sparse symmetric positive definite system to a relative
    residual bound.

    Uses a sparse LU factorization followed by iterative refinement until
    ``‖Ax − b‖₂ / ‖b‖₂ ≤ tol``.  Raises :class:`SolverError` with the
    achieved residual if the bound cannot be met within ``max_iter``
    refinement steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ConstructionError("shape mismatch in solve_spd")
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    As = A.tocsc()
    try:
        lu = scipy.sparse.linalg.splu(As)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    x = lu.solve(b)
    res = np.linalg.norm(As @ x - b) / nb
    it = 0
    while res > tol and it < max_iter:
        x = x + lu.solve(b - As @ x)
        new_res = np.linalg.norm(As @ x - b) / nb
        if new_res >= 0.5 * res:  # refinement stagnated at the roundoff floor
            res = min(res, new_res)
            break
        res = new_res
        it += 1
    if res > tol or not np.all(np.isfinite(x)):
        raise SolverError(
            f"solve_spd did not reach tol={tol:g} (achieved {res:g})", residual=res
        )
    return x


def dense_lu_solve(a, b) -> np.ndarray:
    """Solve a square dense system by LU with partial pivoting.

    Pivots smaller than ``1e-12 · max|A|`` trigger :class:`SingularSystemError`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConstructionError("dense_lu_solve needs a square matrix")
    if a.shape[0] != len(b):
        raise ConstructionError("shape mismatch in dense_lu_solve")
    amax = np.abs(a).max() if a.size else 0.0
    if amax == 0.0:
        raise SingularSystemError("zero matrix")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < 1e-12 * amax or not np.all(np.isfinite(lu)):
        raise SingularSystemError(
            f"pivot {pivots.min():.3e} below threshold {1e-12 * amax:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b)
