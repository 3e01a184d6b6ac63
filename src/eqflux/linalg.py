"""Solver contracts used by the FEM and flux modules.

scipy.sparse matrices back the global Galerkin systems; stacked dense SPD solves
with a Cholesky pivot guard back the vertex-patch P2 systems of the flux, and a
stacked dense LU solve is kept as a reference.  Heavy lifting is delegated to
numpy and scipy.  scipy is imported at the first sparse assembly or solve, not at
``import eqflux``, so a call that never solves (mesh generation, config expansion)
does not load it.
"""

from __future__ import annotations

import warnings

import numpy as np


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
    """Dense factorization hit a pivot below the singularity threshold in the
    system at position ``index`` of the stack."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


def norm(x) -> float:
    """Euclidean norm by numpy's pairwise sum: ``np.linalg.norm`` is a threaded BLAS
    ddot on long vectors, whose spinning workers slowed the next numpy work 2x."""
    return float(np.sqrt(np.sum(x * x)))


def solve_spd(A, b, tol: float = 1e-12) -> np.ndarray:
    """Solve a sparse symmetric positive definite system to a relative
    residual bound.

    Uses a sparse LU factorization followed by iterative refinement until
    ``‖Ax − b‖₂ / ‖b‖₂ ≤ tol``; a step that does not halve the residual ends
    refinement.  Raises :class:`SolverError` with the achieved residual if
    the bound is not met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ConstructionError("shape mismatch in solve_spd")
    nb = norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    import scipy.sparse.linalg

    As = A.tocsc()
    try:
        # Minimum degree on the pattern of A^T + A with diagonal pivots, as
        # suits an SPD matrix. In SuperLU's default (unsymmetric) mode the same
        # ordering factored a 4096-DOF unstructured-mesh system 5x slower.
        lu = scipy.sparse.linalg.splu(
            As, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    x = lu.solve(b)
    res = norm(As @ x - b) / nb
    while res > tol:
        x = x + lu.solve(b - As @ x)
        new_res = norm(As @ x - b) / nb
        if new_res >= 0.5 * res:  # refinement stagnated at the roundoff floor
            res = min(res, new_res)
            break
        res = new_res
    if res > tol or not np.all(np.isfinite(x)):
        raise SolverError(
            f"solve_spd did not reach tol={tol:g} (achieved {res:g})", residual=res
        )
    return x


def dense_lu_solve(a, b) -> np.ndarray:
    """Solve square dense systems by LU with partial pivoting.

    ``a`` is one matrix (n, n) or a stack (..., n, n) with right-hand sides
    ``b`` of shape (..., n).  A system whose smallest pivot is below
    ``1e-12 · max|A|`` of that system raises :class:`SingularSystemError`
    naming its position in the (flattened) stack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ConstructionError("dense_lu_solve needs square matrices")
    if b.shape != a.shape[:-1]:
        raise ConstructionError("shape mismatch in dense_lu_solve")
    m, n = int(np.prod(a.shape[:-2])), a.shape[-1]
    stack = a.reshape(m, n, n)
    amax = np.abs(stack).max(axis=(1, 2), initial=0.0)
    import scipy.linalg

    with warnings.catch_warnings():
        # An exactly zero pivot is reported by the guard below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(stack, check_finite=False)
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2)).min(axis=1, initial=np.inf)
    ok = (amax > 0) & (pivots >= 1e-12 * amax) & np.isfinite(lu).all(axis=(1, 2))
    if not ok.all():
        k = int(np.argmin(ok))
        raise SingularSystemError(
            f"system {k}: pivot {pivots[k]:.3e} below threshold {1e-12 * amax[k]:.3e}",
            index=k,
        )
    x = scipy.linalg.lu_solve((lu, piv), b.reshape(m, n, 1), check_finite=False)
    return x.reshape(b.shape)


def _squared_pivots(a):
    """Smallest squared Cholesky pivot of each matrix of a stack, 0 where numpy finds it not
    positive definite (one matrix at a time then, since numpy names no matrix of a stack)."""
    try:
        return np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1).min(axis=-1) ** 2
    except np.linalg.LinAlgError:
        return 0.0 if a.ndim == 2 else np.array([_squared_pivots(x) for x in a])


def cholesky_solve(A, b) -> np.ndarray:
    """Solve stacked SPD systems ``A x = b``, ``A`` (P, n, n) and ``b`` (P, n).  A system whose
    smallest squared Cholesky pivot is not above ``1e-12 ·`` its largest diagonal entry raises
    :class:`SingularSystemError` naming its stack position."""
    floor = 1e-12 * np.diagonal(A, axis1=1, axis2=2).max(axis=1)
    d2 = _squared_pivots(A)
    bad = ~(d2 > floor)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularSystemError(f"squared Cholesky pivot {d2[k]:.3e} below {floor[k]:.3e}", k)
    return np.linalg.solve(A, b[..., None])[..., 0]
