"""Solver contracts used by the FEM and flux modules.

scipy.sparse matrices back the global Galerkin systems; batched Cholesky static
condensation backs the patch saddle-point systems, with a stacked dense LU solve
as its reference.  Heavy lifting is delegated to numpy and scipy.
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


def _forward(L, R):
    """Solve L X = R for stacks of lower-triangular L, one array step per row."""
    X = np.empty_like(R)
    for i in range(L.shape[1]):
        X[:, i] = (R[:, i] - (L[:, i, None, :i] @ X[:, :i])[:, 0]) / L[:, i, i, None]
    return X


def _back(L, R):
    """Solve Lᵀ X = R: forward substitution with rows and columns reversed."""
    return _forward(L.transpose(0, 2, 1)[:, ::-1, ::-1], R[:, ::-1])[:, ::-1]


def _cholesky(a, floor):
    """Batched Cholesky factor whose squared diagonal stays above ``floor``."""
    L = np.linalg.cholesky(a)
    d2 = np.diagonal(L, axis1=1, axis2=2).min(axis=1) ** 2
    if not (d2 >= floor).all():
        k = int(np.argmin(d2 >= floor))
        raise SingularSystemError(f"squared Cholesky pivot {d2[k]:.3e} below {floor[k]:.3e}", k)
    return L


def saddle_solve(M, B, f, g, c=None) -> np.ndarray:
    """The ``x`` part of stacked systems ``M x − Bᵀ λ = f``, ``B x + c μ = g``,
    ``cᵀ λ = 0`` (no border without ``c``) by static condensation: ``M``
    (P, n, n) is SPD, ``B`` is (P, q, n), and a border needs ``Bᵀ 1 = 0``, so
    that ``μ = Σg / Σc`` and ``(S + c cᵀ) λ = g − μ c`` with ``S = B M⁻¹ Bᵀ``.
    The right-hand sides are m columns per system, ``f`` (P, n, m) and ``g``
    (P, q, m), and so is ``x`` (P, n, m).  A squared Cholesky pivot of ``M`` or
    ``S`` below ``1e-12 · max|A|`` of the whole system raises
    :class:`SingularSystemError` naming its stack position."""
    # max|M| of an SPD matrix is on its diagonal.
    amax = np.maximum(np.diagonal(M, axis1=1, axis2=2).max(axis=1), np.abs(B).max(axis=(1, 2)))
    floor = 1e-12 * (amax if c is None else np.maximum(amax, np.abs(c).max(axis=1)))
    try:
        L = _cholesky(M, floor)
        WY = _forward(L, np.concatenate([B.transpose(0, 2, 1), f], axis=2))
        W, y = np.split(WY, [B.shape[1]], axis=2)
        S = W.transpose(0, 2, 1) @ W
        h = g - W.transpose(0, 2, 1) @ y
        if c is not None:
            S += c[:, :, None] * c[:, None, :]
            h -= (h.sum(axis=1) / c.sum(axis=1, keepdims=True))[:, None] * c[..., None]
        L2 = _cholesky(S, floor)
        return _back(L, y + W @ _back(L2, _forward(L2, h)))
    except np.linalg.LinAlgError:
        if len(M) == 1:
            raise SingularSystemError("not positive definite", 0) from None
        # numpy names no matrix of a stack: solve one system at a time, only
        # to name the first that fails.
        for k in range(len(M)):
            try:
                saddle_solve(*(None if a is None else a[k:k + 1] for a in (M, B, f, g, c)))
            except SingularSystemError as exc:
                exc.index = k
                raise
        raise
