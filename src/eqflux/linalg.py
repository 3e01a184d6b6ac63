"""Solver contracts used by the FEM and flux modules.

scipy.sparse matrices back the global Galerkin systems, solved by CG preconditioned
with a V-cycle over the mesh's refinement hierarchy, whose coarsest level (on a mesh
without ancestry, the whole system) is factored by sparse LU; the vertex-patch P2
systems of the flux, one batch on the last axis, are factored in the array by a
Cholesky loop whose pivots are the guard; a stacked dense LU solve is kept as a
reference.  Heavy lifting is delegated to numpy and scipy.  scipy is imported at
the first sparse assembly or solve, not at ``import eqflux``, so a call that
never solves (mesh generation, config expansion) does not load it.
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


def solve_spd(A, b, prolongations=(), tol: float = 1e-12) -> np.ndarray:
    """Solve a sparse symmetric positive definite system by CG preconditioned with one V-cycle
    per iteration over ``prolongations``, finest first: coarse operators ``Pᵀ A P``, the coarsest
    factored by splu, two damped Jacobi sweeps (ω = 0.6) before and after each coarse correction.
    With no prolongations the V-cycle is the sparse LU of ``A`` itself.  CG stops at a recursive
    relative residual ≤ 1e-15; the solve is accepted when the normwise backward error
    ``‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`` is ≤ ``tol`` (the relative residual ``‖Ax − b‖₂ / ‖b‖₂``
    has a round-off floor that grows with the condition number).  A smoothed level (0 the
    finest) with a diagonal entry ≤ 0 (``.residual`` 1, that of the zero start), a failed
    factorization, a backward error above ``tol``, no stop in 100 iterations or ``pᵀAp ≤ 0``
    (``.residual`` the achieved relative residual) raises :class:`SolverError`; there is no
    fallback."""
    import scipy.sparse.linalg

    if tol <= 0:
        raise ValueError("tol must be positive")
    b, A = np.asarray(b, dtype=float), A.tocsr()
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ConstructionError("shape mismatch in solve_spd")
    nb = norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    levels, coarse = [], A
    for k, P in enumerate(prolongations):
        d = coarse.diagonal()
        if not (d > 0).all():
            i = int(np.argmin(d > 0))
            raise SolverError(f"multigrid level {k} is not SPD: diagonal entry {d[i]:g} in row {i}",
                              residual=1.0)  # that of the zero start
        levels.append((coarse, P, P.T.tocsr(), 0.6 / d))
        coarse = (levels[-1][2] @ coarse @ P).tocsr()
    try:
        # Minimum degree on the pattern of Aᵀ + A with diagonal pivots, as suits an SPD matrix
        # (in SuperLU's default, unsymmetric, mode the same ordering factored a 4096-DOF
        # unstructured-mesh system 5x slower).
        lu = scipy.sparse.linalg.splu(coarse.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    x, r, p, rz = np.zeros_like(b), b.copy(), 0.0, 1.0
    for it in range(1, 101):
        z = _v_cycle(levels, lu, r)
        rz, rz_old = np.sum(r * z), rz  # numpy's pairwise sums, as in norm: no BLAS workers
        p = z + rz / rz_old * p
        Ap = A @ p
        if not (pAp := np.sum(p * Ap)) > 0:
            break
        x += rz / pAp * p
        r -= rz / pAp * Ap
        if norm(r) <= 1e-15 * nb:
            break
    stopped = pAp > 0 and norm(r) <= 1e-15 * nb
    r = A @ x - b
    res = norm(r) / nb
    backward = np.abs(r).max() / (scipy.sparse.linalg.norm(A, np.inf) * np.abs(x).max()
                                  + np.abs(b).max())
    if not (stopped and backward <= tol):
        raise SolverError(f"solve_spd did not reach tol={tol:g} (achieved {res:g}, backward "
                          f"error {backward:g}) in {it} iterations, the last with pᵀAp = {pAp:g}",
                          residual=res)
    return x


def _v_cycle(levels, lu, r):
    """One V-cycle on ``r``, a loop down the levels and back up: a self-recursive closure
    would keep each solve's hierarchy alive in a reference cycle."""
    down = []
    for A, P, R, d in levels:
        x = d * r
        x += d * (r - A @ x)
        down.append((r, x))
        r = R @ (r - A @ x)
    x = lu.solve(r)
    for (A, P, R, d), (r, x0) in zip(levels[::-1], down[::-1]):
        x = x0 + P @ x
        for _ in range(2):
            x += d * (r - A @ x)
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


def cholesky_solve(A, b) -> np.ndarray:
    """Solve the SPD systems ``A x = b`` of a batch on the last axis, ``A`` (n, n, P), ``b`` and
    ``x`` (n, P), by a Cholesky loop over the n columns that overwrites ``A`` with the factor.  A
    system with a squared pivot not above ``1e-12 ·`` its largest diagonal entry raises
    :class:`SingularSystemError` naming its batch position."""
    floor = 1e-12 * np.diagonal(A).max(axis=-1)
    x, d2 = np.array(b, dtype=float), np.empty(np.shape(b))
    with np.errstate(all="ignore"):  # a system that is not SPD gives NaN, caught below
        for j in range(len(A)):
            L = A[j, :j]
            d2[j] = A[j, j] - np.einsum("kp,kp->p", L, L)
            A[j, j] = np.sqrt(d2[j])
            A[j + 1:, j] = (A[j + 1:, j] - np.einsum("ikp,kp->ip", A[j + 1:, :j], L)) / A[j, j]
            x[j] = (x[j] - np.einsum("kp,kp->p", L, x[:j])) / A[j, j]
    bad = ~(d2 > floor)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        raise SingularSystemError(
            f"squared Cholesky pivot {d2[bad[:, k], k][0]:.3e} below {floor[k]:.3e}", k)
    for j in reversed(range(len(A))):
        x[j] = (x[j] - np.einsum("ip,ip->p", A[j + 1:, j], x[j + 1:])) / A[j, j]
    return x
