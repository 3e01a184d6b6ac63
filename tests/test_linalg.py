import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from conftest import saddle_solve
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux.linalg import (
    ConstructionError,
    SingularSystemError,
    SolverError,
    cholesky_solve,
    dense_lu_solve,
    solve_spd,
)

TRIDIAG = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


class TestSolveSpd:
    def test_identity(self):
        A = scipy.sparse.identity(3, format="csr")
        x = solve_spd(A, [1.0, 2.0, 3.0])
        assert x == pytest.approx([1.0, 2.0, 3.0])

    def test_tridiagonal(self):
        A = scipy.sparse.csr_matrix(TRIDIAG)
        # hand Gaussian elimination oracle
        assert solve_spd(A, [1.0, 1.0, 1.0]) == pytest.approx([1.5, 2.0, 1.5])

    def test_zero_rhs(self):
        A = scipy.sparse.csr_matrix([[1.0]])
        assert solve_spd(A, [0.0]) == pytest.approx([0.0])

    def test_residual_bound_random_spd(self):
        rng = np.random.default_rng(7)
        for n in (5, 20, 50):
            B = rng.standard_normal((n, n))
            A = B.T @ B + np.eye(n)
            rows, cols = np.nonzero(A)
            As = scipy.sparse.coo_matrix((A[rows, cols], (rows, cols)), shape=(n, n))
            b = rng.standard_normal(n)
            x = solve_spd(As, b, tol=1e-12)
            assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b) * (1 + 1e-3)

    @staticmethod
    def _record_solves(monkeypatch):
        """Record the solution of every solve with the factor of ``solve_spd``."""
        solves, splu = [], scipy.sparse.linalg.splu

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(self.lu.solve(rhs))
                return solves[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *a, **k: Factor(splu(*a, **k)))
        return solves

    def test_ill_conditioned_meets_bound_first_solve_misses(self, monkeypatch):
        # cond(A) ≈ 9e14: the first LU solve leaves a relative residual near
        # 1e-7, a second CG iteration, preconditioned by the same LU, removes it
        A = np.array([[6e-7, -0.5], [-0.5, 417000.0]])
        b = np.array([3.0, 4.0])
        solves = self._record_solves(monkeypatch)
        x = solve_spd(scipy.sparse.csr_matrix(A), b)
        assert np.linalg.norm(A @ solves[0] - b) > 1e-12 * np.linalg.norm(b)
        assert len(solves) >= 2
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_unattainable_tol_raises_with_finite_residual(self):
        # CG converges to round-off; no backward error reaches 1e-30, and the error
        # carries the relative residual CG achieved.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 30))
        A, b = X @ X.T + np.eye(30), rng.standard_normal(30)
        match = r"did not reach tol=1e-30 \(achieved .*, backward error .*\)"
        with pytest.raises(SolverError, match=match) as exc:
            solve_spd(scipy.sparse.csr_matrix(A), b, tol=1e-30)
        assert np.isfinite(exc.value.residual) and 1e-30 < exc.value.residual < 1e-13

    def test_bad_tol(self):
        A = scipy.sparse.csr_matrix([[1.0]])
        with pytest.raises(ValueError):
            solve_spd(A, [1.0], tol=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConstructionError):
            solve_spd(scipy.sparse.csr_matrix(TRIDIAG), [1.0, 2.0])
        with pytest.raises(ConstructionError):
            solve_spd(scipy.sparse.csr_matrix(np.ones((2, 3))), [1.0, 2.0])


    @pytest.mark.parametrize("levels", [0, 2])
    def test_only_refined_meshes_leave_the_lu(self, monkeypatch, levels):
        # A mesh without ancestry is solved by the LU of its whole free block; a
        # refined one factors only its root's free block, for the V-cycle.
        from eqflux.fem import project_data, solve_poisson
        from eqflux.geometry import DomainSpec
        from eqflux.mesh import generate_unit_square, uniform_refine

        mesh = generate_unit_square(4)
        for _ in range(levels):
            mesh = uniform_refine(mesh)
        data = project_data(DomainSpec(f=1.0), mesh)
        solves = self._record_solves(monkeypatch)
        solve_poisson(mesh, data)
        n_free = mesh.n_vertices - len(data.dirichlet_vertices)
        assert {len(x) for x in solves} == ({n_free} if levels == 0 else {3 * 3})
        assert len(solves) >= (1 if levels == 0 else 2)


def _laplacian_1d(n, shift=0.0):
    return scipy.sparse.diags([-np.ones(n - 1), np.full(n, 2.0 - shift), -np.ones(n - 1)],
                              [-1, 0, 1], format="csr")


def _interpolation_1d(nc):
    """Linear interpolation from nc interior points to 2 nc + 1."""
    rows = np.concatenate([2 * np.arange(nc) + 1, 2 * np.arange(nc), 2 * np.arange(nc) + 2])
    vals = np.concatenate([np.ones(nc), np.full(2 * nc, 0.5)])
    cols = np.tile(np.arange(nc), 3)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(2 * nc + 1, nc))


class TestSolveMultigrid:
    # solve_spd with prolongations: a 1-D Laplacian on 63 interior points over levels of
    # 31, 15 and 7 points (depth 0 is the LU of the whole matrix).
    P = [_interpolation_1d(31), _interpolation_1d(15), _interpolation_1d(7)]

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_matches_direct_solve(self, depth):
        A, b = _laplacian_1d(63), np.random.default_rng(3).standard_normal(63)
        x = solve_spd(A, b, self.P[:depth])
        exact = scipy.sparse.linalg.spsolve(A.tocsc(), b)
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        assert not solve_spd(_laplacian_1d(63), np.zeros(63), self.P).any()

    def test_no_convergence_raises_with_residual(self):
        # One coarse function under 1000 points: CG is little better than Jacobi-preconditioned.
        P = scipy.sparse.csr_matrix(np.full((1000, 1), 1e-3))
        match = r"did not reach tol=1e-12 \(achieved .*\) in 100 iterations"
        with pytest.raises(SolverError, match=match) as exc:
            solve_spd(_laplacian_1d(1000), np.ones(1000), [P])
        assert np.isfinite(exc.value.residual) and exc.value.residual > 1e-12

    def test_unattainable_tol_raises_with_residual(self):
        with pytest.raises(SolverError, match="did not reach tol=1e-30") as exc:
            solve_spd(_laplacian_1d(63), np.ones(63), self.P, tol=1e-30)
        assert 0.0 < exc.value.residual < 1e-12

    def test_indefinite_raises_with_residual(self):
        # The shift puts about a third of the spectrum below 0.
        with pytest.raises(SolverError) as exc:
            solve_spd(_laplacian_1d(63, shift=1.0), np.ones(63), self.P[:1])
        assert np.isfinite(exc.value.residual) and exc.value.residual > 1e-10

    def test_zero_coarse_diagonal_raises_naming_level_and_row(self):
        # A zero column of the first prolongation leaves a zero on level 1's diagonal.
        P = self.P[0].tolil()
        P[:, 5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="^multigrid level 1 is not SPD: "
                               "diagonal entry 0 in row 5$") as exc:
                solve_spd(_laplacian_1d(63), np.ones(63), [P.tocsr(), *self.P[1:]])
        assert exc.value.residual == 1.0

    def test_runs_are_bitwise_repeatable(self):
        b = np.random.default_rng(4).standard_normal(63)
        x = solve_spd(_laplacian_1d(63), b, self.P)
        assert solve_spd(_laplacian_1d(63), b, self.P).tobytes() == x.tobytes()


class TestDenseLuSolve:
    def test_permutation(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dense_lu_solve(A, [3.0, 7.0]) == pytest.approx([7.0, 3.0])

    def test_diagonal(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        assert dense_lu_solve(A, [2.0, 8.0]) == pytest.approx([1.0, 2.0])

    def test_singular(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularSystemError):
            dense_lu_solve(A, [1.0, 2.0])

    def test_zero_matrix(self):
        with pytest.raises(SingularSystemError):
            dense_lu_solve(np.array([[0.0]]), [1.0])

    def test_multiply_back_random(self):
        rng = np.random.default_rng(3)
        for n in (4, 25, 60):
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = dense_lu_solve(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_non_square(self):
        with pytest.raises(ConstructionError):
            dense_lu_solve(np.zeros((2, 3)), [1.0, 2.0])
        with pytest.raises(ConstructionError):
            dense_lu_solve(np.eye(2), [1.0, 2.0, 3.0])

    def test_stack_with_pivoting(self):
        # cyclic permutations and general random matrices need row exchanges
        rng = np.random.default_rng(4)
        A = np.concatenate([np.eye(5)[[[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]],
                            rng.standard_normal((3, 5, 5))])
        b = rng.standard_normal((5, 5))
        x = dense_lu_solve(A, b)
        assert x.shape == b.shape
        for k in range(5):
            assert np.linalg.norm(A[k] @ x[k] - b[k]) <= 1e-10 * np.linalg.norm(b[k])

    @pytest.mark.parametrize("k", [0, 2])
    def test_stack_names_singular_system(self, k):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
        A[k, 3] = A[k, 0] + A[k, 1]  # rank-deficient
        with pytest.raises(SingularSystemError, match=f"system {k}:") as exc:
            dense_lu_solve(A, np.ones((3, 4)))
        assert exc.value.index == k
        A[k] *= 1e9  # the pivot threshold scales with each system's own max|A|
        with pytest.raises(SingularSystemError):
            dense_lu_solve(A, np.ones((3, 4)))


def _spd_batch(rng, P, n):
    """Random SPD matrices (n, n, P) and right-hand sides (n, P), the batch on the last axis."""
    X = rng.standard_normal((P, n, n))
    A = X @ X.transpose(0, 2, 1) + n * np.eye(n)
    return np.ascontiguousarray(A.transpose(1, 2, 0)), rng.standard_normal((n, P))


def _make_singular(A, k, kind):
    """System ``k`` of the batch ``A`` (n, n, P), n ≥ 2, made singular in one of four ways."""
    n = len(A)
    if kind == "zero row":
        A[1, :, k] = A[:, 1, k] = 0.0
    elif kind == "indefinite":
        A[0, 0, k] = -1.0
    elif kind == "small pivot":
        A[..., k] = np.diag([1.0] * (n - 1) + [1e-13])  # positive definite, below 1e-12 · max diag
    else:  # the threshold scales with each system's own diagonal
        A[..., k] = 1e9 * np.eye(n)
        A[-1, -1, k] = 1e-6


def _cholesky_solve(A, b):
    """``cholesky_solve`` with every warning an error: not even the NaN of a system that is not
    positive definite may give one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cholesky_solve(A, b)


class TestCholeskySolve:
    """The in-array Cholesky solve of a batch-last stack of SPD systems."""

    def test_matches_dense_lu(self):
        A, b = _spd_batch(np.random.default_rng(6), 7, 9)
        ref = dense_lu_solve(A.transpose(2, 0, 1), b.T).T
        x = _cholesky_solve(A, b)
        assert x.shape == (9, 7)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), P=st.integers(1, 50), pad=st.integers(0, 11),
           seed=st.integers(0, 2**32 - 1))
    def test_random_batches_match_dense_lu(self, n, P, pad, seed):
        # The last ``pad`` unknowns of about half the systems are unit rows with zero right-hand
        # sides, as in the padded patch batch of the flux.
        rng = np.random.default_rng(seed)
        A, b = _spd_batch(rng, P, n)
        pad, padded = min(pad, n - 1), rng.random(P) < 0.5
        fixed = np.arange(n - pad, n)
        A[fixed[:, None], :, padded] = A[:, fixed[:, None], padded] = 0.0
        A[fixed[:, None], fixed[:, None], padded] = 1.0
        b[fixed[:, None], padded] = 0.0
        ref = dense_lu_solve(A.transpose(2, 0, 1), b.T).T
        x = _cholesky_solve(A.copy(), b)
        assert x.shape == (n, P)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not x[fixed[:, None], padded].any()

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("kind", ["zero row", "indefinite", "small pivot"])
    def test_names_singular_system(self, k, kind):
        A, b = _spd_batch(np.random.default_rng(7), 4, 6)
        _make_singular(A, k, kind)
        with pytest.raises(SingularSystemError, match="squared Cholesky pivot") as exc:
            _cholesky_solve(A.copy(), b)
        assert exc.value.index == k
        _make_singular(A, k, "diagonal scale")
        with pytest.raises(SingularSystemError) as exc:
            _cholesky_solve(A, b)
        assert exc.value.index == k

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), P=st.integers(1, 50),
           kind=st.sampled_from(["zero row", "indefinite", "small pivot", "diagonal scale"]),
           seed=st.integers(0, 2**32 - 1))
    def test_names_singular_system_at_random_position(self, n, P, kind, seed):
        rng = np.random.default_rng(seed)
        A, b = _spd_batch(rng, P, n)
        k = int(rng.integers(P))
        _make_singular(A, k, kind)
        with pytest.raises(SingularSystemError, match=r"^squared Cholesky pivot \S+ below ") as exc:
            _cholesky_solve(A, b)
        assert exc.value.index == k


def _saddle_stack(rng, P, n, m, border):
    """Random SPD M, full-rank B (with Bᵀ1 = 0 under a border), c > 0 and
    right-hand sides, with the assembled full systems."""
    X = rng.standard_normal((P, n, n))
    M = X @ X.transpose(0, 2, 1) + n * np.eye(n)
    B = rng.standard_normal((P, m, n))
    if border:
        B -= B.mean(axis=1, keepdims=True)
    c = rng.uniform(0.5, 1.5, size=(P, m)) if border else None
    f, g = rng.standard_normal((P, n)), rng.standard_normal((P, m))
    border = int(border)
    N = n + m + border
    A = np.zeros((P, N, N))
    A[:, :n, :n] = M
    A[:, :n, n:n + m] = -B.transpose(0, 2, 1)
    A[:, n:n + m, :n] = B
    if border:
        A[:, n:n + m, -1] = c
        A[:, -1, n:n + m] = c
    rhs = np.concatenate([f, g, np.zeros((P, border))], axis=1)
    return M, B, f, g, c, A, rhs


class TestSaddleSolve:
    """``conftest.saddle_solve``, the stacked static condensation that the flux tests use as a
    second reference for the patch saddle-point systems, against full dense solves."""

    @pytest.mark.parametrize("border", [False, True])
    def test_matches_full_solve(self, border):
        rng = np.random.default_rng(6)
        M, B, f, g, c, A, rhs = _saddle_stack(rng, 7, 9, 5, border)
        x = saddle_solve(M, B, f[..., None], g[..., None], c)
        ref = np.linalg.solve(A, rhs[..., None])
        assert x.shape == (7, 9, 1)
        assert np.abs(x - ref[:, :9]).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("border", [False, True])
    def test_columns_match_single_column_solves(self, border):
        rng = np.random.default_rng(8)
        M, B, _, _, c, _, _ = _saddle_stack(rng, 5, 9, 5, border)
        f, g = rng.standard_normal((5, 9, 4)), rng.standard_normal((5, 5, 4))
        x = saddle_solve(M, B, f, g, c)
        assert x.shape == (5, 9, 4)
        for j in range(4):
            xj = saddle_solve(M, B, f[..., j:j + 1], g[..., j:j + 1], c)[..., 0]
            assert np.abs(x[..., j] - xj).max() <= 1e-12 * np.abs(xj).max()

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("border", [False, True])
    @pytest.mark.parametrize("block", ["flux", "multiplier", "small pivot"])
    def test_names_singular_system(self, k, border, block):
        rng = np.random.default_rng(7)
        M, B, f, g, c, _, _ = _saddle_stack(rng, 4, 6, 4, border)
        if block == "flux":
            M[k, 1] = M[k, :, 1] = 0.0  # not positive definite
        elif block == "multiplier":
            # two equal rows keep Bᵀ1 = 0; e_0 - e_1 joins the kernel of Bᵀ
            B[k, :2] = B[k, :2].mean(axis=0)
        else:
            M[k] = np.diag([1.0] * 5 + [1e-13])  # pivot below 1e-12 · max|A|
            B[k] *= 1e-3
        with pytest.raises(SingularSystemError) as exc:
            saddle_solve(M, B, f[..., None], g[..., None], c)
        assert exc.value.index == k
