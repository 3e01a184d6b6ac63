import copy
import gc
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assemble_stiffness_einsum,
    barycentrics,
    cross_mesh_gradients_loop,
    duffy_quad,
    energy_error_per_point,
    energy_norm,
    expand_cross_mesh,
    field_to_csv_loop,
    first_group_loop,
    galerkin_residual,
    project_forcing_einsum,
    prolong_uniform,
    quad_points_einsum,
    unstructured_mesh,
    write_vtk_loop,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux import config as cfg
from eqflux import fem, linalg
from eqflux.fem import (
    CoverageError,
    CouplingError,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    energy_error_cross_mesh,
    feature_problem_data,
    project_data,
    solve_poisson,
)
from eqflux.geometry import (
    NEGATIVE_BOUNDARY,
    POSITIVE,
    DomainSpec,
    ExtensionSpec,
    FeatureSpec,
    GeometryError,
    feature_mesh,
    partition_feature_boundary,
    rect_polygon,
)
from eqflux.linalg import SolverError
from eqflux.mesh import (
    Mesh,
    generate_unit_square,
    generate_with_rect_features,
    uniform_refine,
)
from eqflux.presets import preset_config
from eqflux.run import build_computational_mesh, build_exact_mesh, build_reference, run_single


def dirichlet_x01(x, y):
    return abs(x) < 1e-12 or abs(x - 1) < 1e-12


def reference_triangle():
    return Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )


class TestProjection:
    def test_p1_data_reproduced(self):
        m = generate_unit_square(3)
        dom = DomainSpec(f=lambda x, y: x)
        data = project_data(dom, m)
        xs = m.vertices[m.triangles][:, :, 0]
        assert np.abs(data.f_proj - xs).max() < 1e-12

    def test_moment_matching_for_sine(self):
        # independent high-order quadrature oracle; the 1e-6 slack is the
        # degree-4 projection quadrature error at this mesh size
        m = generate_unit_square(4)
        f = lambda x, y: np.sin(np.pi * x)
        data = project_data(DomainSpec(f=f), m)
        t = 5
        tri = m.vertices[m.triangles[t]]

        def proj(x, y):
            return data.f_proj[t] @ barycentrics(tri, x, y)

        for q in (lambda x, y: 1.0, lambda x, y: x, lambda x, y: y):
            moment = duffy_quad(tri, lambda x, y: (f(x, y) - proj(x, y)) * q(x, y))
            assert abs(moment) < 1e-6

    def test_zero_neumann_projection(self):
        m = generate_unit_square(3, dirichlet_x01)
        data = project_data(DomainSpec(g_neumann=0.0, dirichlet=dirichlet_x01), m)
        assert np.abs(data.gn_proj).max() == 0.0

    def test_linear_neumann_projection_exact(self):
        m = generate_unit_square(4, dirichlet_x01)
        g = lambda x, y: 2.0 - 3.0 * x
        data = project_data(
            DomainSpec(g_neumann=g, dirichlet=dirichlet_x01), m
        )
        for k, e in enumerate(data.neumann_edges):
            i, j = m.edge_vertices[e]
            expect = [g(*m.vertices[i]), g(*m.vertices[j])]
            assert data.gn_proj[k] == pytest.approx(expect, abs=1e-12)

    def test_non_vectorisable_expression_raises(self):
        # data expressions are evaluated on numpy arrays; a Python conditional
        # cannot be, and must fail instead of falling back point by point
        m = generate_unit_square(3)
        dom = DomainSpec(f=cfg.scalar_expression("1 if x > 0.5 else 0"))
        with pytest.raises(ValueError, match="truth value"):
            project_data(dom, m)

    def test_dirichlet_read_from_markers_not_predicate(self):
        # Every boundary edge of the mesh is marked Dirichlet; the predicate leaves the
        # notch's side Neumann, but the projection reads the markers.
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.25, 0.75, 0.75, 1.0))
        mesh = unstructured_mesh(8, np.random.default_rng(0), None)
        dom = DomainSpec(base=mesh, features=[notch], dirichlet=dirichlet_x01)
        with pytest.raises(GeometryError, match="^feature 1 touches the Dirichlet boundary$"):
            project_data(dom, mesh)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gamma0_footprints_match_loop(self, seed):
        # Two overlapping top notches and a bottom bump, all excluded: an
        # outer Neumann edge takes the g0 of the first footprint holding its
        # midpoint, and g when there is none.
        feats = [
            FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.2, 0.6, 0.8, 1.0), neumann_g0=2.0),
            FeatureSpec(2, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.8, 0.9, 1.0),
                        neumann_g0=lambda x, y: 3.0 + x),
            FeatureSpec(3, POSITIVE, rect_polygon(0.3, 0.7, -0.2, 0.0), neumann_g0=4.0),
        ]
        mesh = unstructured_mesh(8, np.random.default_rng(seed), dirichlet_x01)
        dom = DomainSpec(base=mesh, features=feats, dirichlet=dirichlet_x01, g_neumann=5.0)
        data = project_data(dom, mesh)
        groups = [partition_feature_boundary(f, dom)["gamma0"] for f in feats]
        choices = [f.neumann_g0 for f in feats] + [dom.g_neumann]
        mids = mesh.edge_midpoints()[data.neumann_edges]
        datums = [choices[first_group_loop(p, groups)] for p in mids]
        assert np.array_equal(data.gn_proj, fem._project_edge_data(mesh, data.neumann_edges, datums))
        row = {tuple(p): k for k, p in enumerate(mids.tolist())}
        assert data.gn_proj[row[0.5625, 1.0]] == pytest.approx([2.0, 2.0])  # both notches
        assert data.gn_proj[row[0.6875, 1.0]] == pytest.approx([3.625, 3.75])  # notch 2 only
        assert data.gn_proj[row[0.8125, 1.0]] == pytest.approx([5.0, 5.0])
        assert data.gn_proj[row[0.4375, 0.0]] == pytest.approx([4.0, 4.0])


_PTS = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.75]])
_NRM = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])


@pytest.mark.parametrize(
    "fn, normals, expect",
    [
        (2.5, None, [2.5, 2.5, 2.5]),
        (lambda x, y: x + 2 * y, None, [0.0, 1.0, 2.5]),
        (lambda x, y: x + 2 * y, _NRM, [0.0, 1.0, 2.5]),
        (lambda x, y, nx, ny: x * nx + y * ny, _NRM, [0.0, -0.25, 1.2]),
        (lambda x, y, nx, ny: x * nx + y * ny, -_NRM, [0.0, 0.25, -1.2]),
        (lambda x, y: 3.0, None, [3.0, 3.0, 3.0]),
        (lambda x, y: np.zeros(len(x) + 1), None, ValueError),
    ],
    ids=["number", "xy", "xy-ignores-normals", "normals", "flipped-normals",
         "scalar-broadcast", "wrong-length"],
)
def test_eval_data(fn, normals, expect):
    if expect is ValueError:
        with pytest.raises(ValueError, match="shape"):
            fem.eval_data(fn, _PTS, normals)
        return
    out = fem.eval_data(fn, _PTS, normals)
    assert out.shape == (3,)
    assert out == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("fn, match", [
    (lambda x, y: 1.0 / x, r"^data value inf at point \(0.0, 0.0\) is not finite$"),
    (lambda x, y: np.where(y > 0.5, np.nan, x), r"^data value nan at point \(1.0, 0.75\)"),
    (float("-inf"), r"^data value -inf at point \(0.0, 0.0\)"),
], ids=["pole", "nan", "number"])
def test_eval_data_rejects_non_finite(fn, match):
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match=match):
        fem.eval_data(fn, _PTS)


class TestAssembly:
    def test_reference_triangle_stiffness(self):
        m = reference_triangle()
        A = assemble_stiffness(m).toarray()
        expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
        assert A == pytest.approx(expect, abs=1e-14)

    def test_row_sums_vanish(self):
        m = generate_unit_square(5)
        A = assemble_stiffness(m).toarray()
        assert np.abs(A.sum(axis=1)).max() < 1e-13

    def test_symmetry(self):
        m = generate_unit_square(4)
        A = assemble_stiffness(m).toarray()
        assert np.abs(A - A.T).max() < 1e-14
        assert (np.diag(A) > 0).all()

    def test_unit_load_reference_triangle(self):
        m = reference_triangle()
        f_proj = fem.project_forcing(1.0, m)
        data = fem.ProblemData(
            mesh=m,
            f_proj=f_proj,
            dirichlet_vertices=np.zeros(0, int),
            dirichlet_values=np.zeros(0),
            neumann_edges=np.zeros(0, int),
            gn_proj=np.zeros((0, 2)),
        )
        b = assemble_load(m, data)
        assert b == pytest.approx([1 / 6, 1 / 6, 1 / 6], abs=1e-14)

    def test_unit_neumann_edge_load(self):
        m = generate_unit_square(2, dirichlet_x01)
        dom = DomainSpec(f=0.0, g_neumann=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        b = assemble_load(m, data)
        # corner (0,0) is on a Dirichlet side; bottom-edge mid vertex gets
        # two half-edge contributions of length 0.5 each
        mid_bottom = 1  # vertex (0.5, 0)
        assert b[mid_bottom] == pytest.approx(0.5, abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_column_kernels_match_einsum(self, n, seed):
        # Quadrature points and forcing projection equal their einsum forms bit
        # for bit on seeded unstructured meshes; so does the stiffness matrix,
        # but for the oracle's exact zeros and the order of the diagonal sums.
        mesh = unstructured_mesh(n, np.random.default_rng(seed), None)
        assert fem.quad_points(mesh).tobytes() == quad_points_einsum(mesh).tobytes()
        A, B = assemble_stiffness(mesh), assemble_stiffness_einsum(mesh)
        B.eliminate_zeros()
        assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
        diag = A.indices == np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        # an edge sums two terms, which commute
        assert np.array_equal(A.data[~diag], B.data[~diag])
        # A vertex sums k <= 8 positive terms: any two orders agree to 2 (k - 1) u.
        assert np.all(np.abs(A.data[diag] - B.data[diag]) <= 1.6e-15 * B.data[diag])

        def f(x, y):
            return np.sin(3 * x) * np.exp(y) - x * y

        assert fem.project_forcing(f, mesh).tobytes() == project_forcing_einsum(f, mesh).tobytes()
        with mock.patch.object(fem, "quad_points", side_effect=AssertionError):  # a number reads none
            assert (fem.project_forcing(2.5, mesh).tobytes()
                    == project_forcing_einsum(2.5, mesh).tobytes())
        tris = np.random.default_rng(seed).permutation(mesh.n_triangles)[: mesh.n_triangles // 2]
        assert np.array_equal(fem.quad_points(mesh, tris), quad_points_einsum(mesh)[tris])

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_lattice_diagonals_leave_the_pattern(self, n):
        # Every diagonal has a right angle on both sides: it couples by exactly 0.0.
        m = generate_unit_square(n)
        A = assemble_stiffness(m)
        d = m.vertices[m.edge_vertices[:, 1]] - m.vertices[m.edge_vertices[:, 0]]
        diagonals = int(np.count_nonzero(d.all(axis=1)))
        assert diagonals == n * n
        assert A.nnz == m.n_vertices + 2 * (m.n_edges - diagonals)
        assert (A != A.T).nnz == 0
        B = assemble_stiffness_einsum(m)
        assert np.count_nonzero(B.data == 0.0) == 2 * diagonals

    def test_one_sided_right_angle_keeps_the_edge(self):
        # Edge (1, 2) has a right angle at vertex 0 only: it stays in the
        # pattern with triangle (1, 3, 2)'s coupling alone, bit for bit.
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.2, 0.9]])
        A = assemble_stiffness(Mesh(v, [[0, 1, 2], [1, 3, 2]]))
        alone = assemble_stiffness(Mesh(v[[1, 3, 2]], [[0, 1, 2]]))
        assert A.nnz == 4 + 2 * 5
        assert A[1, 2] == A[2, 1] == alone[0, 2] != 0.0

    def test_reference_matches_oracle_matrix_solve(self, monkeypatch):
        # The test2-both reference (n = 16, two refinements) against a solve
        # of the einsum matrix, which keeps every lattice diagonal.
        (spec,) = cfg.specs_from_config(preset_config("test2-both", n=16))
        assert spec.reference.levels == 2
        u = build_reference(spec).nodal_values
        monkeypatch.setattr(fem, "assemble_stiffness", assemble_stiffness_einsum)
        oracle = build_reference(spec).nodal_values
        assert np.abs(u - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_zero_data_zero_load(self):
        m = generate_unit_square(2, dirichlet_x01)
        data = project_data(DomainSpec(), m)
        assert np.abs(assemble_load(m, data)).max() == 0.0


class TestSolvePoisson:
    def test_linear_exactness(self):
        m = generate_unit_square(4)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y)
        u = solve_poisson(m, project_data(dom, m))
        exact = 1 + 2 * m.vertices[:, 0] + 3 * m.vertices[:, 1]
        assert np.abs(u.nodal_values - exact).max() < 1e-12

    def test_symmetric_solution(self):
        m = generate_unit_square(8, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        u = solve_poisson(m, project_data(dom, m))
        vals = {}
        for k, (x, y) in enumerate(m.vertices):
            vals[(round(x, 12), round(y, 12))] = u.nodal_values[k]
        for (x, y), v in vals.items():
            assert v == pytest.approx(vals[(round(1 - x, 12), y)], abs=1e-10)

    def test_manufactured_convergence_rate(self):
        dom = DomainSpec(
            f=lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        errs, hs = [], []
        for n in (8, 16, 32, 64):
            m = generate_unit_square(n)
            u = solve_poisson(m, project_data(dom, m))
            gu = u.gradients()
            pts = fem.quad_points(m)
            gx = np.pi * np.cos(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
            gy = np.pi * np.sin(np.pi * pts[..., 0]) * np.cos(np.pi * pts[..., 1])
            diff = np.stack([gx, gy], axis=-1) - gu[:, None, :]
            err = np.sqrt(
                np.einsum("t,q,tqc,tqc->", m.areas, fem.TRI_QW, diff, diff)
            )
            errs.append(err)
            hs.append(m.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_galerkin_orthogonality(self):
        m = generate_unit_square(6, dirichlet_x01)
        dom = DomainSpec(f=lambda x, y: x * y, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        res = galerkin_residual(u, data)
        free = np.setdiff1d(np.arange(m.n_vertices), data.dirichlet_vertices)
        scale = np.linalg.norm(assemble_load(m, data)) or 1.0
        assert np.abs(res[free]).max() <= 1e-10 * scale

    def test_default_tol_at_n256(self):
        # The free block's relative residual has a round-off floor near 1.3e-12 here
        # (it grows like n²); the normwise backward error that the solve accepts on
        # stays near 1e-16.
        (spec,) = cfg.specs_from_config(preset_config("test2-neg", n=256))
        mesh = build_computational_mesh(spec)
        data = project_data(spec.domain, mesh, include=spec.include)
        u = solve_poisson(mesh, data, tol=spec.solver_tol)
        assert spec.solver_tol == 1e-12 and np.isfinite(u.nodal_values).all()

    def test_pure_neumann_needs_gauge(self):
        m = generate_unit_square(3, lambda x, y: False)
        dom = DomainSpec(f=0.0, g_neumann=0.0, dirichlet=lambda x, y: False)
        data = project_data(dom, m)
        with pytest.raises(SolverError, match="^pure Neumann problem: no Dirichlet vertex"):
            solve_poisson(m, data)

    def test_component_without_dirichlet_vertex_named(self, monkeypatch):
        # A full-width hole cuts the square in two and y < 0.5 fixes the lower part only: the
        # failed solve names the upper part.  A solve that succeeds looks for no component.
        import scipy.sparse.csgraph

        hole = {"id": 1, "kind": "negative_internal", "include": True, "g": 0.0,
                "shape": {"type": "rect", "x0": 0, "x1": 1, "y0": 0.25, "y1": 0.75}}
        doc = {"mesh": {"builtin": 8}, "dirichlet": "y < 0.5", "f": "1", "features": [hole]}
        (spec,) = cfg.specs_from_config(doc)
        mesh = build_computational_mesh(spec)
        data = project_data(spec.domain, mesh, include=spec.include)
        with pytest.raises(SolverError, match=r"^the mesh component of 27 vertices, one at "
                           r"\(0, 0\.75\), has no Dirichlet vertex") as exc:
            solve_poisson(mesh, data)
        assert isinstance(exc.value.__cause__, SolverError)
        monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", None)
        (spec,) = cfg.specs_from_config(doc | {"dirichlet": "all"})
        mesh = build_computational_mesh(spec)
        solve_poisson(mesh, project_data(spec.domain, mesh, include=spec.include))


def _refined(mesh, levels):
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return mesh


def _test2_both(n, levels):
    (spec,) = cfg.specs_from_config(preset_config("test2-both", n=n))
    mesh = _refined(build_exact_mesh(spec), levels)
    return mesh, project_data(spec.domain, mesh, include=[True] * len(spec.domain.features))


def _unstructured(n, levels):
    dom = DomainSpec(f=lambda x, y: np.exp(-8 * (x + y)), dirichlet=dirichlet_x01, g_neumann=0.5)
    mesh = _refined(unstructured_mesh(n, np.random.default_rng(5), dirichlet_x01), levels)
    return mesh, project_data(dom, mesh)


class TestMultigridSolve:
    """A refined mesh is solved by multigrid CG on its own hierarchy."""

    @staticmethod
    def _lu_solve(mesh, data):
        flat = copy.copy(mesh)  # the same mesh without ancestry takes the LU
        flat.levels = 0
        return solve_poisson(flat, data)

    @pytest.mark.parametrize("problem, n, levels", [
        (_test2_both, 8, 1), (_test2_both, 8, 2), (_test2_both, 8, 3),
        (_unstructured, 16, 1), (_unstructured, 16, 2)])
    def test_matches_lu_in_energy(self, monkeypatch, problem, n, levels):
        mesh, data = problem(n, levels)
        cycles, v_cycle = [], linalg._v_cycle
        monkeypatch.setattr(linalg, "_v_cycle", lambda *a: cycles.append(1) or v_cycle(*a))
        u = solve_poisson(mesh, data).nodal_values
        assert 0 < len(cycles) <= 25  # one V-cycle per CG iteration
        exact = self._lu_solve(mesh, data).nodal_values
        A, d = assemble_stiffness(mesh), u - exact
        assert np.sqrt(d @ (A @ d)) <= 1e-12 * np.sqrt(exact @ (A @ exact))

    @pytest.mark.parametrize("problem", [_test2_both, _unstructured])
    def test_prolongations_match_injection_oracle(self, problem):
        # Read from the finest triangles alone, each level's P injects as the oracle does.
        meshes = [problem(8, 0)[0]]
        for _ in range(3):
            meshes.append(uniform_refine(meshes[-1]))
        Ps = fem._prolongations(meshes[-1], np.ones(meshes[-1].n_vertices, dtype=bool))
        vals = np.random.default_rng(0).standard_normal(meshes[0].n_vertices)
        for P, coarse, fine in zip(Ps[::-1], meshes, meshes[1:]):
            want = prolong_uniform(ScalarField(coarse, vals), fine).nodal_values
            vals = P @ vals
            assert np.array_equal(vals, want)

    def test_root_without_free_vertex(self):
        # A 1x1 root has only Dirichlet vertices; the coarsest level is the first refinement.
        mesh = _refined(generate_unit_square(1), 2)
        data = project_data(DomainSpec(f=lambda x, y: 1 + x), mesh)
        u = solve_poisson(mesh, data).nodal_values
        exact = self._lu_solve(mesh, data).nodal_values
        assert np.abs(u - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_indefinite_raises_with_residual(self, monkeypatch):
        import scipy.sparse

        mesh, data = _test2_both(8, 2)

        def shifted(m):  # 15% of the spectrum below 0
            A = assemble_stiffness(m)
            return A - 1.5 * scipy.sparse.identity(A.shape[0], format="csr")

        monkeypatch.setattr(fem, "assemble_stiffness", shifted)
        with pytest.raises(SolverError) as exc:
            solve_poisson(mesh, data)
        assert exc.value.residual is not None and exc.value.residual > 1e-10

    def test_positive_diagonals_indefinite_raises_from_cg(self, monkeypatch):
        import scipy.sparse

        mesh, data = _test2_both(8, 2)
        # About 2% of the spectrum below 0, every level's diagonal above 0.
        monkeypatch.setattr(fem, "assemble_stiffness", lambda m: assemble_stiffness(m)
                            - 0.2 * scipy.sparse.identity(m.n_vertices, format="csr"))
        with pytest.raises(SolverError, match="the last with pᵀAp = -") as exc:
            solve_poisson(mesh, data)
        assert exc.value.residual > 1e-10

    def test_zero_diagonal_raises_naming_level_and_row(self, monkeypatch):
        import scipy.sparse

        mesh, data = _test2_both(8, 2)
        monkeypatch.setattr(fem, "assemble_stiffness", lambda m: assemble_stiffness(m)
                            - 2.0 * scipy.sparse.identity(m.n_vertices, format="csr"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the zero
            with pytest.raises(SolverError, match="^multigrid level 0 is not SPD: "
                               "diagonal entry 0 in row 0$") as exc:
                solve_poisson(mesh, data)
        assert exc.value.residual == 1.0

    def test_solves_hold_no_memory(self):
        # With the cyclic GC off, a solve that left a reference cycle would keep
        # its hierarchy alive.
        mesh, data = _test2_both(8, 3)
        gc.disable()
        tracemalloc.start()
        try:
            u = solve_poisson(mesh, data)
            first = tracemalloc.get_traced_memory()[0]
            for _ in range(9):
                u = solve_poisson(mesh, data)
            assert tracemalloc.get_traced_memory()[0] - first <= 2**20
        finally:
            tracemalloc.stop()
            gc.enable()
        assert u.nodal_values.tobytes() == solve_poisson(mesh, data).nodal_values.tobytes()


class TestFeatureProblem:
    def _bump(self, eps=0.2):
        return FeatureSpec(1, POSITIVE, rect_polygon((1 - eps) / 2, (1 + eps) / 2, -eps, 0.0))

    def test_linear_exactness(self):
        bump = self._bump()
        dom = DomainSpec(features=[bump], dirichlet=dirichlet_x01)
        m0 = generate_unit_square(10, dirichlet_x01)
        lin = lambda x, y: 2 + x - 3 * y
        u0 = ScalarField(m0, np.array([lin(x, y) for x, y in m0.vertices]))
        bump.neumann_g = lambda x, y, nx, ny: 1 * nx - 3 * ny
        fm = feature_mesh(bump, 10, dom)
        ut = solve_poisson(fm, feature_problem_data(bump, u0, fm, forcing=0.0))
        exact = np.array([lin(x, y) for x, y in fm.vertices])
        assert np.abs(ut.nodal_values - exact).max() < 1e-11

    def test_constant_trace_gives_constant(self):
        bump = self._bump()
        dom = DomainSpec(features=[bump], dirichlet=dirichlet_x01)
        m0 = generate_unit_square(10, dirichlet_x01)
        u0 = ScalarField(m0, np.full(m0.n_vertices, 4.25))
        fm = feature_mesh(bump, 10, dom)
        ut = solve_poisson(fm, feature_problem_data(bump, u0, fm, forcing=0.0))
        assert np.abs(ut.nodal_values - 4.25).max() < 1e-12

    def test_bump_mesh_and_trace_match(self):
        bump = self._bump()
        dom = DomainSpec(f=1.0, features=[bump], dirichlet=dirichlet_x01)
        m0 = generate_unit_square(10, dirichlet_x01)
        u0 = solve_poisson(m0, project_data(dom, m0, include=[False]))
        fm = feature_mesh(bump, 10, dom)
        assert fm.n_triangles == 8
        data = feature_problem_data(bump, u0, fm, forcing=dom.f)
        assert len(data.dirichlet_vertices) == 3
        ut = solve_poisson(fm, data)
        for v, val in zip(data.dirichlet_vertices, data.dirichlet_values):
            p = fm.vertices[v]
            k = np.where((np.abs(m0.vertices - p) < 1e-12).all(axis=1))[0][0]
            assert ut.nodal_values[v] == pytest.approx(u0.nodal_values[k], abs=1e-12)

    def test_vertex_mismatch_raises(self):
        bump = self._bump()
        dom = DomainSpec(features=[bump], dirichlet=dirichlet_x01)
        m0 = generate_unit_square(7, dirichlet_x01)  # lattice incompatible
        u0 = ScalarField(m0, np.zeros(m0.n_vertices))
        fm = feature_mesh(bump, 10, dom)
        with pytest.raises(CouplingError, match="does not coincide with a trace-source vertex"):
            feature_problem_data(bump, u0, fm)

    def test_gamma0_outside_trace_source_raises(self):
        bump = self._bump()
        dom = DomainSpec(features=[bump], dirichlet=dirichlet_x01)
        half = generate_unit_square(10)  # scaled onto [0, 0.5]^2: misses x = 0.6
        m0 = Mesh(0.5 * half.vertices, half.triangles)
        u0 = ScalarField(m0, np.zeros(m0.n_vertices))
        fm = feature_mesh(bump, 10, dom)
        with pytest.raises(CouplingError, match=r"gamma0 vertex \[0\.6 0\. *\] outside"):
            feature_problem_data(bump, u0, fm)


class TestGradientsAndNorms:
    def test_gradient_of_linear_field(self):
        m = generate_unit_square(3)
        u = ScalarField(m, 1 + 2 * m.vertices[:, 0] + 3 * m.vertices[:, 1])
        for t in (0, 5, m.n_triangles - 1):
            assert u.gradients()[t] == pytest.approx([2.0, 3.0])

    def test_gradient_zero_field(self):
        m = generate_unit_square(2)
        u = ScalarField(m, np.zeros(m.n_vertices))
        assert u.gradients()[1] == pytest.approx([0.0, 0.0])

    def test_reference_triangle_hat_gradient(self):
        m = reference_triangle()
        u = ScalarField(m, np.array([0.0, 1.0, 0.0]))
        assert u.gradients()[0] == pytest.approx([1.0, 0.0])

    def test_injected_field_has_zero_error(self):
        m = generate_unit_square(4, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        u = solve_poisson(m, project_data(dom, m))
        fine = uniform_refine(m)
        uf = prolong_uniform(u, fine)
        assert energy_error_cross_mesh(u, uf) <= 1e-12

    def test_error_against_zero_field(self):
        m = generate_unit_square(4)
        fine = uniform_refine(m)
        ref = ScalarField(fine, fine.vertices[:, 0])  # u = x
        zero = ScalarField(m, np.zeros(m.n_vertices))
        assert energy_error_cross_mesh(zero, ref) == pytest.approx(1.0, abs=1e-12)

    def test_error_between_linear_fields(self):
        m = generate_unit_square(4)
        fine = uniform_refine(m)
        ref = ScalarField(fine, 1 + 2 * fine.vertices[:, 0])
        coarse = ScalarField(
            m, 1 + 2 * m.vertices[:, 0] + 3 * m.vertices[:, 1]
        )
        assert energy_error_cross_mesh(coarse, ref) == pytest.approx(3.0, abs=1e-12)

    def test_coverage_error(self):
        small = generate_unit_square(2)
        shifted = Mesh(small.vertices + 5.0, small.triangles)
        ref = ScalarField(shifted, np.zeros(shifted.n_vertices))
        coarse = ScalarField(small, np.zeros(small.n_vertices))
        with pytest.raises(CoverageError):
            energy_error_cross_mesh(coarse, ref)

    @pytest.mark.parametrize("shift", [0.5, 0.25, 5.0])
    def test_coverage_error_refined_as_flat(self, shift):
        # A refined mesh partly (or not) over the coarse field raises through the
        # root pass the same error as the same triangles without ancestry.
        small = generate_unit_square(2)
        fine = uniform_refine(uniform_refine(Mesh(small.vertices + shift, small.triangles)))
        coarse = ScalarField(small, np.zeros(small.n_vertices))
        messages = []
        for mesh in (fine, Mesh(fine.vertices, fine.triangles)):
            with pytest.raises(CoverageError) as err:
                energy_error_cross_mesh(coarse, ScalarField(mesh, np.zeros(mesh.n_vertices)))
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_energy_norm_against_oracle(self):
        m = generate_unit_square(5)
        u = ScalarField(m, 2 * m.vertices[:, 0] - m.vertices[:, 1])
        assert energy_norm(u) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def assert_level_walk_as_flat(coarse, fine):
    """On a refined mesh, the walk down its levels gives the result of the same
    triangles without ancestry (the fine pass alone), array for array."""
    assert fine.levels > 0
    got = fem.cross_mesh_gradients(coarse, fine)
    flat = fem.cross_mesh_gradients(coarse, Mesh(fine.vertices, fine.triangles))
    assert np.array_equal(got[0], flat[0], equal_nan=True)
    assert np.array_equal(got[1], flat[1]) and np.array_equal(got[2], flat[2])


def bump_pieces(n, ext, rng):
    """A bump below the unit square, with extension ``ext``, and random fields on
    the square's n x n lattice and on the bump's feature mesh."""
    extension = {"none": None,
                 "deeper": ExtensionSpec(rect_polygon(0.4, 0.6, -0.4, 0.0)),
                 "wider": ExtensionSpec(rect_polygon(0.2, 0.8, -0.2, 0.0))}[ext]
    bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0), extension=extension)
    meshes = (generate_unit_square(n), feature_mesh(bump, n, DomainSpec(features=[bump])))
    return bump, [ScalarField(mesh, rng.standard_normal(mesh.n_vertices)) for mesh in meshes]


def check_cross_mesh(pieces, reference):
    """Cross-mesh gradients, expanded, and the energy error equal the per-point
    oracle's bit for bit, the error by the library's reduction applied to the
    oracle's gradients at every point, and a refined reference gives the result
    of its flat copy; returns the number of points that took the per-point path."""
    coarse = fem.CompositeField(pieces)
    if reference.mesh.levels:
        assert_level_walk_as_flat(coarse, reference.mesh)
    with mock.patch.object(fem.CompositeField, "gradient_at", autospec=True,
                           side_effect=fem.CompositeField.gradient_at) as spy:
        got = fem.cross_mesh_gradients(coarse, reference.mesh)
    want = cross_mesh_gradients_loop(pieces, reference.mesh)
    assert np.array_equal(expand_cross_mesh(*got), want)
    assert np.isnan(got[0][got[1]]).all() and not np.isnan(np.delete(got[0], got[1], 0)).any()
    assert energy_error_cross_mesh(coarse, reference) == energy_error_per_point(
        coarse, reference, want)
    return sum(len(call.args[1]) for call in spy.call_args_list)


class TestCrossMeshGradients:
    """One location per fine triangle, per-point location where that fails."""

    def test_nested_meshes_need_no_fallback(self):
        m = generate_unit_square(4)
        fine = uniform_refine(uniform_refine(m))
        rng = np.random.default_rng(3)
        pieces = [ScalarField(m, rng.standard_normal(m.n_vertices))]
        assert check_cross_mesh(pieces, ScalarField(fine, fine.vertices[:, 0])) == 0

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 6), m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_unstructured_coarse_field(self, n, m, seed):
        rng = np.random.default_rng(seed)
        coarse = unstructured_mesh(n, rng, None)
        fine = uniform_refine(generate_unit_square(m))
        pieces = [ScalarField(coarse, rng.standard_normal(coarse.n_vertices))]
        ref = ScalarField(fine, rng.standard_normal(fine.n_vertices))
        assert check_cross_mesh(pieces, ref) > 0

    @pytest.mark.parametrize("n, m", [(3, 4), (5, 3), (4, 5)])
    def test_non_nested_lattices_mix_held_and_rest(self, n, m):
        # Lattices of unrelated spacing: some fine triangles lie in one coarse
        # triangle, the others cross coarse edges and are the rest.
        coarse = generate_unit_square(n)
        fine = uniform_refine(generate_unit_square(m))
        rng = np.random.default_rng(n * 10 + m)
        pieces = [ScalarField(coarse, rng.standard_normal(coarse.n_vertices))]
        ref = ScalarField(fine, rng.standard_normal(fine.n_vertices))
        _, rest, _ = fem.cross_mesh_gradients(fem.CompositeField(pieces), fine)
        assert 0 < len(rest) < fine.n_triangles
        assert check_cross_mesh(pieces, ref) == 6 * len(rest)

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([5, 10, 15]), m=st.sampled_from([5, 10, 15]),
           levels=st.integers(0, 1), ext=st.sampled_from(["none", "deeper", "wider"]),
           seed=st.integers(0, 2**32 - 1))
    def test_positive_feature_pieces(self, n, m, levels, ext, seed):
        rng = np.random.default_rng(seed)
        bump, pieces = bump_pieces(n, ext, rng)
        fine = generate_with_rect_features(m, [bump], [True])
        for _ in range(levels):
            fine = uniform_refine(fine)
        ref = ScalarField(fine, rng.standard_normal(fine.n_vertices))
        # A fine mesh nested in both pieces (its resolution a multiple of
        # theirs) needs no per-point location, the bump included: its
        # centroids are located in the feature piece.  Any other falls back.
        nested = (m << levels) % n == 0
        assert (check_cross_mesh(pieces, ref) == 0) == nested

    @pytest.mark.parametrize("ext", ["none", "deeper", "wider"])
    @pytest.mark.parametrize("n, m", [(5, 10), (10, 5), (5, 15), (15, 10)])
    def test_refined_bump_pieces_as_flat(self, n, m, ext):
        # The pieces of test_positive_feature_pieces, against a once-refined
        # bump mesh: the root pass gives the flat copy's arrays, also with the
        # bump's piece first, which puts high triangle numbers first in the rest.
        bump, pieces = bump_pieces(n, ext, np.random.default_rng(n * 100 + m))
        fine = uniform_refine(generate_with_rect_features(m, [bump], [True]))
        assert_level_walk_as_flat(fem.CompositeField(pieces), fine)
        assert_level_walk_as_flat(fem.CompositeField(pieces[::-1]), fine)

    @pytest.mark.parametrize("n, m, levels", [(2, 3, 1), (3, 5, 2), (4, 7, 2)])
    def test_pieces_split_across_root_triangles_as_flat(self, n, m, levels):
        # Two pieces meet on x = 1/2, which root triangles of an odd lattice
        # cross: the children of one crossing triangle are held in either piece,
        # so each level's rest goes down in triangle order, not piece order.
        fine = generate_unit_square(m)
        for _ in range(levels):
            fine = uniform_refine(fine)
        square, rng = generate_unit_square(n), np.random.default_rng(n)
        pieces = [ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
                  for mesh in (Mesh(square.vertices * [0.5, 1.0] + [x0, 0.0], square.triangles)
                               for x0 in (0.0, 0.5))]
        assert_level_walk_as_flat(fem.CompositeField(pieces), fine)
        assert_level_walk_as_flat(fem.CompositeField(pieces[::-1]), fine)

    def test_test2_both_error_energy_matches_per_point_path(self):
        # The run's error against the reference, with the bump's field as the
        # second coarse piece, equals the per-point path's bit for bit.
        doc = preset_config("test2-both", n=8, eps=0.25)
        (spec,) = cfg.specs_from_config(doc)
        reference = build_reference(spec)
        with mock.patch.object(fem.CompositeField, "gradient_at", autospec=True,
                               side_effect=fem.CompositeField.gradient_at) as spy:
            res = run_single(spec, reference=reference)
        assert res.feature_fields.keys() == {2}  # the bump; the notch has no field
        coarse = fem.CompositeField([res.u0, res.feature_fields[2]])
        fine = reference.mesh
        gc = coarse.gradient_at(quad_points_einsum(fine).reshape(-1, 2))
        per_point = energy_error_per_point(coarse, reference, gc.reshape(fine.n_triangles, -1, 2))
        assert res.report.error_energy == per_point
        # the bump's fine triangles are found in its piece by their centroids
        bump = fine.vertices[fine.triangles].mean(axis=1)[:, 1] < 0
        assert bump.any() and sum(len(c.args[1]) for c in spy.call_args_list) < 6 * bump.sum()

    def test_test2_both_locates_root_centroids(self):
        # Each piece's first pass locates centroids of the reference's root
        # triangles (the exact mesh), not of its 16 times as many fine ones.
        doc = preset_config("test2-both", n=8, eps=0.25)
        (spec,) = cfg.specs_from_config(doc)
        reference = build_reference(spec)
        res = run_single(spec, reference=reference)
        coarse = fem.CompositeField([res.u0, res.feature_fields[2]])
        fine = reference.mesh
        root = [tri for tri, _ in fine.coarser_levels()][-1]
        assert fine.levels == 2 and fine.n_triangles == 16 * len(root)
        with mock.patch.object(Mesh, "locate_points", autospec=True,
                               side_effect=Mesh.locate_points) as spy:
            fem.cross_mesh_gradients(coarse, fine)
        calls = [(c.args[0], len(c.args[1])) for c in spy.call_args_list]
        bump_roots = int((fine.vertices[root].mean(axis=1)[:, 1] < 0).sum())
        assert calls[:2] == [(res.u0.mesh, len(root)),
                             (res.feature_fields[2].mesh, bump_roots)]
        assert 0 < bump_roots and max(n for _, n in calls) == len(root)
        assert_level_walk_as_flat(coarse, fine)

    @pytest.mark.parametrize("n, m, levels", [(3, 4, 2), (5, 7, 3), (7, 10, 2)])
    def test_non_nested_walk_locates_fewer_centroids(self, n, m, levels):
        # Lattices of unrelated spacing, the root the finer.  The walk locates the
        # root centroids, then the children of each level's rest (those of a held
        # triangle are held), then the fine rest's quadrature points; the flat
        # copy locates every fine centroid.
        fine = generate_unit_square(m)
        for _ in range(levels):
            fine = uniform_refine(fine)
        rng = np.random.default_rng(n * 10 + m)
        coarse = fem.CompositeField([ScalarField(generate_unit_square(n),
                                                 rng.standard_normal((n + 1) ** 2))])
        assert check_cross_mesh(coarse.pieces,
                                ScalarField(fine, rng.standard_normal(fine.n_vertices))) > 0

        def located(mesh):
            with mock.patch.object(Mesh, "locate_points", autospec=True,
                                   side_effect=Mesh.locate_points) as spy:
                rest = fem.cross_mesh_gradients(coarse, mesh)[1]
            return [len(c.args[1]) for c in spy.call_args_list], len(rest)

        tris = [tri for tri, _ in fine.coarser_levels()][::-1]  # coarsest first
        rests = [located(Mesh(fine.vertices[:tri.max() + 1], tri))[1] for tri in tris]
        calls, rest = located(fine)
        assert calls == [len(tris[0])] + [4 * r for r in rests] + [6 * rest]
        assert 0 < min(rests) and sum(calls) < sum(located(Mesh(fine.vertices, fine.triangles))[0])


class TestExports:
    def test_field_csv(self, tmp_path):
        m = generate_unit_square(2)
        u = ScalarField(m, np.arange(m.n_vertices, dtype=float))
        path = tmp_path / "u.csv"
        fem.field_to_csv(u, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "vertex_id,x,y,value"
        assert len(lines) == 1 + m.n_vertices

    def test_vtk_writer(self, tmp_path):
        m = generate_unit_square(2)
        path = tmp_path / "u.vtk"
        fem.write_vtk(
            path,
            m,
            point_data={"u": np.zeros(m.n_vertices)},
            cell_vectors={"flux": np.zeros((m.n_triangles, 2))},
        )
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 2.0")
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {m.n_vertices} double" in text
        assert "SCALARS u double" in text
        assert "VECTORS flux double" in text

    @pytest.mark.parametrize("kind", ["lattice", "unstructured"])
    def test_writers_match_line_oracles(self, tmp_path, kind):
        m = (generate_unit_square(5) if kind == "lattice"
             else unstructured_mesh(5, np.random.default_rng(7), None))
        rng = np.random.default_rng(2)
        u = rng.standard_normal(m.n_vertices) * 10.0 ** rng.integers(-300, 301, m.n_vertices)
        u[:5] = [-0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 2.0), 1e300, -1e300]
        vecs = rng.standard_normal((m.n_triangles, 2))
        vecs[:3] = [[-0.0, np.nextafter(-1.0, 0.0)], [1e300, -1e300], [0.1, 1 / 3]]
        field = ScalarField(m, u)
        fem.field_to_csv(field, tmp_path / "a.csv")
        field_to_csv_loop(field, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for data in ({}, {"point_data": {"u": u, "v": -u}, "cell_vectors": {"flux": vecs}}):
            fem.write_vtk(tmp_path / "a.vtk", m, **data)
            write_vtk_loop(tmp_path / "b.vtk", m, **data)
            assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
