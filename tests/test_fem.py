import numpy as np
import pytest
from conftest import (
    duffy_quad,
    energy_norm,
    first_group_loop,
    galerkin_residual,
    prolong_uniform,
    unstructured_mesh,
)

from eqflux import config as cfg
from eqflux import fem
from eqflux.fem import (
    CoverageError,
    CouplingError,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    energy_error_cross_mesh,
    feature_problem_data,
    project_data,
    solve_feature_problem,
    solve_poisson,
)
from eqflux.geometry import (
    NEGATIVE_BOUNDARY,
    POSITIVE,
    DomainSpec,
    FeatureSpec,
    feature_mesh,
    partition_feature_boundary,
    rect_polygon,
)
from eqflux.linalg import SolverError
from eqflux.mesh import Mesh, generate_unit_square, uniform_refine


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
            lam = m.lam_coeffs[t]
            return sum(
                data.f_proj[t, k] * (lam[k, 0] + lam[k, 1] * x + lam[k, 2] * y)
                for k in range(3)
            )

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

    def test_pure_neumann_needs_gauge(self):
        m = generate_unit_square(3, lambda x, y: False)
        dom = DomainSpec(f=0.0, g_neumann=0.0, dirichlet=lambda x, y: False)
        data = project_data(dom, m)
        with pytest.raises(SolverError):
            solve_poisson(m, data)
        u = solve_poisson(m, data, gauge="mean_zero")
        assert np.abs(u.nodal_values).max() < 1e-12

    def test_pure_neumann_incompatible_data(self):
        m = generate_unit_square(3, lambda x, y: False)
        dom = DomainSpec(f=1.0, g_neumann=0.0, dirichlet=lambda x, y: False)
        data = project_data(dom, m)
        with pytest.raises(SolverError):
            solve_poisson(m, data, gauge="mean_zero")


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
        ut = solve_feature_problem(bump, u0, fm, forcing=0.0)
        exact = np.array([lin(x, y) for x, y in fm.vertices])
        assert np.abs(ut.nodal_values - exact).max() < 1e-11

    def test_constant_trace_gives_constant(self):
        bump = self._bump()
        dom = DomainSpec(features=[bump], dirichlet=dirichlet_x01)
        m0 = generate_unit_square(10, dirichlet_x01)
        u0 = ScalarField(m0, np.full(m0.n_vertices, 4.25))
        fm = feature_mesh(bump, 10, dom)
        ut = solve_feature_problem(bump, u0, fm, forcing=0.0)
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
            solve_feature_problem(bump, u0, fm)

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

    def test_energy_norm_against_oracle(self):
        m = generate_unit_square(5)
        u = ScalarField(m, 2 * m.vertices[:, 0] - m.vertices[:, 1])
        assert energy_norm(u) == pytest.approx(np.sqrt(5.0), rel=1e-12)


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
