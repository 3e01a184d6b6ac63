import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import (
    RTMonomialSpace,
    _patch_system_loop,
    compatibility_residual_loop,
    interior_jump_loop,
    neumann_trace_defect_loop,
    own_shape,
    patch_stacks_loop,
    reconstruct_flux_loop,
    triangle_bytes,
    unstructured_mesh,
    vertex_patches_loop,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux import flux as flux_module
from eqflux import linalg as linalg_module
from eqflux import mesh as mesh_module
from eqflux.fem import ScalarField, project_data, solve_poisson
from eqflux.flux import (
    EquilibrationError,
    OrthogonalityError,
    FluxField,
    _compatibility_residual,
    assemble_patch_system,
    build_rt_space,
    certify,
    flux_divergence_defect,
    flux_normal_trace,
    interior_jump,
    neumann_trace_defect,
    patch_batches,
    patch_flux,
    reconstruct_flux,
)
from eqflux.geometry import (
    DomainSpec,
    clip_curve_to_mesh,
    closed_loop,
    regular_polygon,
)
from eqflux.linalg import dense_lu_solve, saddle_solve
from eqflux.mesh import Mesh, generate_unit_square, read_mesh, vertex_patches, write_mesh


def dirichlet_x01(x, y):
    return abs(x) < 1e-12 or abs(x - 1) < 1e-12


def interpolate_constant(space, vec):
    """RT coefficients of a constant vector field (for test shifts)."""
    mesh = space.mesh
    coef = np.zeros(space.total_dofs)
    v = np.asarray(vec, dtype=float)
    for e in range(mesh.n_edges):
        vn = float(space.mesh.edge_normals[e] @ v)
        L = mesh.edge_lengths[e]
        coef[2 * e] = vn * L
        coef[2 * e + 1] = vn * L / 2.0
    base = 2 * mesh.n_edges
    coef[base + 0 :: 2][: mesh.n_triangles] = mesh.areas * v[0]
    coef[base + 1 :: 2][: mesh.n_triangles] = mesh.areas * v[1]
    return coef


class TestRTSpace:
    def test_single_triangle_dof_count(self):
        m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        sp = build_rt_space(m)
        assert sp.total_dofs == 2 * 3 + 2 * 1 == 8

    def test_unit_square_dof_count(self):
        sp = build_rt_space(generate_unit_square(1))
        assert sp.total_dofs == 2 * 5 + 2 * 2 == 14

    def test_constant_field_dofs_and_evaluation(self):
        m = generate_unit_square(2)
        sp = build_rt_space(m)
        coef = interpolate_constant(sp, (1.0, 0.0))
        fl = FluxField(sp, coef)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.95, size=(20, 2))
        tris = m.locate_points(pts)
        vals = fl.eval_at(pts, tris)
        assert np.abs(vals - np.array([1.0, 0.0])).max() < 1e-12
        # interior moments are (area, 0) per triangle
        assert fl.cell_means() == pytest.approx(
            np.tile([1.0, 0.0], (m.n_triangles, 1)), abs=1e-12
        )

    def test_divergence_of_constant_field(self):
        m = generate_unit_square(2)
        sp = build_rt_space(m)
        fl = FluxField(sp, interpolate_constant(sp, (0.3, -0.7)))
        assert np.abs(fl.divergence_vertex_values()).max() < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
    def test_against_monomial_oracle(self, n, seed, lattice):
        # The Piola-mapped reference basis, built once per element shape,
        # against per-element dual bases on scaled monomials, on lattices
        # (shapes shared) and meshes with random diagonals and jitter.
        rng = np.random.default_rng(seed)
        m = generate_unit_square(n) if lattice else unstructured_mesh(n, rng, None)
        sp, oracle = build_rt_space(m), RTMonomialSpace(m)
        close = lambda a, b: np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert np.array_equal(sp.tri_dofs, oracle.tri_dofs)
        assert close(sp.mass[sp.shape], oracle.mass)
        assert close(sp.divmom[sp.shape], oracle.divmom)
        assert close(sp.vecmom[sp.shape], oracle.vecmom)
        coef = rng.standard_normal(sp.total_dofs)
        tris = rng.integers(0, m.n_triangles, 40)
        pts = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), 40), m.vertices[m.triangles[tris]])
        fl = FluxField(sp, coef)
        assert close(fl.eval_at(pts, tris), oracle.eval_at(coef, pts, tris))
        assert close(fl.divergence_vertex_values(), oracle.divergence_vertex_values(coef))

    def test_shapes(self):
        # Element arrays are built once per shape, numbered by first triangle:
        # two on a lattice, one per triangle on a jittered mesh.
        sp = build_rt_space(generate_unit_square(64))
        assert len(sp.mass) == sp.shape.max() + 1 == 2
        assert np.array_equal(sp.shape[:2], [0, 1])
        m = unstructured_mesh(16, np.random.default_rng(0), None)
        sp = build_rt_space(m)
        assert len(sp.mass) == m.n_triangles
        assert np.array_equal(sp.shape, np.arange(m.n_triangles))

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 12), size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_eval_at_contracts_its_triangles_only(self, n, size, seed):
        # The reference DOFs of the evaluated triangles alone give the rows of
        # the contraction over all triangles, bit for bit.
        rng = np.random.default_rng(seed)
        m = unstructured_mesh(n, rng, None)
        sp = build_rt_space(m)
        fl = FluxField(sp, rng.standard_normal(sp.total_dofs))
        tris = rng.integers(0, m.n_triangles, size)
        pts = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), size), m.vertices[m.triangles[tris]])
        got = fl.eval_at(pts, tris)
        full = fl.reference_dofs()
        with mock.patch.object(FluxField, "reference_dofs", lambda self, t=slice(None): full[t]):
            assert np.array_equal(got, fl.eval_at(pts, tris))


class TestPatchFlux:
    def _linear_setup(self, n=4):
        m = generate_unit_square(n)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        return m, data, u

    def test_linear_patch_is_weighted_gradient(self):
        m, data, u = self._linear_setup()
        sp = build_rt_space(m)
        patch = [p for p in vertex_patches(m) if p.is_interior][0]
        (batch,) = patch_batches(sp, data, [patch.vertex])
        dofs, vals = patch_flux(sp, batch, u, data, {})
        # sigma^a = -psi_a * grad(u): evaluate at interior points of the patch
        coef = np.zeros(sp.total_dofs)
        np.add.at(coef, dofs, vals)
        fl = FluxField(sp, coef)
        a = patch.vertex
        for t in patch.triangles:
            c = m.vertices[m.triangles[t]].mean(axis=0)
            lam = m.lam_coeffs[t]
            loc = int(np.where(m.triangles[t] == a)[0][0])
            psi = lam[loc, 0] + lam[loc, 1] * c[0] + lam[loc, 2] * c[1]
            got = fl.eval_at(c[None, :], [t])[0]
            assert got == pytest.approx([-psi * 2.0, -psi * 3.0], abs=1e-11)

    def test_patch_support(self):
        m, data, u = self._linear_setup()
        sp = build_rt_space(m)
        patch = vertex_patches(m)[0]
        (batch,) = patch_batches(sp, data, [patch.vertex])
        dofs, _ = patch_flux(sp, batch, u, data, {})
        allowed = set(int(d) for d in sp.tri_dofs[patch.triangles].reshape(-1))
        assert set(int(d) for d in dofs) <= allowed

    def test_interior_patch_compatibility(self):
        m = generate_unit_square(6, dirichlet_x01)
        dom = DomainSpec(f=0.0, dirichlet=dirichlet_x01,
                         g_dirichlet=lambda x, y: x * x - y * y + x)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        interior = [p.vertex for p in vertex_patches(m) if p.is_interior]
        for batch in patch_batches(sp, data, interior):
            g = assemble_patch_system(sp, batch, u, data)[3]
            resid, scale = _compatibility_residual(sp, batch, g, u, data)
            assert (resid <= 1e-10 * np.maximum(scale, 1e-30) + 1e-14).all()

    def test_dirichlet_corner_patch_unconstrained(self):
        m, data, u = self._linear_setup()
        sp = build_rt_space(m)
        (batch,) = patch_batches(sp, data, [0])  # the corner (0, 0)
        assert not batch.mean
        patch_flux(sp, batch, u, data, {})  # solvable

    def test_neumann_interior_vertex_constrained(self):
        m = generate_unit_square(6, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        mid_bottom = 3  # (0.5, 0): interior point of the Neumann side
        (batch,) = patch_batches(sp, data, [mid_bottom])
        assert batch.mean
        c = assemble_patch_system(sp, batch, u, data)[4]
        # the mean-value border weights every multiplier row by its hat mass
        assert c.shape == (1, 3 * len(batch.tris))
        assert (c > 0).all()
        assert c.sum() == pytest.approx(1.0, rel=1e-12)

    def test_non_galerkin_input_raises(self):
        m, data, u = self._linear_setup()
        bad = ScalarField(m, u.nodal_values + np.sin(np.arange(m.n_vertices)))
        with pytest.raises(OrthogonalityError):
            reconstruct_flux(bad, data)

    def test_batch_of_one_matches_full_batches(self):
        m = generate_unit_square(5, dirichlet_x01)
        data = project_data(DomainSpec(f=1.0, dirichlet=dirichlet_x01), m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        full = reconstruct_flux(u, data, sp).coefficients
        coef = np.zeros(sp.total_dofs)
        for a in range(m.n_vertices):
            (batch,) = patch_batches(sp, data, [a])
            dofs, vals = patch_flux(sp, batch, u, data, {})
            np.add.at(coef, dofs, vals)
        assert np.abs(coef - full).max() <= 1e-12 * np.abs(full).max()

    def test_singular_patch_system_names_vertex(self):
        m, data, u = self._linear_setup()
        t = 11  # (1,1)-(2,2)-(1,2): its interior DOFs lose every coupling
        broken = own_shape(build_rt_space(m), t)
        broken.mass[broken.shape[t]] = 0.0
        broken.divmom[broken.shape[t]] = 0.0
        with pytest.raises(EquilibrationError, match="singular patch system at vertex") as exc:
            reconstruct_flux(u, data, broken)
        vertex = int(str(exc.value).split("vertex ")[1].split(":")[0])
        assert vertex in m.triangles[t]

    def test_zero_multiplier_block_names_vertex(self):
        # The flux block keeps its mass, so only the multiplier Schur
        # complement of the three patches around t loses rank.
        m, data, u = self._linear_setup()
        t = 11
        broken = own_shape(build_rt_space(m), t)
        broken.divmom[broken.shape[t]] = 0.0
        with pytest.raises(EquilibrationError, match="singular patch system at vertex") as exc:
            reconstruct_flux(u, data, broken)
        vertex = int(str(exc.value).split("vertex ")[1].split(":")[0])
        assert vertex in m.triangles[t]

    def test_unclassified_boundary_edge_raises(self):
        m = generate_unit_square(4, dirichlet_x01)
        data = project_data(DomainSpec(f=1.0, dirichlet=dirichlet_x01), m)
        u = solve_poisson(m, data)
        e = int(data.dirichlet_edges[2])
        unmarked = dataclasses.replace(data, dirichlet_edges=np.delete(data.dirichlet_edges, 2))
        with pytest.raises(EquilibrationError, match=f"boundary edge {e} is neither") as exc:
            reconstruct_flux(u, unmarked)
        vertex = int(str(exc.value).split()[1].rstrip(":"))
        assert vertex in m.edge_vertices[e]


def _mixed_problem(mesh_factory, case, rng):
    """Mesh, data and Galerkin solution of one of three boundary settings."""
    dirichlet = (None, dirichlet_x01, lambda x, y: abs(x) < 1e-12)[case]
    m = mesh_factory(dirichlet)
    c = rng.uniform(-1.0, 1.0, size=4)
    dom = DomainSpec(
        f=lambda x, y: c[0] + c[1] * np.sin(3 * x) * y,
        dirichlet=dirichlet,
        g_dirichlet=lambda x, y: c[2] * x * y,
        g_neumann=lambda x, y, nx, ny: c[3] * nx + x * ny,
    )
    data = project_data(dom, m)
    return m, data, solve_poisson(m, data)


class TestUnstructuredPatches:
    """Batched equilibration on jiggled meshes with random diagonals, read
    back through the JSON mesh format, against the vertex-by-vertex oracle."""

    @staticmethod
    def _read_back(mesh):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.json")
            write_mesh(mesh, path)
            return read_mesh(path)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_batched_flux_matches_vertex_loop(self, n, case, seed):
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(
            lambda d: self._read_back(unstructured_mesh(n, rng, d)), case, rng)
        patches = vertex_patches(m)
        assert [(p.vertex, p.triangles.tolist(), p.boundary_edges_zero.tolist(),
                 p.boundary_edges_psi.tolist(), p.is_interior) for p in patches] \
            == vertex_patches_loop(m)
        sp = build_rt_space(m)
        fl = reconstruct_flux(u, data, sp)
        ref = reconstruct_flux_loop(u, data, sp)
        assert np.abs(fl.coefficients - ref).max() <= 1e-12 * np.abs(ref).max()

        scale = 1.0 + np.abs(data.f_proj).max() + np.abs(data.gn_proj).max(initial=0.0)
        assert flux_divergence_defect(fl, data).max() <= 1e-9 * scale
        assert interior_jump(fl) <= 1e-9 * scale
        assert neumann_trace_defect(fl, data) <= 1e-9 * scale

        for batch in patch_batches(sp, data):
            g = assemble_patch_system(sp, batch, u, data)[3]
            resid, bound = _compatibility_residual(sp, batch, g, u, data)
            loop = [compatibility_residual_loop(sp, q, u, data)
                    for q in vertex_patches_loop(m) if q[0] in batch.vertices]
            assert bound == pytest.approx([b for _, b in loop], rel=1e-12)
            if batch.mean:
                assert (resid <= 1e-10 * bound + 1e-14).all()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_mean_value_stacks_have_balanced_divergence(self, n, case, seed):
        # Bᵀ1 = 0 on every mean-value stack: the precondition of the rank-one
        # border in saddle_solve.
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        for batch in patch_batches(sp, data):
            if batch.mean:
                B = assemble_patch_system(sp, batch, u, data)[1]
                assert (np.abs(B.sum(axis=1)) <= 1e-12 * np.abs(B).max()).all()

    @staticmethod
    def _rows_by_vertex(batches):
        """Each patch's rows of a batch list, keyed by its vertex."""
        out = {}
        for b in batches:
            for p, v in enumerate(b.vertices.tolist()):
                assert v not in out
                i = b.patch == p
                out[v] = (b.mean, b.nf, b.dofs[p], b.tris[i], b.loc[i], b.rows[i], b.prescribed[i])
        return out

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           share=st.floats(0.0, 1.0))
    def test_vertex_subset_rows_match_full_layout(self, n, case, seed, share):
        # A patch's layout depends on its own vertex only, not on the other
        # patches asked for, nor on their order.
        rng = np.random.default_rng(seed)
        m, data, _ = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        full = self._rows_by_vertex(patch_batches(sp, data))
        subset = rng.permutation(m.n_vertices)[:round(share * m.n_vertices)]
        part = self._rows_by_vertex(patch_batches(sp, data, subset))
        assert sorted(full) == list(range(m.n_vertices))
        assert sorted(part) == sorted(subset.tolist())
        for v, rows in part.items():
            for got, want in zip(rows, full[v]):
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want)
        for a, tris, *_ in vertex_patches_loop(m):
            assert full[a][3].tolist() == tris


class TestCondensedSolve:
    """The static condensation of every patch stack against the
    vertex-by-vertex assembly and the dense LU solve of its whole
    saddle-point system."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_lu_on_every_stack(self, n, case, seed):
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        batches = patch_batches(sp, data)
        loop = {q[0]: q for q in vertex_patches_loop(m)}
        layouts = []
        for batch in batches:
            nt = np.bincount(batch.patch)
            assert (nt == nt[0]).all()
            nf, k = batch.nf, 3 * int(nt[0])
            layouts.append((nf, int(nt[0]), batch.mean))
            blocks = assemble_patch_system(sp, batch, u, data)
            M, B, f, g, c = blocks
            assert (c is not None) == batch.mean
            As, rhss = [], []
            for p, v in enumerate(batch.vertices):
                free, _, A, rhs, mean = _patch_system_loop(sp, loop[v], u, data)
                assert mean == batch.mean and free == batch.dofs[p].tolist()
                assert len(rhs) == nf + k + int(mean)
                tol = 1e-12 * np.abs(A).max()
                assert np.abs(M[p] - A[:nf, :nf]).max() <= tol
                assert np.abs(B[p] - A[nf:nf + k, :nf]).max() <= tol
                assert np.abs(B[p].T + A[:nf, nf:nf + k]).max() <= tol
                if mean:
                    assert np.abs(c[p] - A[nf:nf + k, -1]).max() <= tol
                rtol = 1e-12 * np.abs(rhs).max()
                assert np.abs(f[p] - rhs[:nf]).max() <= rtol
                assert np.abs(g[p] - rhs[nf:nf + k]).max() <= rtol
                As.append(A)
                rhss.append(rhs)
            ref = dense_lu_solve(np.stack(As), np.stack(rhss))
            x = saddle_solve(M, B, f[..., None], g[..., None], c)[..., 0]
            assert np.abs(x - ref[:, :nf]).max() <= 1e-12 * np.abs(ref).max()
        # one stack per layout here (no stack is split), and every layout of
        # the vertex-by-vertex oracle is present
        oracle = set()
        for q in vertex_patches_loop(m):
            free, _, _, _, mean = _patch_system_loop(sp, q, u, data)
            oracle.add((len(free), len(q[1]), mean))
        assert sorted(layouts) == sorted(oracle)

    def test_split_stacks_match_unsplit(self, monkeypatch):
        rng = np.random.default_rng(3)
        m, data, u = _mixed_problem(lambda d: generate_unit_square(8, d), 1, rng)
        sp = build_rt_space(m)
        whole = reconstruct_flux(u, data, sp).coefficients
        # An interior lattice patch has 24 free rows and 18 multiplier rows.
        monkeypatch.setattr(flux_module, "_STACK_ENTRIES", 4 * 42**2)
        layouts = [(b.nf, len(b.tris) // len(b.vertices), b.mean)
                   for b in patch_batches(sp, data)]
        assert max(layouts.count(key) for key in layouts) > 1
        split = reconstruct_flux(u, data, sp).coefficients
        assert np.abs(split - whole).max() <= 1e-12 * np.abs(whole).max()


class TestStackLayout:
    @pytest.mark.parametrize("mesh, entries, split", [
        ("lattice", 4 * 42**2, True), ("lattice", flux_module._STACK_ENTRIES, False),
        ("lattice 12", flux_module._STACK_ENTRIES, False),
        ("unstructured", 3 * 30**2, True), ("unstructured", flux_module._STACK_ENTRIES, False)])
    def test_stacks_match_layout_loop(self, monkeypatch, mesh, entries, split):
        # Batches, their order and the flux are bitwise those of the stacks
        # laid out one layout at a time; the non-dyadic 12 lattice has
        # triangles whose arrays differ by an ulp.
        rng = np.random.default_rng(5)
        factory = {"lattice": lambda d: generate_unit_square(8, d),
                   "lattice 12": lambda d: generate_unit_square(12, d),
                   "unstructured": lambda d: unstructured_mesh(7, rng, d)}[mesh]
        m, data, u = _mixed_problem(factory, 1, rng)
        sp = build_rt_space(m)
        monkeypatch.setattr(flux_module, "_STACK_ENTRIES", entries)
        batches = patch_batches(sp, data)
        stacks = patch_stacks_loop(sp, data, entries)
        assert len(batches) == len(stacks)
        layouts = {(s["nf"], len(s["patch"]) // len(s["vertices"]), s["mean"]) for s in stacks}
        assert (len(stacks) > len(layouts)) == split
        coef, operators = np.zeros(sp.total_dofs), {}
        for batch, stack in zip(batches, stacks):
            for key, want in stack.items():
                got = getattr(batch, key)
                if isinstance(want, np.ndarray):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), key
                else:
                    assert type(got) is type(want), key
                assert np.array_equal(got, want), key
            np.add.at(coef, *patch_flux(sp, flux_module.PatchBatch(**stack), u, data, operators))
        assert np.array_equal(reconstruct_flux(u, data, sp).coefficients, coef)


class TestGroupedSolve:
    """Layouts of repeated patch systems solved once per distinct system and
    flux, against the direct condensation of every system."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the systems and right-hand-side columns of every ``saddle_solve`` call."""
        calls, solve = [], linalg_module.saddle_solve

        def spy(M, B, f, *args):
            calls.append((len(M), f.shape[-1]))
            return solve(M, B, f, *args)

        monkeypatch.setattr(linalg_module, "saddle_solve", spy)
        return calls

    @staticmethod
    def _lattice(n, case=1):
        rng = np.random.default_rng(7)
        m, data, u = _mixed_problem(lambda d: generate_unit_square(n, d), case, rng)
        return m, data, u, build_rt_space(m)

    @staticmethod
    def _layouts(batches):
        """(patches, distinct systems, grouped) per layout ``(nf, t, mean)``."""
        out = {}
        for b in batches:
            key = (b.nf, len(b.tris) // len(b.vertices), b.mean)
            P, R, _ = out.get(key, (0, 0, None))
            out[key] = (P + len(b.vertices), max(R, int(b.system.max()) + 1), b.new is not None)
        return out

    def test_lattice_stacks_match_saddle_solve(self, monkeypatch):
        m, data, u, sp = self._lattice(64)
        batches = patch_batches(sp, data)
        calls = self._spy(monkeypatch)
        operators = {}
        got = [patch_flux(sp, b, u, data, operators) for b in batches]
        monkeypatch.undo()
        layouts = self._layouts(batches)
        grouped = {(nf, t, mean): R for (nf, t, mean), (P, R, g) in layouts.items() if g}
        for (nf, t, mean), (P, R, g) in layouts.items():
            assert g == (R * (nf + 3 * t) <= P)
        # one call per directly solved stack, with one column each, and one per
        # grouped layout, on its R distinct systems with the nf + 3t unit columns
        direct = [(len(b.vertices), 1) for b in batches if b.new is None]
        assert sorted(calls) == sorted(direct + [(R, nf + 3 * t) for (nf, t, _), R in grouped.items()])
        # the 3969 interior patches (14 stacks) make one operator build, on one system
        assert [c for c in calls if c[1] == 42] == [(1, 42)]
        assert layouts[24, 6, True][:2] == (3969, 1)
        assert sum(grouped.values()) <= 9
        for batch, (dofs, vals) in zip(batches, got):
            ref_dofs, ref = patch_flux(sp, dataclasses.replace(batch, new=None), u, data, {})
            assert np.array_equal(dofs, ref_dofs)
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("entry", ["mass diagonal", "mass off-diagonal", "divmom"])
    def test_perturbed_triangle_is_not_shared(self, entry):
        m, data, u, sp = self._lattice(32)
        centroids = m.vertices[m.triangles].mean(axis=1)
        t = int(np.argmin(((centroids - 0.5) ** 2).sum(axis=1)))
        sp = own_shape(sp, t)
        mass, div = sp.mass[sp.shape[t]], sp.divmom[sp.shape[t]]  # views of t's rows
        if entry == "mass diagonal":
            mass[3, 3] *= 1.0 + 1e-9
        elif entry == "mass off-diagonal":
            mass[3, 4] = mass[4, 3] = mass[3, 4] * (1.0 + 1e-9) + 1e-12
        else:
            div[0, np.flatnonzero(div[0])[0]] *= 1.0 + 1e-9
        batches = patch_batches(sp, data)
        # the patches of t's vertices are systems of their own
        for b in batches:
            mine = np.isin(b.vertices, m.triangles[t])
            assert not np.isin(b.system[mine], b.system[~mine]).any()
            assert len(np.unique(b.system[mine])) == mine.sum()
        assert any(b.new is not None and np.isin(b.vertices, m.triangles[t]).any() for b in batches)
        coef = reconstruct_flux(u, data, sp).coefficients
        ref = np.zeros(sp.total_dofs)
        for b in batches:
            np.add.at(ref, *patch_flux(sp, dataclasses.replace(b, new=None), u, data, {}))
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_unstructured_mesh_falls_back(self, monkeypatch):
        rng = np.random.default_rng(2)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(16, rng, d), 1, rng)
        sp = build_rt_space(m)
        batches = patch_batches(sp, data)
        # every triangle and every patch system is distinct, so every stack is solved directly
        assert len(set(triangle_bytes(sp))) == m.n_triangles
        assert sum(R for _, R, _ in self._layouts(batches).values()) == m.n_vertices
        assert all(b.new is None for b in batches)
        calls = self._spy(monkeypatch)
        coef = reconstruct_flux(u, data, sp).coefficients
        assert calls == [(len(b.vertices), 1) for b in batches]
        # bitwise the solve of every stack's own assembled systems
        ref = np.zeros(sp.total_dofs)
        for b in batches:
            M, B, f, g, c = assemble_patch_system(sp, b, u, data)
            assert len(M) == len(b.vertices)
            x = linalg_module.saddle_solve(M, B, f[..., None], g[..., None], c)[..., 0]
            fixed = b.rows < 0
            np.add.at(ref, np.concatenate([b.dofs.ravel(), sp.tri_dofs[b.tris][fixed]]),
                      np.concatenate([x.ravel(), b.prescribed[fixed]]))
        assert np.array_equal(coef, ref)

    @pytest.mark.parametrize("n", [16, 32])
    def test_singular_grouped_system_names_vertex(self, monkeypatch, n):
        # test_singular_patch_system_names_vertex on a lattice whose layouts group
        m, data, u = TestPatchFlux()._linear_setup(n)
        centroids = m.vertices[m.triangles].mean(axis=1)
        t = int(np.argmin(((centroids - 0.5) ** 2).sum(axis=1)))
        broken = own_shape(build_rt_space(m), t)
        broken.mass[broken.shape[t]] = 0.0
        broken.divmom[broken.shape[t]] = 0.0
        calls = self._spy(monkeypatch)
        with pytest.raises(EquilibrationError, match="singular patch system at vertex") as exc:
            reconstruct_flux(u, data, broken)
        vertex = int(str(exc.value).split("vertex ")[1].split(":")[0])
        assert vertex in m.triangles[t]
        # The failing call (the last on more than one system; it then solves
        # one system at a time) was grouped: the systems its stack meets first,
        # with the 42 unit columns of an interior lattice patch.
        (stack,) = [b for b in patch_batches(broken, data) if vertex in b.vertices]
        last = max(i for i, (R, _) in enumerate(calls) if R > 1)
        R, cols = calls[last]
        assert cols == 42 and R == len(stack.new)
        assert set(calls[last + 1:]) == {(1, 42)}


class TestSystemKey:
    """Each patch system assembled and factored once per distinct key, the key
    computed from the triangle classes before assembly."""

    def test_representatives_equal_members_bitwise(self):
        m, data, u, sp = TestGroupedSolve._lattice(64)
        reps = {}
        for b in patch_batches(sp, data):
            M, B, f, g, c = assemble_patch_system(sp, b, u, data)
            full = assemble_patch_system(sp, dataclasses.replace(b, new=None), u, data)
            assert np.array_equal(f, full[2]) and np.array_equal(g, full[3])
            if b.new is None:
                continue
            blocks = [(a, full[i]) for i, a in ((0, M), (1, B), (4, c)) if a is not None]
            layout = reps.setdefault((b.nf, len(b.tris) // len(b.vertices), b.mean), [])
            layout += [[a[r] for a, _ in blocks] for r in range(len(b.new))]
            for p, s in enumerate(b.system):
                for rep, (_, own) in zip(layout[s], blocks):
                    assert np.array_equal(rep.view(np.uint64), own[p].view(np.uint64))
        assert sum(len(v) for v in reps.values()) <= 9

    def test_one_ulp_vertex_gets_own_systems(self):
        lattice = generate_unit_square(32, dirichlet_x01)
        v = int(np.argmin(np.abs(lattice.vertices - [11 / 32, 17 / 32]).sum(axis=1)))
        vertices = lattice.vertices.copy()
        vertices[v, 0] = np.nextafter(vertices[v, 0], 1.0)
        markers = {tuple(int(a) for a in lattice.edge_vertices[e]): lattice.edge_markers[e]
                   for e in lattice.boundary_edge_ids}
        m = Mesh(vertices, lattice.triangles, edge_markers=markers)
        rng = np.random.default_rng(4)
        m, data, u = _mixed_problem(lambda d: m, 1, rng)
        sp = build_rt_space(m)
        ring = np.flatnonzero((m.triangles == v).any(axis=1))
        # the ring triangles are shapes of their own
        assert len(np.unique(sp.shape[ring])) == len(ring)
        assert not np.isin(sp.shape[ring], np.delete(sp.shape, ring)).any()
        tri = triangle_bytes(sp)
        assert not {tri[t] for t in ring} & {tri[t] for t in np.delete(np.arange(len(tri)), ring)}
        touched = np.unique(m.triangles[ring])
        batches = patch_batches(sp, data)
        assert any(b.new is not None for b in batches)
        for b in batches:
            mine = np.isin(b.vertices, touched)
            assert not np.isin(b.system[mine], b.system[~mine]).any()
            assert len(np.unique(b.system[mine])) == mine.sum()
        coef = reconstruct_flux(u, data, sp).coefficients
        ref = reconstruct_flux_loop(u, data, sp)
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_dyadic_lattice_matches_loop(self):
        m, data, u, sp = TestGroupedSolve._lattice(48)
        coef = reconstruct_flux(u, data, sp).coefficients
        ref = reconstruct_flux_loop(u, data, sp)
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()


class TestReconstructFlux:
    def test_builds_no_vertex_patch_objects(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-vertex patch objects built")

        rng = np.random.default_rng(11)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(5, rng, d), 1, rng)
        sp = build_rt_space(m)
        ref = reconstruct_flux_loop(u, data, sp)
        monkeypatch.setattr(mesh_module, "vertex_patches", boom)
        monkeypatch.setattr(mesh_module, "VertexPatch", boom)
        coef = reconstruct_flux(u, data, sp).coefficients
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_linear_solution_gives_exact_flux(self):
        m = generate_unit_square(4)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        sp = fl.space
        expect = interpolate_constant(sp, (-2.0, -3.0))
        assert np.abs(fl.coefficients - expect).max() < 1e-11

    def test_equilibration_identities(self):
        m = generate_unit_square(16)
        dom = DomainSpec(
            f=lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        fscale = 1.0 + 2 * np.pi**2
        assert flux_divergence_defect(fl, data).max() <= 1e-9 * fscale
        assert interior_jump(fl) <= 1e-10

    def test_neumann_trace_and_zero_edges(self):
        m = generate_unit_square(8, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        assert neumann_trace_defect(fl, data) <= 1e-9
        for e in data.neumann_edges:
            assert abs(fl.coefficients[2 * int(e)]) < 1e-12
            assert abs(fl.coefficients[2 * int(e) + 1]) < 1e-12

    def test_raw_gradient_divergence_defect(self):
        # minus the numerical flux has zero elementwise divergence, so the
        # defect equals the elementwise norm of the projected forcing
        m = generate_unit_square(4, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        coef = np.zeros(sp.total_dofs)
        fl = FluxField(sp, coef)
        defect = flux_divergence_defect(fl, data)
        expect = np.sqrt(m.areas)  # ||1||_K for f == 1
        assert defect == pytest.approx(expect, rel=1e-12)


class TestNormalTrace:
    def test_constant_flux_trace(self):
        m = generate_unit_square(2)
        sp = build_rt_space(m)
        fl = FluxField(sp, interpolate_constant(sp, (0.4, 1.3)))
        q = clip_curve_to_mesh(np.array([[0.1, 0.4], [0.9, 0.4]]), m, 3)
        # horizontal curve: normal (0, -1) by orientation
        vals = flux_normal_trace(fl, q)
        assert np.abs(vals + 1.3).max() < 1e-12

    def test_linear_solution_trace_on_16gon(self):
        m = generate_unit_square(6)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        loop = closed_loop(regular_polygon((0.5, 0.5), 0.21, 16))
        q = clip_curve_to_mesh(loop, m, 4)
        vals = flux_normal_trace(fl, q)
        expect = -(2 * q.normals[:, 0] + 3 * q.normals[:, 1])
        assert np.abs(vals - expect).max() < 1e-11

    def test_trace_single_valued_across_edges(self):
        m = generate_unit_square(5, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        assert interior_jump(fl) <= 1e-10

    def test_single_triangle_all_neumann_corner(self):
        # Dirichlet on x = 0 only: the (1, 0) corner patch is one triangle
        # with both incident boundary edges Neumann and a mean constraint
        dirichlet = lambda x, y: abs(x) < 1e-12
        m = generate_unit_square(4, dirichlet)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        assert flux_divergence_defect(fl, data).max() <= 1e-9 * 2
        assert neumann_trace_defect(fl, data) <= 1e-9
        assert interior_jump(fl) <= 1e-10


class TestCertificates:
    @pytest.mark.parametrize("t", [0, -1])
    def test_match_edge_loops_on_broken_flux(self, t):
        # Random DOFs on one triangle whose DOF transform is perturbed: the
        # normal trace then jumps only across that triangle's edges, and its
        # Neumann edge carries the largest trace defect, so an edge the
        # batched evaluation skips, or nodes paired with the wrong datum
        # values, show up as a wrong maximum.
        m = generate_unit_square(8, dirichlet_x01)
        g = lambda x, y: 2.0 - 3.0 * x
        data = project_data(DomainSpec(dirichlet=dirichlet_x01, g_neumann=g), m)
        sp = own_shape(build_rt_space(m), t)
        rng = np.random.default_rng(5)
        sp.transform[sp.shape[t]] += 0.1 * rng.standard_normal((8, 8))
        coef = np.zeros(sp.total_dofs)
        coef[sp.tri_dofs[t]] = rng.standard_normal(8)
        fl = FluxField(sp, coef)
        jump, neu = interior_jump(fl), neumann_trace_defect(fl, data)
        assert jump > 1e-3 and neu > 1e-3
        assert jump == pytest.approx(interior_jump_loop(fl), rel=1e-12)
        assert neu == pytest.approx(neumann_trace_defect_loop(fl, data), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_certify_passes_equilibrated_flux(self, n, case, seed):
        # certify passes the equilibrated flux of a mixed problem on an
        # unstructured mesh and refuses random coefficients.
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        fl = reconstruct_flux(u, data)
        certify(fl, data, "mixed")
        with pytest.raises(EquilibrationError, match="^random: divergence defect"):
            certify(FluxField(fl.space, rng.standard_normal(fl.space.total_dofs)), data, "random")
