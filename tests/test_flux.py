import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import (
    RTMonomialSpace,
    compatibility_residual_loop,
    eta_zero_quadrature,
    interior_jump_loop,
    neumann_trace_defect_loop,
    p2_corner_stiffness,
    patch_flux_loop,
    reconstruct_flux_loop,
    saddle_solve_loop,
    unstructured_mesh,
    vertex_patches_loop,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux import flux as flux_module
from eqflux import mesh as mesh_module
from eqflux.estimator import eta_zero
from eqflux.fem import ScalarField, project_data, solve_poisson
from eqflux.flux import (
    EquilibrationError,
    OrthogonalityError,
    FluxField,
    PatchStack,
    assemble_patch_system,
    build_rt_space,
    certify,
    corner_fluxes,
    divergence_moments,
    flux_divergence_defect,
    interior_jump,
    neumann_trace_defect,
    particular_flux,
    patch_fans,
    patch_flux,
    reconstruct_flux,
)
from eqflux.geometry import (
    DomainSpec,
    clip_curve_to_mesh,
    closed_loop,
    regular_polygon,
)
from eqflux.linalg import dense_lu_solve
from eqflux.mesh import (
    DIRICHLET,
    NEUMANN_OUTER,
    Mesh,
    MeshError,
    generate_unit_square,
    read_mesh,
    vertex_patches,
    write_mesh,
)


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


def global_corners(space, sigma, phi):
    """Each corner's patch flux in global DOFs ``(T, 3, 8)``, from the reference DOFs of its
    particular flux and the P2 nodal values of its curl correction (:func:`corner_fluxes`)."""
    ref = sigma + np.einsum("mjk,tmk->tmj", flux_module._CURL_REF, phi)
    return np.stack([space.to_global(ref[:, m]) for m in range(3)], axis=1)


def corners(u, data, space):
    return global_corners(space, *corner_fluxes(u, data, space))


def transforms(space):
    """The DOF transforms ``D`` ``(T, 8, 8)`` (reference DOFs = D @ global DOFs), column by
    column from :meth:`RTSpace.to_reference`."""
    T = space.mesh.n_triangles
    return np.stack([space.to_reference(np.tile(e, (T, 1))) for e in np.eye(8)], axis=2)


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
        # The Piola-mapped reference basis against per-element dual bases on
        # scaled monomials, on lattices and meshes with random diagonals and
        # jitter: the element matrices that the reference tensors, weighted by
        # the metric or by J, give through the DOF transforms.
        rng = np.random.default_rng(seed)
        m = generate_unit_square(n) if lattice else unstructured_mesh(n, rng, None)
        sp, oracle = build_rt_space(m), RTMonomialSpace(m)
        close = lambda a, b: np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert np.array_equal(sp.tri_dofs, oracle.tri_dofs)
        D = transforms(sp)
        mass = np.einsum("tp,pij->tij", sp.metric, flux_module._R)
        assert close(D.transpose(0, 2, 1) @ mass @ D, oracle.mass)
        assert close(flux_module._R_D @ D, oracle.divmom)
        vecmom = np.einsum("tac,mkc,tkj->tmja", m.jacobians, flux_module._R_V, D)
        assert close(vecmom, oracle.vecmom)
        coef = rng.standard_normal(sp.total_dofs)
        tris = rng.integers(0, m.n_triangles, 40)
        pts = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), 40), m.vertices[m.triangles[tris]])
        fl = FluxField(sp, coef)
        assert close(fl.eval_at(pts, tris), oracle.eval_at(coef, pts, tris))
        assert close(fl.divergence_vertex_values(), oracle.divergence_vertex_values(coef))

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


def patch_coefficients(space, sigma, fans, a):
    """The global RT coefficients of the patch flux of vertex ``a``, from its corners' DOFs."""
    coef = np.zeros(space.total_dofs)
    for c in fans.order[a, :fans.size[a]]:
        coef[space.tri_dofs[c // 3]] = sigma[c // 3, c % 3]
    return coef


def split_solve(solve, chunks):
    """A stand-in for ``flux.patch_flux`` that solves each stack in the parts of its patch
    positions that ``chunks(P)`` lists, each part a stack of its own; records the stack sizes."""
    sizes = []

    def split(stack, phi):
        sizes.append(len(stack.vertices))
        for part in chunks(len(stack.vertices)):
            solve(PatchStack(**{f.name: getattr(stack, f.name)[part]
                                for f in dataclasses.fields(stack)}), phi)

    return split, sizes


def edited_stacks(edit):
    """A stand-in for ``flux.assemble_patch_system`` that applies ``edit`` to each stack."""
    assemble = flux_module.assemble_patch_system

    def edited(*args):
        stacks = assemble(*args)
        for stack in stacks:
            edit(stack)
        return stacks

    return edited


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
        a = patch.vertex
        coef = patch_coefficients(sp, corners(u, data, sp), patch_fans(m, data), a)
        # sigma^a = -psi_a * grad(u): evaluate at interior points of the patch
        fl = FluxField(sp, coef)
        for t in patch.triangles:
            c = m.vertices[m.triangles[t]].mean(axis=0)
            lam = m.lam_coeffs[t]
            loc = int(np.where(m.triangles[t] == a)[0][0])
            psi = lam[loc, 0] + lam[loc, 1] * c[0] + lam[loc, 2] * c[1]
            got = fl.eval_at(c[None, :], [t])[0]
            assert got == pytest.approx([-psi * 2.0, -psi * 3.0], abs=1e-11)

    def test_patch_support(self):
        # Each corner's flux has both moments of its zero edge (local edge m + 1) exactly 0,
        # so a patch flux has no normal trace on the patch boundary but on its psi edges.
        m, data, u = self._linear_setup()
        sigma = corners(u, data, build_rt_space(m))
        k = 2 * ((np.arange(3) + 1) % 3)
        assert not sigma[:, np.arange(3), k].any() and not sigma[:, np.arange(3), k + 1].any()

    def test_interior_patch_compatibility(self):
        m = generate_unit_square(6, dirichlet_x01)
        dom = DomainSpec(f=0.0, dirichlet=dirichlet_x01,
                         g_dirichlet=lambda x, y: x * x - y * y + x)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fans = patch_fans(m, data)
        _, resid, scale = divergence_moments(m, fans, u, data)
        interior = fans.closed
        assert interior.sum() == 25
        assert (np.abs(resid[interior]) <= 1e-10 * np.maximum(scale[interior], 1e-30) + 1e-14).all()

    def test_dirichlet_corner_patch_unconstrained(self):
        m, data, u = self._linear_setup()
        fans = patch_fans(m, data)  # the corner (0, 0): both psi edges Dirichlet
        assert not fans.closed[0] and not fans.neumann[0].any()
        corner_fluxes(u, data, build_rt_space(m))  # solvable

    def test_neumann_interior_vertex_constrained(self):
        m = generate_unit_square(6, dirichlet_x01)
        dom = DomainSpec(f=1.0, dirichlet=dirichlet_x01)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        mid_bottom = 3  # (0.5, 0): interior point of the Neumann side
        fans = patch_fans(m, data)
        # both psi edges Neumann: the patch data must be compatible, and its mean is removed
        assert not fans.closed[mid_bottom] and fans.neumann[mid_bottom].all()
        assert sorted(fans.psi[mid_bottom]) == vertex_patches_loop(m)[mid_bottom][3]
        got = patch_coefficients(sp, corners(u, data, sp), fans, mid_bottom)
        ref = patch_flux_loop(RTMonomialSpace(m), vertex_patches_loop(m)[mid_bottom], u, data)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_galerkin_input_raises(self):
        m, data, u = self._linear_setup()
        bad = ScalarField(m, u.nodal_values + np.sin(np.arange(m.n_vertices)))
        with pytest.raises(OrthogonalityError):
            reconstruct_flux(bad, data)

    def test_batch_of_one_matches_full_batches(self, monkeypatch):
        # Every patch system solved as a stack of one gives the flux of the full stacks.
        m = generate_unit_square(5, dirichlet_x01)
        data = project_data(DomainSpec(f=1.0, dirichlet=dirichlet_x01), m)
        u = solve_poisson(m, data)
        sp = build_rt_space(m)
        full = reconstruct_flux(u, data, sp).coefficients
        split, sizes = split_solve(flux_module.patch_flux, lambda P: [[p] for p in range(P)])
        monkeypatch.setattr(flux_module, "patch_flux", split)
        coef = reconstruct_flux(u, data, sp).coefficients
        assert sum(sizes) == m.n_vertices and max(sizes) > 1
        assert np.abs(coef - full).max() <= 1e-12 * np.abs(full).max()

    def test_singular_patch_system_names_vertex(self, monkeypatch):
        # The patch of the centre vertex (2,2) of triangle 11, (1,1)-(2,2)-(1,2), with the row
        # and column of its vertex unknown zeroed: its curl system has no pivot there.
        m, data, u = self._linear_setup()
        a = int(m.triangles[11, 1])
        assert patch_fans(m, data).closed[a] and m.vertices[a].tolist() == [0.5, 0.5]

        def edit(stack):
            p = np.flatnonzero(stack.vertices == a)
            stack.A[p, 0, :] = stack.A[p, :, 0] = 0.0

        monkeypatch.setattr(flux_module, "assemble_patch_system", edited_stacks(edit))
        with pytest.raises(EquilibrationError,
                           match=f"^singular patch system at vertex {a}: squared Cholesky pivot"):
            reconstruct_flux(u, data)

    def test_degenerate_triangle_fails_at_mesh(self):
        # The interior divergence block of the particular flux is the fixed reference block
        # _R_D[1:, 6:] = −I; a triangle without a valid Piola map never reaches it: a zero-area
        # or an inverted triangle is refused when the mesh is built.
        assert np.abs(flux_module._R_D[1:, 6:] + np.eye(2)).max() <= 1e-15
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match="^triangle 1 has non-positive area 0.000e"):
            Mesh(v, np.array([[0, 1, 2], [0, 1, 3]]))
        with pytest.raises(MeshError, match="^triangle 0 has non-positive area -5.000e-01"):
            Mesh(v, np.array([[0, 2, 1]]))

    def test_zero_mass_corner_names_vertex(self, monkeypatch):
        # A one-triangle corner patch with two Dirichlet psi edges: its three P2 unknowns live on
        # that triangle alone, so a zeroed stiffness leaves its curl system without a pivot.
        m, data, u = self._linear_setup()
        fans = patch_fans(m, data)
        a = int(np.flatnonzero(fans.size == 1)[-1])
        assert not fans.neumann[a].any()

        def edit(stack):
            stack.A[stack.vertices == a] = 0.0

        monkeypatch.setattr(flux_module, "assemble_patch_system", edited_stacks(edit))
        with pytest.raises(EquilibrationError,
                           match=f"singular patch system at vertex {a}: squared Cholesky pivot"):
            reconstruct_flux(u, data)

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

    def test_bow_tie_is_not_one_fan(self):
        # Two triangles that share only vertex 0: its patch has two boundary starts.
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        markers = {e: NEUMANN_OUTER for e in [(0, 1), (0, 2), (0, 3), (0, 4)]}
        m = Mesh(v, np.array([[0, 1, 2], [0, 3, 4]]),
                 edge_markers=markers | {(1, 2): DIRICHLET, (3, 4): DIRICHLET})
        data = project_data(DomainSpec(f=1.0), m)
        u = solve_poisson(m, data)
        with pytest.raises(EquilibrationError, match="^patch 0: its triangles are not one fan"):
            reconstruct_flux(u, data)


def _problem(m, dirichlet, rng):
    """Data and Galerkin solution on mesh m with a random forcing and boundary data."""
    c = rng.uniform(-1.0, 1.0, size=4)
    dom = DomainSpec(
        f=lambda x, y: c[0] + c[1] * np.sin(3 * x) * y,
        dirichlet=dirichlet,
        g_dirichlet=lambda x, y: c[2] * x * y,
        g_neumann=lambda x, y, nx, ny: c[3] * nx + x * ny,
    )
    data = project_data(dom, m)
    return m, data, solve_poisson(m, data)


def _mixed_problem(mesh_factory, case, rng):
    """Mesh, data and Galerkin solution of one of three boundary settings."""
    dirichlet = (None, dirichlet_x01, lambda x, y: abs(x) < 1e-12)[case]
    return _problem(mesh_factory(dirichlet), dirichlet, rng)


class TestUnstructuredPatches:
    """Equilibration on jiggled meshes with random diagonals, read back through the JSON mesh
    format, against the vertex-by-vertex oracle."""

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
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
        assert np.abs(fl.coefficients - ref).max() <= 1e-12 * np.abs(ref).max()

        scale = 1.0 + np.abs(data.f_proj).max() + np.abs(data.gn_proj).max(initial=0.0)
        assert flux_divergence_defect(fl, data).max() <= 1e-9 * scale
        assert interior_jump(fl) <= 1e-9 * scale
        assert neumann_trace_defect(fl, data) <= 1e-9 * scale

        fans = patch_fans(m, data)
        _, resid, bound = divergence_moments(m, fans, u, data)
        loop = [compatibility_residual_loop(sp, q, u, data) for q in vertex_patches_loop(m)]
        assert bound == pytest.approx([b for _, b in loop], rel=1e-12)
        mean = fans.closed | fans.neumann.all(axis=1)
        assert (np.abs(resid[mean]) <= 1e-10 * bound[mean] + 1e-14).all()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_mean_value_stacks_have_balanced_divergence(self, n, case, seed):
        # The divergence moments that the particular flux meets are r less μ |K| / 3 on a
        # mean-value patch, μ its net divergence less its prescribed outflow over its area, so
        # that they sum to that outflow; on every other patch they are r itself.  The field is a
        # little off Galerkin orthogonality (inside the compatibility bound), so that μ is not
        # round-off.
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        u = ScalarField(m, u.nodal_values + 1e-13 * rng.standard_normal(m.n_vertices))
        sp = build_rt_space(m)
        fans = patch_fans(m, data)
        r, _, _ = divergence_moments(m, fans, u, data)
        sigma = global_corners(sp, particular_flux(sp, fans, u, data), np.zeros(r.shape))
        got = (RTMonomialSpace(m).divmom[:, None] @ sigma[..., None])[..., 0]  # (T, 3, 3)
        owner, outflow = m.triangles.ravel(), fans.outflux.sum(axis=1)
        mean = fans.closed | fans.neumann.all(axis=1)
        mu = np.where(mean, np.bincount(owner, r.sum(axis=2).ravel(), m.n_vertices) - outflow, 0.0)
        mu /= np.bincount(owner, np.repeat(m.areas, 3), m.n_vertices)
        want = r - (mu[m.triangles] * m.areas[:, None] / 3.0)[..., None]
        scale = np.abs(r).max()
        assert mean.any()
        assert np.abs(got - want).max() <= 1e-12 * scale
        net = np.bincount(owner, got.sum(axis=2).ravel(), m.n_vertices)
        assert (np.abs(net - outflow)[mean] <= 1e-12 * scale).all()


class TestReferenceTensors:
    """Every element operator is a fixed reference tensor weighted per triangle by its metric,
    by J or by nothing: the flux, eta_0 and the corner curl systems against independent
    oracles on jittered meshes, in the three boundary settings."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 5), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_against_independent_oracles(self, n, case, seed):
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        fl = reconstruct_flux(u, data, sp)
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
        assert np.abs(fl.coefficients - ref).max() <= 1e-12 * np.abs(ref).max()
        want = eta_zero_quadrature(fl, u)
        assert abs(eta_zero(fl, u) - want) <= 1e-12 * want
        # |curl phi| = |grad phi|: each corner's curl system is its P2 stiffness matrix.
        want = p2_corner_stiffness(m)
        A_c = (sp.metric @ flux_module._K).reshape(want.shape)
        assert np.abs(A_c - want).max() <= 1e-12 * np.abs(want).max()


class TestFans:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_fans_match_vertex_patches(self, n, case, seed):
        # Each fan holds its patch's triangles once, counterclockwise: every corner's out-edge
        # is the next corner's in-edge, and an open fan runs from one psi edge to the other.
        rng = np.random.default_rng(seed)
        m, data, _ = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        fans = patch_fans(m, data)
        assert fans.order.shape == (m.n_vertices, fans.size.max())
        for a, tris, zero, psi, interior in vertex_patches_loop(m):
            t = fans.size[a]
            c = fans.order[a, :t]
            K, loc = c // 3, c % 3
            assert (fans.order[a, t:] == -1).all()
            assert sorted(K.tolist()) == tris and (m.triangles[K, loc] == a).all()
            e_in, e_out = m.triangle_edges[K, loc], m.triangle_edges[K, (loc + 2) % 3]
            assert (e_in[1:] == e_out[:-1]).all()
            assert sorted(set(m.triangle_edges[K, (loc + 1) % 3].tolist())) == zero
            assert fans.closed[a] == interior
            if interior:
                assert e_in[0] == e_out[-1] and fans.psi[a].tolist() == [-1, -1]
                assert not fans.neumann[a].any()
            else:
                assert fans.psi[a].tolist() == [e_in[0], e_out[-1]] and sorted(fans.psi[a]) == psi
                neumann = [int(e) in data.neumann_map() for e in fans.psi[a]]
                assert fans.neumann[a].tolist() == neumann
            assert (fans.moments[a][~fans.neumann[a]] == 0.0).all()


class TestPatchSolve:
    """Each patch flux, a swept particular flux plus a P2 curl correction, against the dense
    solve of its saddle-point system."""

    # Dirichlet sides, and whether the first and last psi edge of the corner (1, 0) is Neumann:
    # its fan runs from the right side (x = 1) to the bottom (y = 0).
    CORNERS = {
        "dirichlet-dirichlet": (None, [False, False]),
        "dirichlet-neumann": (lambda x, y: abs(x - 1) < 1e-12, [False, True]),
        "neumann-dirichlet": (lambda x, y: abs(y) < 1e-12, [True, False]),
        "neumann-neumann": (lambda x, y: abs(x) < 1e-12, [True, True]),
    }

    @staticmethod
    def _check(m, data, u, vertices):
        sp, oracle = build_rt_space(m), RTMonomialSpace(m)
        sigma, fans, loop = corners(u, data, sp), patch_fans(m, data), vertex_patches_loop(m)
        for a in vertices:
            got = patch_coefficients(sp, sigma, fans, a)
            ref = patch_flux_loop(oracle, loop[a], u, data)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("case", list(CORNERS))
    def test_corner_patch_matches_saddle_solve(self, case):
        dirichlet, neumann = self.CORNERS[case]
        m, data, u = _problem(generate_unit_square(4, dirichlet), dirichlet,
                              np.random.default_rng(3))
        a = int(np.argmin(np.abs(m.vertices - [1.0, 0.0]).sum(axis=1)))
        fans = patch_fans(m, data)
        assert fans.size[a] == 1 and fans.neumann[a].tolist() == neumann
        assert m.vertices[m.edge_vertices[fans.psi[a]]].mean(axis=1).tolist() \
            == [[1.0, 0.125], [0.875, 0.0]]
        self._check(m, data, u, [a])

    def test_interior_patch_matches_saddle_solve(self):
        rng = np.random.default_rng(5)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(5, rng, d), 1, rng)
        interior = np.flatnonzero(patch_fans(m, data).closed)
        assert len(interior) == 16
        self._check(m, data, u, interior)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_every_patch_matches_saddle_solve(self, n, case, seed):
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        self._check(m, data, u, range(m.n_vertices))

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_mean_value_patches_absorb_residual(self, case):
        # A field a little off Galerkin orthogonality, inside the compatibility bound: the
        # mean-value constraint of the saddle-point problem takes the residual up, and so does
        # the shift μ |K| / 3 (without it the patch fluxes move by about 2e-9).
        rng = np.random.default_rng(8)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(5, rng, d), case, rng)
        u = ScalarField(m, u.nodal_values + 1e-11 * rng.standard_normal(m.n_vertices))
        fans = patch_fans(m, data)
        _, resid, scale = divergence_moments(m, fans, u, data)
        assert (np.abs(resid) > 1e-12 * scale)[fans.closed | fans.neumann.all(axis=1)].all()
        self._check(m, data, u, range(m.n_vertices))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_particular_flux_is_equilibrated(self, n, case, seed):
        # The sweep alone, before any correction, meets the three identities.
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        coef = np.zeros(sp.total_dofs)
        sigma = particular_flux(sp, patch_fans(m, data), u, data)
        coef[sp.tri_dofs] = sp.to_global(sigma.sum(axis=1))
        fl = FluxField(sp, coef)
        scale = 1.0 + np.abs(data.f_proj).max() + np.abs(data.gn_proj).max(initial=0.0)
        assert flux_divergence_defect(fl, data).max() <= 1e-9 * scale
        assert interior_jump(fl) <= 1e-9 * scale
        assert neumann_trace_defect(fl, data) <= 1e-9 * scale

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
    def test_curl_matrices_are_p2_curls(self, n, seed, lattice):
        # Column k of the reference curl matrix of corner m, mapped to K's global DOFs, holds
        # the RT1 DOFs of (∂_y phi, −∂_x phi) on K, phi the P2 function that is 1 at the
        # corner's vertex (k = 0), in-edge midpoint (1) or out-edge midpoint (2) and 0 at K's
        # other nodes: the monomial oracle evaluates it.
        rng = np.random.default_rng(seed)
        m = generate_unit_square(n) if lattice else unstructured_mesh(n, rng, None)
        sp, oracle = build_rt_space(m), RTMonomialSpace(m)
        C = np.stack([sp.to_global(np.tile(c, (m.n_triangles, 1)))
                      for c in flux_module._CURL_REF.transpose(0, 2, 1).reshape(9, 8)], axis=2)
        for K in range(m.n_triangles):
            bary = rng.dirichlet(np.ones(3), 5)
            pts = bary @ m.vertices[m.triangles[K]]
            g = m.lam_grads[K]
            for loc in range(3):
                j, i = (loc + 1) % 3, (loc + 2) % 3
                grads = [(4 * bary[:, loc, None] - 1) * g[loc],
                         4 * (bary[:, j, None] * g[loc] + bary[:, loc, None] * g[j]),
                         4 * (bary[:, i, None] * g[loc] + bary[:, loc, None] * g[i])]
                for k, grad in enumerate(grads):
                    coef = np.zeros(sp.total_dofs)
                    coef[sp.tri_dofs[K]] = C[K, :, 3 * loc + k]
                    got = oracle.eval_at(coef, pts, np.full(5, K))
                    want = np.stack([grad[:, 1], -grad[:, 0]], axis=1)
                    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
                    assert np.abs(oracle.divergence_vertex_values(coef)[K]).max() \
                        <= 1e-11 * np.abs(want).max() / m.h


class TestCondensedSolve:
    """Every stack of P2 curl systems against its dense LU solve, and the patch fluxes it gives
    against the static condensation of each patch's saddle-point system."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_lu_on_every_stack(self, n, case, seed):
        rng = np.random.default_rng(seed)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        sp = build_rt_space(m)
        fans = patch_fans(m, data)
        sigma = particular_flux(sp, fans, u, data)
        stacks = assemble_patch_system(sp, fans, sigma, u)
        # one stack per patch size, of t + 2 unknowns
        assert [s.corners.shape[1] for s in stacks] == np.unique(fans.size).tolist()
        phi = np.full((m.n_triangles, 3, 3), np.nan)
        for stack in stacks:
            t = stack.corners.shape[1]
            assert (fans.size[stack.vertices] == t).all()
            assert stack.A.shape == (len(stack.vertices), t + 2, t + 2)
            patch_flux(stack, phi)
            ref = dense_lu_solve(stack.A, stack.b)
            K, loc = np.divmod(stack.corners, 3)
            want = ref[np.arange(len(ref))[:, None, None], stack.nodes]
            assert np.abs(phi[K, loc] - want).max() <= 1e-12 * np.abs(ref).max()
        assert not np.isnan(phi).any()
        corner = global_corners(sp, sigma, phi)
        oracle = RTMonomialSpace(m)
        for a, want in saddle_solve_loop(oracle, vertex_patches_loop(m), u, data).items():
            got = patch_coefficients(sp, corner, fans, a)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_split_stacks_match_unsplit(self, monkeypatch):
        # Each stack solved in parts of at most four patches, in a random order.
        rng = np.random.default_rng(3)
        m, data, u = _mixed_problem(lambda d: generate_unit_square(8, d), 1, rng)
        sp = build_rt_space(m)
        whole = reconstruct_flux(u, data, sp).coefficients
        split, sizes = split_solve(
            flux_module.patch_flux,
            lambda P: np.array_split(rng.permutation(P), -(-P // 4)))
        monkeypatch.setattr(flux_module, "patch_flux", split)
        coef = reconstruct_flux(u, data, sp).coefficients
        assert sum(sizes) == m.n_vertices and max(sizes) > 4
        assert np.abs(coef - whole).max() <= 1e-12 * np.abs(whole).max()


class TestGroupedSolve:
    """Patches of one size solved as one stack of P2 curl systems, on lattices where most
    patches share a stack, against per-patch references."""

    @staticmethod
    def _lattice(n, case=1):
        rng = np.random.default_rng(7)
        m, data, u = _mixed_problem(lambda d: generate_unit_square(n, d), case, rng)
        return m, data, u, build_rt_space(m)

    def test_lattice_stacks_match_saddle_solve(self):
        m, data, u, sp = self._lattice(16)
        fans = patch_fans(m, data)
        stacks = assemble_patch_system(sp, fans, particular_flux(sp, fans, u, data), u)
        vertices = np.concatenate([s.vertices for s in stacks])
        assert np.array_equal(np.sort(vertices), np.arange(m.n_vertices))
        # the 225 interior patches are the stack of six-triangle patches
        (six,) = [s for s in stacks if s.corners.shape[1] == 6]
        assert len(six.vertices) == 15**2 and fans.closed[six.vertices].all()
        corner = corners(u, data, sp)
        oracle = RTMonomialSpace(m)
        for a, want in saddle_solve_loop(oracle, vertex_patches_loop(m), u, data).items():
            got = patch_coefficients(sp, corner, fans, a)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unstructured_mesh_falls_back(self):
        # A jittered mesh, where patches of one size share a stack but no two triangles share a
        # metric: the flux is the loop's.
        rng = np.random.default_rng(2)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(16, rng, d), 1, rng)
        coef = reconstruct_flux(u, data, build_rt_space(m)).coefficients
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [16, 32])
    def test_singular_grouped_system_names_vertex(self, n, monkeypatch):
        # The curl system of the centre vertex, inside the stack of all six-triangle patches,
        # with the equation and unknown of its first spoke midpoint replaced by those of its
        # second: two equal rows, so a pivot of that system alone vanishes.
        m, data, u = TestPatchFlux()._linear_setup(n)
        a = int(np.argmin(np.abs(m.vertices - 0.5).sum(axis=1)))
        sizes = []

        def edit(stack):
            p = np.flatnonzero(stack.vertices == a)
            if len(p):
                sizes.append(len(stack.vertices))
                stack.A[p, 1, :] = stack.A[p, 2, :]
                stack.A[p, :, 1] = stack.A[p, :, 2]

        monkeypatch.setattr(flux_module, "assemble_patch_system", edited_stacks(edit))
        with pytest.raises(EquilibrationError,
                           match=f"^singular patch system at vertex {a}: squared Cholesky"):
            reconstruct_flux(u, data)
        size = patch_fans(m, data).size
        assert size[a] == 6 and sizes == [(size == 6).sum()] == [(n - 1) ** 2]


class TestSystemKey:
    """Meshes where triangles of one shape sit beside others off it by round-off, against the
    vertex-by-vertex loop."""

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
        coef = reconstruct_flux(u, data, build_rt_space(m)).coefficients
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_dyadic_lattice_matches_loop(self):
        m, data, u, sp = TestGroupedSolve._lattice(48)
        coef = reconstruct_flux(u, data, sp).coefficients
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
        assert np.abs(coef - ref).max() <= 1e-12 * np.abs(ref).max()


class TestReconstructFlux:
    def test_builds_no_vertex_patch_objects(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-vertex patch objects built")

        rng = np.random.default_rng(11)
        m, data, u = _mixed_problem(lambda d: unstructured_mesh(5, rng, d), 1, rng)
        sp = build_rt_space(m)
        ref = reconstruct_flux_loop(u, data, RTMonomialSpace(m))
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
        vals = np.sum(fl.eval_at(q.nodes, q.node_tris) * q.normals, axis=1)
        assert np.abs(vals + 1.3).max() < 1e-12

    def test_linear_solution_trace_on_16gon(self):
        m = generate_unit_square(6)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        loop = closed_loop(regular_polygon((0.5, 0.5), 0.21, 16))
        q = clip_curve_to_mesh(loop, m, 4)
        vals = np.sum(fl.eval_at(q.nodes, q.node_tris) * q.normals, axis=1)
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
        # Random DOFs on one triangle whose reference DOFs are perturbed: the
        # normal trace then jumps only across that triangle's edges, and its
        # Neumann edge carries the largest trace defect, so an edge the
        # batched evaluation skips, or nodes paired with the wrong datum
        # values, show up as a wrong maximum.
        m = generate_unit_square(8, dirichlet_x01)
        g = lambda x, y: 2.0 - 3.0 * x
        data = project_data(DomainSpec(dirichlet=dirichlet_x01, g_neumann=g), m)
        sp = build_rt_space(m)
        rng = np.random.default_rng(5)
        P = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
        t %= m.n_triangles

        class Broken(FluxField):
            def reference_dofs(self, tris=slice(None)):
                d = super().reference_dofs(tris)
                hit = np.arange(m.n_triangles)[tris] == t
                d[hit] = d[hit] @ P.T
                return d

        coef = np.zeros(sp.total_dofs)
        coef[sp.tri_dofs[t]] = rng.standard_normal(8)
        fl = Broken(sp, coef)
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
