"""Shared independent oracles for the test suite.

The quadrature oracles deliberately avoid the library's own quadrature and
assembly paths: the Duffy rule below integrates over triangles through a
collapsed tensor-Gauss rule and is used to cross-check projections, norms
and estimator values.  The pointwise ``eta_0``, the monomial RT space, the
P2 corner stiffness from P2 gradients, the field helpers, the edge-by-edge certificate loops, the vertex-by-vertex
patch equilibration, the stacked saddle-point solve by static condensation
(a second reference for the patch systems), the dict-and-loop mesh
topology, point location, per-point cross-mesh gradient, curve clipping and
lattice builders and the scalar on-segment rule after them are reference
implementations for tests only.  The einsum forms of the quadrature points, the stiffness matrix and the
forcing projection, and the broadcast barycentric containment test, are the
forms the library's column arithmetic must equal bit for bit.
"""

import numpy as np


def duffy_quad(tri_pts, f, m=16):
    """High-order integral of f(x, y) over a triangle (tensor Gauss-Legendre
    on the collapsed square)."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    a, b, c = (np.asarray(p, dtype=float) for p in tri_pts)
    total = 0.0
    for u, wu in zip(x, w):
        for v, wv in zip(x, w):
            lam1, lam2 = u, v * (1.0 - u)
            p = a + lam1 * (b - a) + lam2 * (c - a)
            total += wu * wv * (1.0 - u) * f(p[0], p[1])
    d1, d2 = b - a, c - a
    area2 = abs(d1[0] * d2[1] - d1[1] * d2[0])
    return total * area2


def mesh_integral(mesh, f, m=8):
    """Duffy-rule integral of f over a whole mesh."""
    return sum(
        duffy_quad(mesh.vertices[mesh.triangles[t]], f, m)
        for t in range(mesh.n_triangles)
    )


def segment_integral(a, b, f, m=24):
    """High-order line integral of f(x, y) along segment a-b."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    a, b = np.asarray(a, float), np.asarray(b, float)
    L = np.linalg.norm(b - a)
    pts = a[None, :] + x[:, None] * (b - a)[None, :]
    return L * float(np.sum(w * np.array([f(p[0], p[1]) for p in pts])))


def galerkin_residual(field, data):
    """Residual of the discrete weak form against every hat function."""
    from eqflux.fem import assemble_load, assemble_stiffness

    A = assemble_stiffness(field.mesh)
    return assemble_load(field.mesh, data) - A @ field.nodal_values


def energy_norm(field):
    """Energy (H1 seminorm) of a P1 field from its elementwise gradients."""
    g = field.gradients()
    return float(np.sqrt(np.sum(field.mesh.areas * np.einsum("td,td->t", g, g))))


def eta_zero_quadrature(flux, u_h):
    """‖sigma + grad u‖ from the flux evaluated pointwise at the degree-4
    triangle quadrature points."""
    from eqflux.fem import TRI_QW, quad_points

    mesh = flux.space.mesh
    pts = quad_points(mesh).reshape(-1, 2)
    tris = np.repeat(np.arange(mesh.n_triangles), len(TRI_QW))
    sig = flux.eval_at(pts, tris).reshape(mesh.n_triangles, len(TRI_QW), 2)
    mis = sig + u_h.gradients()[:, None, :]
    val = np.einsum("t,q,tqc,tqc->", mesh.areas, TRI_QW, mis, mis)
    return float(np.sqrt(max(val, 0.0)))


def _rt_monomials(xi, eta):
    """Vector monomials spanning [P1]^2 + x P1, shape xi.shape + (8, 2)."""
    z, o = np.zeros_like(xi), np.ones_like(xi)
    mx = np.stack([o, xi, eta, z, z, z, xi * xi, xi * eta], axis=-1)
    my = np.stack([z, z, z, o, xi, eta, xi * eta, eta * eta], axis=-1)
    return np.stack([mx, my], axis=-1)


class RTMonomialSpace:
    """The RT1 space built on monomials scaled about each triangle's
    centroid: each element's dual basis by inverting its DOF matrix (edge
    moments by Gauss-Legendre, interior moments and the element matrices by
    the collapsed Gauss rule of ``duffy_quad``), all triangles at once."""

    def __init__(self, mesh):
        gx, gw = np.polynomial.legendre.leggauss(4)
        gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
        u, v = np.meshgrid(gx, gx, indexing="ij")
        u, v = u.ravel(), v.ravel() * (1.0 - u.ravel())
        bary = np.stack([1.0 - u - v, u, v], axis=1)  # (16, 3)
        qw = 2.0 * np.outer(gw, gw).ravel() * (1.0 - bary[:, 1])  # sums to 1
        T, E, e = mesh.n_triangles, mesh.n_edges, mesh.triangle_edges
        self.mesh = mesh
        self.centers = mesh.vertices[mesh.triangles].mean(axis=1)
        self.scales = mesh.diameters
        t = np.arange(T)[:, None]
        ab = mesh.vertices[mesh.edge_vertices[e]]  # (T, 3, 2, 2): each local edge's a, b
        pts = ab[:, :, None, 0] + gx[:, None] * (ab[:, :, None, 1] - ab[:, :, None, 0])
        tr = np.einsum("tkqjc,tkc->tkqj", self._mono(t[..., None], pts), mesh.edge_normals[e])
        N = np.empty((T, 8, 8))
        N[:, 0:6:2] = mesh.edge_lengths[e][..., None] * np.einsum("q,tkqj->tkj", gw, tr)
        N[:, 1:6:2] = mesh.edge_lengths[e][..., None] * np.einsum("q,tkqj->tkj", gw * gx, tr)
        area = mesh.areas[:, None, None]
        pts = np.einsum("qk,tkd->tqd", bary, mesh.vertices[mesh.triangles])
        mono = self._mono(t, pts)  # (T, 16, 8, 2)
        N[:, 6:] = area * np.einsum("q,tqkc->tck", qw, mono)
        self.coeff = C = np.linalg.inv(N)
        basis = np.einsum("tqkc,tkj->tqjc", mono, C)
        div = self._div_mono(t, pts) @ C  # (T, 16, 8)
        self.mass = area * np.einsum("q,tqic,tqjc->tij", qw, basis, basis)
        self.divmom = area * np.einsum("q,qm,tqj->tmj", qw, bary, div)
        self.vecmom = area[..., None] * np.einsum("q,qm,tqjc->tmjc", qw, bary, basis)
        self.tri_dofs = np.hstack([(2 * e[:, :, None] + [0, 1]).reshape(T, 6),
                                   2 * E + 2 * t + [0, 1]])

    @property
    def total_dofs(self):
        return 2 * self.mesh.n_edges + 2 * self.mesh.n_triangles

    def _local(self, t, pts):
        """Scaled coordinates of ``pts`` about the centroids of triangles ``t`` (broadcast)."""
        d = (np.asarray(pts, dtype=float) - self.centers[t]) / self.scales[t][..., None]
        return d[..., 0], d[..., 1]

    def _mono(self, t, pts):
        return _rt_monomials(*self._local(t, pts))

    def _div_mono(self, t, pts):
        xi, eta = self._local(t, pts)
        z, o = np.zeros_like(xi), np.ones_like(xi)
        div = np.stack([z, o, z, z, z, o, 3.0 * xi, 3.0 * eta], axis=-1)
        return div / self.scales[t][..., None]

    def eval_at(self, coefficients, points, tris):
        """Field values at ``points[k]`` in triangle ``tris[k]``, point by point."""
        return np.array([self._mono(t, p).T @ (self.coeff[t] @ coefficients[self.tri_dofs[t]])
                         for p, t in zip(np.atleast_2d(points), tris)])

    def divergence_vertex_values(self, coefficients):
        """Elementwise divergence at the triangle vertices, (T, 3)."""
        return np.array([self._div_mono(t, self.mesh.vertices[tri])
                         @ (self.coeff[t] @ coefficients[self.tri_dofs[t]])
                         for t, tri in enumerate(self.mesh.triangles)])


def prolong_uniform(field, fine):
    """Inject a P1 field into ``uniform_refine(field.mesh)``: coarse vertices
    keep their values, edge midpoints (numbered after them in coarse edge
    order) take the mean of their endpoints."""
    from eqflux.fem import ScalarField

    coarse = field.mesh
    ev = coarse.edge_vertices
    mids = 0.5 * (coarse.vertices[ev[:, 0]] + coarse.vertices[ev[:, 1]])
    if not np.array_equal(fine.vertices, np.vstack([coarse.vertices, mids])):
        raise ValueError("fine mesh is not the uniform refinement of the field's mesh")
    vals = np.concatenate(
        [field.nodal_values, 0.5 * (field.nodal_values[ev[:, 0]] + field.nodal_values[ev[:, 1]])]
    )
    return ScalarField(fine, vals)


def _edge_gauss_points(mesh, e):
    x, _ = np.polynomial.legendre.leggauss(4)
    x = 0.5 * (x + 1.0)
    i, j = mesh.edge_vertices[e]
    a, b = mesh.vertices[i], mesh.vertices[j]
    return x, a[None, :] + x[:, None] * (b - a)[None, :]


def neumann_trace_defect_loop(flux, data):
    """Edge-by-edge max |sigma·n_out + gN_proj| over the Neumann edges."""
    mesh = flux.space.mesh
    worst = 0.0
    for k, e in enumerate(data.neumann_edges):
        e = int(e)
        x, pts = _edge_gauss_points(mesh, e)
        t = mesh.edge_tris[e].max()
        n_out = mesh.edge_outward_sign[e] * mesh.edge_normals[e]
        tr = flux.eval_at(pts, np.full(len(pts), t)) @ n_out
        gn = data.gn_proj[k, 0] * (1.0 - x) + data.gn_proj[k, 1] * x
        worst = max(worst, float(np.abs(tr + gn).max()))
    return worst


def interior_jump_loop(flux):
    """Edge-by-edge max normal-trace jump across interior edges."""
    mesh = flux.space.mesh
    worst = 0.0
    for e in range(mesh.n_edges):
        t0, t1 = mesh.edge_tris[e]
        if t0 < 0 or t1 < 0:
            continue
        _, pts = _edge_gauss_points(mesh, e)
        nrm = mesh.edge_normals[e]
        tr0 = flux.eval_at(pts, np.full(len(pts), t0)) @ nrm
        tr1 = flux.eval_at(pts, np.full(len(pts), t1)) @ nrm
        worst = max(worst, float(np.abs(tr0 - tr1).max()))
    return worst


def vertex_patches_loop(mesh):
    """Vertex-by-vertex patches: (vertex, triangles, zero edges, psi edges,
    interior) with the patch boundary edges found by counting the edge's
    triangles inside the patch."""
    v2t = [[] for _ in range(mesh.n_vertices)]
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            v2t[int(v)].append(t)
    boundary_vertices = set(int(v) for v in mesh.edge_vertices[mesh.boundary_edge_ids].ravel())
    out = []
    for a, tris in enumerate(v2t):
        tri_set = set(tris)
        zero, psi = set(), set()
        for t in tris:
            for e in mesh.triangle_edges[t]:
                inside = sum(int(s) in tri_set for s in mesh.edge_tris[e])
                if inside == 1:
                    (psi if a in mesh.edge_vertices[e] else zero).add(int(e))
        out.append((a, sorted(tri_set), sorted(zero), sorted(psi), a not in boundary_vertices))
    return out


def _patch_system_loop(oracle, patch, u_h, data):
    """One patch mixed system, assembled triangle by triangle from the element matrices of
    ``oracle``, an :class:`RTMonomialSpace`: (free DOFs, prescribed {DOF: value}, matrix, rhs,
    mean constraint)."""
    from eqflux.fem import _GL4_W as _GLW, _GL4_X as _GLX
    from eqflux.flux import _TRIPLE, EquilibrationError

    mesh = oracle.mesh
    a, tris, zero, psi, interior = patch
    neumann = data.neumann_map()
    prescribed = {d: 0.0 for e in zero for d in (2 * e, 2 * e + 1)}
    mean_constraint = interior
    if not interior:
        mean_constraint = True
        for e in psi:
            k = neumann.get(e)
            if k is None:
                mean_constraint = False
                if e not in data.dirichlet_edges:
                    raise EquilibrationError(
                        f"patch {a}: boundary edge {e} is neither Neumann nor Dirichlet")
                continue
            i, _ = mesh.edge_vertices[e]
            shape = (1.0 - _GLX) if a == int(i) else _GLX
            gn = data.gn_proj[k]
            tr = -mesh.edge_outward_sign[e] * shape * (gn[0] * (1.0 - _GLX) + gn[1] * _GLX)
            prescribed[2 * e] = mesh.edge_lengths[e] * float(np.sum(_GLW * tr))
            prescribed[2 * e + 1] = mesh.edge_lengths[e] * float(np.sum(_GLW * _GLX * tr))
    free = [int(d) for d in np.unique(oracle.tri_dofs[tris]) if int(d) not in prescribed]
    fmap = {d: k for k, d in enumerate(free)}
    nf = len(free)
    n = nf + 3 * len(tris) + int(mean_constraint)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    grads = u_h.gradients()
    patch_area = float(mesh.areas[tris].sum())
    for kk, t in enumerate(tris):
        dofs = oracle.tri_dofs[t]
        lidx = np.array([fmap.get(int(d), -1) for d in dofs])
        pvals = np.array([prescribed.get(int(d), 0.0) for d in dofs])
        fr = lidx >= 0
        loc = int(np.where(mesh.triangles[t] == a)[0][0])
        M8, D38, gu, area = oracle.mass[t], oracle.divmom[t], grads[t], mesh.areas[t]
        rows = lidx[fr]
        A[rows[:, None], rows[None, :]] += M8[fr][:, fr]
        rhs[rows] += (-oracle.vecmom[t, loc] @ gu - M8[:, ~fr] @ pvals[~fr])[fr]
        lam = nf + 3 * kk + np.arange(3)
        A[rows[:, None], lam[None, :]] -= D38[:, fr].T
        A[lam[:, None], rows[None, :]] += D38[:, fr]
        rhs[lam] += (area * (_TRIPLE[loc] @ data.f_proj[t])
                     - float(mesh.lam_grads[t, loc] @ gu) * area / 3.0
                     - D38[:, ~fr] @ pvals[~fr])
        if mean_constraint:
            A[lam, n - 1] += area / 3.0 / patch_area
            A[n - 1, lam] += area / 3.0 / patch_area
    return free, prescribed, A, rhs, mean_constraint


def compatibility_residual_loop(space, patch, u_h, data):
    """Residual and scale of one patch's compatibility (Galerkin
    orthogonality) test, from the forcing, the field and the Neumann data."""
    from eqflux.fem import _GL4_W as _GLW, _GL4_X as _GLX, _M3, TRI_QP, TRI_QW

    mesh = space.mesh
    a, tris, _, psi, _ = patch
    grads = u_h.gradients()
    total = scale = bscale = 0.0
    for t in tris:
        loc = int(np.where(mesh.triangles[t] == a)[0][0])
        fK, ga = data.f_proj[t], float(mesh.lam_grads[t, loc] @ grads[t])
        total += mesh.areas[t] * (float(_M3[loc] @ fK) - ga)
        scale += mesh.areas[t] * (float(np.sum(TRI_QW * (TRI_QP[:, loc] * (TRI_QP @ fK)) ** 2))
                                  + ga ** 2)
    for e in psi:
        k = data.neumann_map().get(e)
        if k is None:
            continue
        i, _ = mesh.edge_vertices[e]
        shape = (1.0 - _GLX) if a == int(i) else _GLX
        gn = data.gn_proj[k]
        flux = -mesh.edge_lengths[e] * float(np.sum(_GLW * shape * (gn[0] * (1.0 - _GLX)
                                                                   + gn[1] * _GLX)))
        total -= flux
        bscale += abs(flux)
    return abs(total), np.sqrt(scale) + bscale


def patch_flux_loop(oracle, patch, u_h, data):
    """One vertex patch's flux coefficients, from the dense solve of its saddle-point system
    assembled on ``oracle``, an :class:`RTMonomialSpace`."""
    from eqflux.flux import OrthogonalityError

    free, prescribed, A, rhs, mean_constraint = _patch_system_loop(oracle, patch, u_h, data)
    if mean_constraint:
        resid, scale = compatibility_residual_loop(oracle, patch, u_h, data)
        if resid > 1e-9 * scale + 1e-13:
            raise OrthogonalityError(f"patch {patch[0]}: compatibility residual {resid:.3e}")
    coef = np.zeros(oracle.total_dofs)
    coef[free] = np.linalg.solve(A, rhs)[: len(free)]
    coef[list(prescribed)] = list(prescribed.values())
    return coef


def reconstruct_flux_loop(u_h, data, oracle):
    """Equilibrated flux coefficients solved one vertex patch at a time on ``oracle``, an
    :class:`RTMonomialSpace`."""
    coef = np.zeros(oracle.total_dofs)
    for patch in vertex_patches_loop(oracle.mesh):
        coef += patch_flux_loop(oracle, patch, u_h, data)
    return coef


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
    from eqflux.linalg import SingularSystemError

    L = np.linalg.cholesky(a)
    d2 = np.diagonal(L, axis1=1, axis2=2).min(axis=1) ** 2
    if not (d2 >= floor).all():
        k = int(np.argmin(d2 >= floor))
        raise SingularSystemError(f"squared Cholesky pivot {d2[k]:.3e} below {floor[k]:.3e}", k)
    return L


def saddle_solve(M, B, f, g, c=None):
    """The ``x`` part of stacked systems ``M x − Bᵀ λ = f``, ``B x + c μ = g``,
    ``cᵀ λ = 0`` (no border without ``c``) by static condensation: ``M``
    (P, n, n) is SPD, ``B`` is (P, q, n), and a border needs ``Bᵀ 1 = 0``, so
    that ``μ = Σg / Σc`` and ``(S + c cᵀ) λ = g − μ c`` with ``S = B M⁻¹ Bᵀ``.
    The right-hand sides are m columns per system, ``f`` (P, n, m) and ``g``
    (P, q, m), and so is ``x`` (P, n, m).  A squared Cholesky pivot of ``M`` or
    ``S`` below ``1e-12 · max|A|`` of the whole system raises
    ``SingularSystemError`` naming its stack position.

    A second reference for the patch saddle-point systems of
    :func:`_patch_system_loop` (see :func:`saddle_solve_loop`), besides their
    dense LU solve."""
    from eqflux.linalg import SingularSystemError

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


def saddle_solve_loop(oracle, patches, u_h, data):
    """The flux coefficients of each patch in ``patches`` (from :func:`vertex_patches_loop`),
    its saddle-point systems on ``oracle`` (an :class:`RTMonomialSpace`) stacked per layout
    ``(free DOFs, triangles, border)`` and solved by :func:`saddle_solve`: a dict keyed by
    vertex."""
    layouts = {}
    for patch in patches:
        free, prescribed, A, rhs, mean = _patch_system_loop(oracle, patch, u_h, data)
        nf, q = len(free), 3 * len(patch[1])
        blocks = (A[:nf, :nf], A[nf:nf + q, :nf], rhs[:nf], rhs[nf:nf + q], A[nf:nf + q, -1])
        layouts.setdefault((nf, q, mean), []).append((patch[0], free, prescribed, blocks))
    out = {}
    for (_, _, mean), members in layouts.items():
        M, B, f, g, c = (np.stack([b[i] for *_, b in members]) for i in range(5))
        x = saddle_solve(M, B, f[..., None], g[..., None], c if mean else None)[..., 0]
        for (a, free, prescribed, _), xa in zip(members, x):
            coef = np.zeros(oracle.total_dofs)
            coef[free] = xa
            coef[list(prescribed)] = list(prescribed.values())
            out[a] = coef
    return out


def p2_corner_stiffness(mesh):
    """Per corner m of each triangle, the stiffness matrix ``(T, 3, 3, 3)`` of the P2 functions
    ``lam_m (2 lam_m − 1)``, ``4 lam_m lam_{m+1}`` and ``4 lam_m lam_{m+2}`` (the corner's
    vertex, in-edge and out-edge midpoint), from their gradients at the collapsed Gauss points
    of :class:`RTMonomialSpace`."""
    gx, gw = np.polynomial.legendre.leggauss(3)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    u, v = np.meshgrid(gx, gx, indexing="ij")
    u, v = u.ravel(), v.ravel() * (1.0 - u.ravel())
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    qw = 2.0 * np.outer(gw, gw).ravel() * (1.0 - bary[:, 1])
    out = np.empty((mesh.n_triangles, 3, 3, 3))
    for t in range(mesh.n_triangles):
        g = mesh.lam_grads[t]
        for m in range(3):
            i, o = (m + 1) % 3, (m + 2) % 3
            grads = np.stack([(4 * bary[:, m, None] - 1) * g[m],
                              4 * (bary[:, i, None] * g[m] + bary[:, m, None] * g[i]),
                              4 * (bary[:, o, None] * g[m] + bary[:, m, None] * g[o])], axis=1)
            out[t, m] = mesh.areas[t] * np.einsum("q,qkc,qlc->kl", qw, grads, grads)
    return out


def unstructured_mesh(n, rng, dirichlet_predicate):
    """Unit-square mesh from the n x n lattice with a random diagonal in each
    cell and interior vertices moved by up to 0.2 h in each coordinate;
    boundary markers are those of the lattice."""
    from eqflux.mesh import Mesh, generate_unit_square

    lattice = generate_unit_square(n, dirichlet_predicate)
    ij = np.rint(lattice.vertices * n).astype(np.int64)
    grid = np.empty((n + 1, n + 1), dtype=np.int64)
    grid[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = grid[i, j], grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1]
            flip = rng.random() < 0.5
            triangles += [(a, b, d), (b, c, d)] if flip else [(a, b, c), (a, c, d)]
    vertices = lattice.vertices.copy()
    interior = np.all((ij > 0) & (ij < n), axis=1)
    vertices[interior] += rng.uniform(-0.2 / n, 0.2 / n, size=(int(interior.sum()), 2))
    markers = {tuple(int(v) for v in lattice.edge_vertices[e]): lattice.edge_markers[e]
               for e in lattice.boundary_edge_ids}
    return Mesh(vertices, np.array(triangles), edge_markers=markers)


def marked_edges(mesh, kind=None, part=None):
    """Ascending ids of the mesh's marked edges, optionally filtered by marker
    kind and part."""
    return np.array([e for e, m in enumerate(mesh.edge_markers) if m is not None
                     and kind in (None, m.kind) and part in (None, m.part)], dtype=np.intp)


def build_edges_loop(triangles):
    """Triangle-by-triangle edge numbering through a dict of sorted vertex
    pairs: ``(edge_vertices, edge_tris, triangle_edges)``."""
    pairs = {}
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    edge_list, edge_tris = [], []
    for t, tri in enumerate(triangles):
        for loc in range(3):
            a, b = int(tri[loc]), int(tri[(loc + 1) % 3])
            key = (a, b) if a < b else (b, a)
            e = pairs.setdefault(key, len(edge_list))
            if e == len(edge_list):
                edge_list.append(key)
                edge_tris.append([-1, -1])
            side = 0 if a < b else 1
            if edge_tris[e][side] != -1:
                raise ValueError(f"edge {key} traversed twice in the same direction")
            edge_tris[e][side] = t
            tri_edges[t, loc] = e
    return (np.asarray(edge_list, dtype=np.int64).reshape(-1, 2),
            np.asarray(edge_tris, dtype=np.int64).reshape(-1, 2), tri_edges)


def bucket_grid_loop(mesh):
    """Dict bucket grid ``(lo, cell, ncell, {(ix, iy): ascending triangles})``
    with each triangle in every cell its bounding box, padded by 1e-9 of the
    span, meets."""
    lo = mesh.vertices.min(axis=0)
    span = np.maximum(mesh.vertices.max(axis=0) - lo, 1e-300)
    ncell = max(1, int(np.ceil(np.sqrt(max(mesh.n_triangles, 1) / 2.0))))
    cell = span / ncell
    v = mesh.vertices[mesh.triangles]
    eps = 1e-9 * span
    i0 = np.clip(((v.min(axis=1) - lo - eps) / cell).astype(int), 0, ncell - 1)
    i1 = np.clip(((v.max(axis=1) - lo + eps) / cell).astype(int), 0, ncell - 1)
    buckets = {}
    for t in range(mesh.n_triangles):
        for ix in range(i0[t, 0], i1[t, 0] + 1):
            for iy in range(i0[t, 1], i1[t, 1] + 1):
                buckets.setdefault((ix, iy), []).append(t)
    return lo, cell, ncell, buckets


def _locate_loop(mesh, grid, p, tol):
    """Lowest-index triangle of the point's cell holding it, else of the
    3 x 3 cells around it (-1 if none)."""
    lo, cell, ncell, buckets = grid
    ix, iy = np.clip(((p - lo) / cell).astype(int), 0, ncell - 1)
    near = sorted({t for jx in (ix - 1, ix, ix + 1) for jy in (iy - 1, iy, iy + 1)
                   for t in buckets.get((jx, jy), ())})
    g, v0 = mesh.lam_grads, mesh.vertices[mesh.triangles[:, 0]]
    for cand in (buckets.get((ix, iy), []), near):
        for t in cand:
            dx, dy = p - v0[t]
            b1 = g[t, 1, 0] * dx + g[t, 1, 1] * dy
            b2 = g[t, 2, 0] * dx + g[t, 2, 1] * dy
            if min(1.0 - b1 - b2, b1, b2) >= -tol:
                return t
    return -1


def locate_points_loop(mesh, points, tol=1e-12):
    """Point-by-point location through the dict bucket grid."""
    grid = bucket_grid_loop(mesh)
    return np.array([_locate_loop(mesh, grid, p, tol) for p in np.atleast_2d(points)],
                    dtype=np.int64).reshape(-1)


def contains(mesh, tris, points):
    """Containment of ``points[...]`` in triangles ``tris[...]``, broadcast against
    ``points.shape[:-1]``: all barycentrics >= -LOCATE_TOL, computed like ``Mesh.holds``
    as ``lam_q = grad lam_q · (p − v0)`` for q = 1, 2 and ``lam_0 = 1 − lam_1 − lam_2``."""
    from eqflux.mesh import LOCATE_TOL

    g = mesh.lam_grads[tris]
    d = points - mesh.vertices[mesh.triangles[tris, 0]]
    b1 = g[..., 1, 0] * d[..., 0] + g[..., 1, 1] * d[..., 1]
    b2 = g[..., 2, 0] * d[..., 0] + g[..., 2, 1] * d[..., 1]
    return np.minimum(np.minimum(1.0 - b1 - b2, b1), b2) >= -LOCATE_TOL


def quad_points_einsum(mesh):
    """Degree-4 quadrature points per triangle, (T, 6, 2), by one einsum."""
    from eqflux.fem import TRI_QP

    return np.einsum("qk,tkd->tqd", TRI_QP, mesh.vertices[mesh.triangles])


def assemble_stiffness_einsum(mesh):
    """Stiffness matrix (CSR) from einsum local matrices, in the library's COO order."""
    import scipy.sparse

    g, tri = mesh.lam_grads, mesh.triangles
    local = np.einsum("tid,tjd,t->tij", g, g, mesh.areas)
    rows, cols = np.repeat(tri, 3, axis=1).reshape(-1), np.tile(tri, (1, 3)).reshape(-1)
    n = mesh.n_vertices
    return scipy.sparse.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def project_forcing_einsum(f, mesh):
    """Elementwise P1 projection of the forcing with einsum moments."""
    from eqflux.fem import _M3_INV, TRI_QP, TRI_QW, eval_data

    fx = eval_data(f, quad_points_einsum(mesh).reshape(-1, 2)).reshape(-1, len(TRI_QW))
    m = np.einsum("tw,w,wq->tq", fx, TRI_QW, TRI_QP) * mesh.areas[:, None]
    return np.einsum("qk,tk->tq", _M3_INV, m) / mesh.areas[:, None]


def expand_cross_mesh(grad, rest, rest_grad):
    """The compact ``cross_mesh_gradients`` result at every quadrature point,
    (T, 6, 2): each triangle's gradient six times, the rest's own rows."""
    out = np.repeat(grad[:, None, :], 6, axis=1)
    out[rest] = rest_grad
    return out


def energy_error_per_point(coarse, reference, gradients):
    """``energy_error_cross_mesh`` with the coarse gradients (T, 6, 2) given at
    every quadrature point: the library's reduction, with all triangles taking
    the per-point branch."""
    from unittest import mock

    from eqflux import fem

    T = reference.mesh.n_triangles
    compact = (np.full((T, 2), np.nan), np.arange(T), gradients)
    with mock.patch.object(fem, "cross_mesh_gradients", return_value=compact):
        return fem.energy_error_cross_mesh(coarse, reference)


def cross_mesh_gradients_loop(pieces, fine):
    """Coarse gradient at each degree-4 quadrature point of ``fine``, shape
    (T, 6, 2): every point is located on its own, through the dict bucket
    grid, in the first of the P1 ``pieces`` that holds it (NaN if none)."""
    from eqflux.fem import TRI_QP

    pts = quad_points_einsum(fine).reshape(-1, 2)
    out = np.full((len(pts), 2), np.nan)
    for piece in pieces:
        todo = np.flatnonzero(np.isnan(out[:, 0]))
        tris = locate_points_loop(piece.mesh, pts[todo])
        out[todo[tris >= 0]] = piece.gradients()[tris[tris >= 0]]
    return out.reshape(fine.n_triangles, len(TRI_QP), 2)


def clip_curve_loop(polylines, mesh, gauss_order=4, tol=1e-12):
    """Segment-by-segment curve clipping: cut parameters from the edges of
    the triangles in the grid cells around the segment, one located midpoint
    per piece.  Returns ``(nodes, weights, node_tris)``; a piece outside the
    mesh raises ``GeometryError``."""
    from eqflux.geometry import GeometryError, gauss_legendre

    grid = bucket_grid_loop(mesh)
    lo, cell, ncell, buckets = grid
    gx, gw = gauss_legendre(gauss_order)
    nodes, weights, node_tris = [], [], []
    for line in polylines:
        for P, Q in zip(line[:-1], line[1:]):
            d = Q - P
            L = np.linalg.norm(d)
            if L <= tol:
                continue
            i0 = np.clip(((np.minimum(P, Q) - lo) / cell).astype(int) - 1, 0, ncell - 1)
            i1 = np.clip(((np.maximum(P, Q) - lo) / cell).astype(int) + 1, 0, ncell - 1)
            edges = {int(e) for ix in range(i0[0], i1[0] + 1) for iy in range(i0[1], i1[1] + 1)
                     for t in buckets.get((ix, iy), ()) for e in mesh.triangle_edges[t]}
            params = []
            for e in edges:
                A, B = mesh.vertices[mesh.edge_vertices[e]]
                r = B - A
                denom = d[0] * r[1] - d[1] * r[0]
                if abs(denom) <= tol * max(L, 1.0) * max(np.linalg.norm(r), 1.0):
                    perp = abs((A[0] - P[0]) * d[1] - (A[1] - P[1]) * d[0]) / L
                    if perp <= 1e-9 * max(L, 1.0):
                        params += [np.dot(X - P, d) / (L * L) for X in (A, B)]
                    continue
                w = A - P
                u = (w[0] * d[1] - w[1] * d[0]) / denom
                if -tol <= u <= 1 + tol:
                    params.append((w[0] * r[1] - w[1] * r[0]) / denom)
            ts = sorted({0.0, 1.0} | {t for t in params if tol < t < 1 - tol})
            merged = [ts[0]]
            for t in ts[1:]:
                if t - merged[-1] > tol:
                    merged.append(t)
            for t0, t1 in zip(merged[:-1], merged[1:]):
                tri = _locate_loop(mesh, grid, P + 0.5 * (t0 + t1) * d, 1e-12)
                if tri < 0:
                    raise GeometryError("curve leaves the mesh")
                a, b = P + t0 * d, P + t1 * d
                for q in range(gauss_order):
                    nodes.append(a + gx[q] * (b - a))
                    weights.append((t1 - t0) * L * gw[q])
                    node_tris.append(tri)
    return (np.asarray(nodes, dtype=float).reshape(-1, 2), np.asarray(weights, dtype=float),
            np.asarray(node_tris, dtype=np.int64))


def _triangulate_cells_loop(cells, ids, coords):
    triangles = []
    for i, j in cells:
        a, b, c, d = (ids[k] for k in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
        triangles += [(a, b, c), (a, c, d)]
    return np.asarray(coords, dtype=float), np.asarray(triangles, dtype=np.int64)


def lattice_loop(n, holes=(), bumps=()):
    """``(vertices, triangles)`` of the n x n unit-square lattice without the
    cells of ``holes`` and with those of ``bumps`` (cell ranges
    ``(i0, i1, j0, j1)``), each cell split along its low-left→up-right
    diagonal: square lattice vertices row-major first, then the others."""
    removed = {(i, j) for i0, i1, j0, j1 in holes
               for i in range(i0, i1) for j in range(j0, j1)}
    cells = [(i, j) for j in range(n) for i in range(n) if (i, j) not in removed]
    for i0, i1, j0, j1 in bumps:
        cells += [(i, j) for j in range(j0, j1) for i in range(i0, i1)]
    used = {(i + di, j + dj) for i, j in cells for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))}
    ids, coords = {}, []
    for j in range(n + 1):
        for i in range(n + 1):
            if (i, j) in used:
                ids[(i, j)] = len(coords)
                coords.append((i / n, j / n))
    for i, j in sorted(used - set(ids), key=lambda p: (p[1], p[0])):
        ids[(i, j)] = len(coords)
        coords.append((i / n, j / n))
    return _triangulate_cells_loop(cells, ids, coords)


def block_lattice_loop(n, i0, i1, j0, j1):
    """``(vertices, triangles)`` of the lattice cells ``[i0, i1) x [j0, j1)``
    with their vertices row-major."""
    ids, coords = {}, []
    for j in range(j0, j1 + 1):
        for i in range(i0, i1 + 1):
            ids[(i, j)] = len(coords)
            coords.append((i / n, j / n))
    cells = [(i, j) for j in range(j0, j1) for i in range(i0, i1)]
    return _triangulate_cells_loop(cells, ids, coords)


def lattice_unique_rows(cells, n, square_first=False):
    """``(vertices, triangles)`` of lattice cells ``(C, 2)`` of spacing 1/n,
    each split along its low-left→up-right diagonal, with the corners numbered
    by the row-wise ``np.unique(axis=0)`` of ``(outside, j, i)``; ``outside``
    marks the corners off the unit square's lattice when ``square_first``."""
    corners = (cells[:, None, :] + np.array([[0, 0], [1, 0], [1, 1], [0, 1]])).reshape(-1, 2)
    outside = ((corners < 0) | (corners > n)).any(axis=1) & square_first
    ids, inverse = np.unique(
        np.column_stack([outside, corners[:, ::-1]]), axis=0, return_inverse=True
    )
    a, b, c, d = inverse.reshape(-1, 4).T
    return ids[:, :0:-1] / n, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def point_on_segment(p, a, b, tol=1e-12):
    """Scalar on-segment rule: with L = |b - a|, the projection parameter of
    p lies in [-tol/L, 1 + tol/L] and its distance to the projection is at
    most tol*max(1, L); a segment shorter than tol holds the points within
    tol of a."""
    ab = b - a
    L = np.linalg.norm(ab)
    if L < tol:
        return np.linalg.norm(p - a) <= tol
    t = np.dot(p - a, ab) / (L * L)
    if t < -tol / L or t > 1 + tol / L:
        return False
    proj = a + t * ab
    return np.linalg.norm(p - proj) <= tol * max(1.0, L)


def first_group_loop(p, groups):
    """Index of the first group of polylines with a segment holding p (by
    ``point_on_segment``, segment by segment), or ``len(groups)``."""
    for k, lines in enumerate(groups):
        for line in lines:
            line = np.asarray(line, dtype=float)
            for a, b in zip(line[:-1], line[1:]):
                if point_on_segment(p, a, b):
                    return k
    return len(groups)


def _chain_loop(segments):
    """Consecutive (a, b) segments merged into polylines, one at a time."""
    lines, cur = [], None
    for a, b in segments:
        if cur is not None and np.allclose(cur[-1], a, rtol=0, atol=1e-12):
            cur.append(b)
        else:
            if cur is not None:
                lines.append(np.asarray(cur))
            cur = [a, b]
    if cur is not None:
        lines.append(np.asarray(cur))
    if len(lines) > 1 and np.allclose(lines[-1][-1], lines[0][0], rtol=0, atol=1e-12):
        lines[0] = np.vstack([lines[-1], lines[0][1:]])
        lines.pop()
    return lines


def _subtract_overlaps_loop(a, b, others, tol=1e-12):
    """Pieces of segment a-b not covered by those of ``others`` on it."""
    ab = b - a
    L = np.linalg.norm(ab)
    d = ab / L
    intervals = []
    for c0, c1 in others:
        if point_on_segment(c0, a, b) and point_on_segment(c1, a, b):
            t0, t1 = np.dot(c0 - a, d) / L, np.dot(c1 - a, d) / L
            t0, t1 = min(t0, t1), max(t0, t1)
            intervals.append((max(t0, 0.0), min(t1, 1.0)))
    out, cursor = [], 0.0
    for t0, t1 in sorted(intervals):
        if t0 > cursor + tol:
            out.append((a + cursor * ab, a + t0 * ab))
        cursor = max(cursor, t1)
    if cursor < 1.0 - tol:
        out.append((a + cursor * ab, a + 1.0 * ab))
    return out


def partition_loop(feature, domain):
    """Feature boundary partition side by side with ``point_on_segment``;
    raises the same ``GeometryError`` messages as the library."""
    from eqflux.geometry import NEGATIVE_INTERNAL, POSITIVE, GeometryError, closed_loop

    def on_base(p):
        if isinstance(domain.base, str):
            corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
            return any(point_on_segment(p, a, b) for a, b in zip(corners[:-1], corners[1:]))
        m = domain.base
        return any(point_on_segment(p, m.vertices[i], m.vertices[j])
                   for i, j in m.edge_vertices[m.boundary_edge_ids])

    def sides(polygon):
        loop = closed_loop(polygon)
        return list(zip(loop[:-1], loop[1:]))

    def side_on(side, test):
        a, b = side
        return test(a) and test(b) and test(0.5 * (a + b))

    gamma0 = [s for s in sides(feature.polygon) if side_on(s, on_base)]
    gamma = [s for s in sides(feature.polygon) if not side_on(s, on_base)]
    if feature.kind == NEGATIVE_INTERNAL and gamma0:
        raise GeometryError(f"internal feature {feature.id} touches the domain boundary")
    if feature.kind != NEGATIVE_INTERNAL and not gamma0:
        raise GeometryError(
            f"boundary feature {feature.id} shares no edge with the domain boundary")
    if domain.dirichlet is not None:
        for a, b in gamma0:
            mid = 0.5 * (a + b)
            if domain.dirichlet(mid[0], mid[1]):
                raise GeometryError(f"feature {feature.id} touches the Dirichlet boundary")
    out = {"gamma": _chain_loop(gamma), "gamma0": _chain_loop(gamma0),
           "gammaS": [], "gammaR": [], "gammaTilde": []}
    if feature.kind != POSITIVE or feature.extension is None:
        return out
    ext = sides(feature.extension.polygon)
    on_ext = lambda p: any(point_on_segment(p, a, b) for a, b in ext)  # noqa: E731
    if not all(side_on(s, on_ext) for s in gamma0):
        raise GeometryError(f"feature {feature.id}: gamma0 must lie on the extension boundary")
    shared = [s for s in gamma if side_on(s, on_ext)]
    out["gammaS"] = _chain_loop(shared)
    out["gammaR"] = _chain_loop([s for s in gamma if not side_on(s, on_ext)])
    out["gammaTilde"] = _chain_loop(
        [piece for a, b in ext for piece in _subtract_overlaps_loop(a, b, shared + gamma0)])
    return out


def field_to_csv_loop(field, path):
    """Nodal CSV, one formatted line per vertex: the byte oracle of ``fem.field_to_csv``."""
    with open(path, "w", newline="") as f:
        f.write("vertex_id,x,y,value\r\n")
        for k, (x, y) in enumerate(field.mesh.vertices):
            f.write(f"{k},{x:.17g},{y:.17g},{field.nodal_values[k]:.17g}\r\n")


def write_vtk_loop(path, mesh, point_data=None, cell_vectors=None):
    """Legacy VTK, one formatted line per row: the byte oracle of ``fem.write_vtk``."""
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\neqflux\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        T = mesh.n_triangles
        f.write(f"CELLS {T} {4 * T}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {T}\n")
        f.write("5\n" * T)
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
                for v in values:
                    f.write(f"{v:.17g}\n")
        if cell_vectors:
            f.write(f"CELL_DATA {T}\n")
            for name, vecs in cell_vectors.items():
                f.write(f"VECTORS {name} double\n")
                for vx, vy in vecs:
                    f.write(f"{vx:.17g} {vy:.17g} 0\n")
