import json
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import (
    block_lattice_loop,
    build_edges_loop,
    clip_curve_loop,
    contains,
    lattice_loop,
    lattice_unique_rows,
    locate_points_loop,
    marked_edges,
    refined_edges_loop,
    unstructured_mesh,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux.geometry import (
    NEGATIVE_BOUNDARY,
    NEGATIVE_INTERNAL,
    POSITIVE,
    DomainSpec,
    ExtensionSpec,
    FeatureSpec,
    GeometryError,
    clip_curve_to_mesh,
    closed_loop,
    feature_mesh,
    rect_polygon,
    regular_polygon,
)
from eqflux.mesh import (
    EdgeMarker,
    Mesh,
    MeshError,
    _cell_block,
    _lattice_mesh,
    first_occurrence,
    generate_unit_square,
    generate_with_rect_features,
    read_mesh,
    uniform_refine,
    vertex_patches,
    write_mesh,
)


def dirichlet_x01(x, y):
    return abs(x) < 1e-12 or abs(x - 1) < 1e-12


class TestGenerateUnitSquare:
    def test_n1_counts(self):
        m = generate_unit_square(1)
        assert m.n_vertices == 4
        assert m.n_triangles == 2
        assert len(m.boundary_edge_ids) == 4

    def test_n2_euler(self):
        m = generate_unit_square(2)
        assert m.n_vertices == 9
        assert m.n_triangles == 8
        assert m.n_edges == 16
        assert m.n_vertices - m.n_edges + m.n_triangles == 1

    def test_boundary_classification(self):
        m = generate_unit_square(4, dirichlet_x01)
        kinds = [m.edge_markers[int(e)].kind for e in m.boundary_edge_ids]
        assert kinds.count("dirichlet") == 8
        assert kinds.count("neumann") == 8

    def test_area_and_h(self):
        m = generate_unit_square(5)
        assert m.total_area() == pytest.approx(1.0, abs=1e-12)
        assert m.h == pytest.approx(np.sqrt(2) / 5)

    def test_interior_edges_two_triangles_opposite_orientation(self):
        m = generate_unit_square(3)
        for e in range(m.n_edges):
            t0, t1 = m.edge_tris[e]
            if t0 < 0 or t1 < 0:
                continue
            # one triangle traverses i->j, the other j->i by construction
            assert t0 != t1


class TestRectFeatures:
    def test_negative_notch_counts(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        m = generate_with_rect_features(10, [notch], [True], dirichlet_x01)
        assert m.n_triangles == 2 * (100 - 4)
        assert m.total_area() == pytest.approx(1 - 0.04, abs=1e-12)
        assert len(marked_edges(m, kind="feature", part="gamma")) == 6

    def test_positive_bump_counts(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0))
        m = generate_with_rect_features(10, [bump], [True], dirichlet_x01)
        assert m.n_triangles == 200 + 8
        assert m.total_area() == pytest.approx(1 + 0.04, abs=1e-12)
        assert len(marked_edges(m, kind="feature", part="gamma0")) == 2
        assert len(marked_edges(m, kind="feature", part="gamma")) == 6

    def test_excluded_equals_unit_square(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        a = generate_with_rect_features(10, [notch], [False], dirichlet_x01)
        b = generate_unit_square(10, dirichlet_x01)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert a.edge_markers == b.edge_markers

    def test_misaligned_rectangle_rejected(self):
        holes = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.41, 0.6, 0.2, 0.3))
        with pytest.raises(MeshError):
            generate_with_rect_features(10, [holes], [True], dirichlet_x01)

    def test_overlap_rejected(self):
        a = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.2, 0.5, 0.2, 0.5))
        b = FeatureSpec(2, NEGATIVE_INTERNAL, rect_polygon(0.4, 0.6, 0.4, 0.6))
        with pytest.raises(MeshError):
            generate_with_rect_features(10, [a, b], [True, True], dirichlet_x01)

    def test_internal_hole_euler(self):
        hole = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.4, 0.6, 0.4, 0.6))
        m = generate_with_rect_features(10, [hole], [True], dirichlet_x01)
        # one hole: V - E + T = 0
        assert m.n_vertices - m.n_edges + m.n_triangles == 0


class TestVertexPatches:
    def test_interior_vertex(self):
        m = generate_unit_square(4)
        patches = vertex_patches(m)
        a = 2 * 5 + 2  # vertex (2, 2)
        p = patches[a]
        assert p.is_interior
        assert len(p.triangles) == 6
        assert len(p.boundary_edges_zero) == 6
        assert len(p.boundary_edges_psi) == 0

    def test_corner_vertex(self):
        m = generate_unit_square(2)
        p = vertex_patches(m)[0]
        assert not p.is_interior
        assert len(p.triangles) == 2
        assert len(p.boundary_edges_psi) == 2

    def test_midside_vertex(self):
        m = generate_unit_square(4)
        p = vertex_patches(m)[2]  # (0.5, 0) on the bottom side
        assert len(p.boundary_edges_psi) == 2

    def test_patches_cover_each_triangle_three_times(self):
        m = generate_unit_square(3)
        count = np.zeros(m.n_triangles, dtype=int)
        for p in vertex_patches(m):
            count[p.triangles] += 1
        assert (count == 3).all()


class TestElementArrays:
    """The per-triangle and per-edge arrays that Mesh computes once for its consumers."""

    @staticmethod
    def _mesh(kind):
        if kind == "lattice":
            return generate_unit_square(6, dirichlet_x01)
        return unstructured_mesh(6, np.random.default_rng(3), dirichlet_x01)

    @pytest.mark.parametrize("kind", ["lattice", "unstructured"])
    def test_jacobians(self, kind):
        m = self._mesh(kind)
        v = m.vertices[m.triangles]
        J = m.jacobians
        assert J.shape == (m.n_triangles, 2, 2)
        assert np.array_equal(J[:, :, 0], v[:, 1] - v[:, 0])
        assert np.array_equal(J[:, :, 1], v[:, 2] - v[:, 0])
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        assert np.array_equal(det / 2, m.areas)

    @pytest.mark.parametrize("kind", ["lattice", "unstructured"])
    def test_edge_signs(self, kind):
        m = self._mesh(kind)
        plus = m.edge_tris[m.triangle_edges, 0] == np.arange(m.n_triangles)[:, None]
        assert np.array_equal(m.triangle_edge_signs, np.where(plus, 1.0, -1.0))

    @pytest.mark.parametrize("kind", ["lattice", "unstructured"])
    def test_boundary_mask_and_lam_grads(self, kind):
        m = self._mesh(kind)
        assert np.array_equal(m.on_boundary, (m.edge_tris < 0).any(axis=1))
        assert np.array_equal(m.boundary_edge_ids, np.flatnonzero(m.on_boundary))
        # grad lam_q is row q of the inverse of [1; x; y] at the corners, less its first column.
        v = m.vertices[m.triangles]
        M = np.concatenate([np.ones((m.n_triangles, 1, 3)), v.transpose(0, 2, 1)], axis=1)
        assert m.lam_grads.shape == (m.n_triangles, 3, 2) and m.lam_grads.base is None
        scale = np.abs(m.lam_grads).max()
        assert np.allclose(m.lam_grads, np.linalg.inv(M)[..., 1:], rtol=0, atol=1e-12 * scale)

    def test_first_occurrence_matches_dict_loop(self):
        a = np.random.default_rng(7).integers(0, 9, size=60)
        numbers = {}
        want = [numbers.setdefault(x, len(numbers)) for x in a.tolist()]
        first, number = first_occurrence(a)
        assert np.array_equal(number, want)
        assert np.array_equal(number[first], np.arange(len(numbers)))
        assert (first[number] <= np.arange(len(a))).all()


class TestLocatePoint:
    def test_on_diagonal_tie_breaks_low_index(self):
        m = generate_unit_square(1)
        tris = m.locate_points([(0.25, 0.25)])
        # (0.25, 0.25) lies on the shared diagonal; lowest triangle index wins
        assert tris[0] == 0

    def test_vertex_location(self):
        # Each vertex goes to the lowest-index triangle around it.
        m = generate_unit_square(2)
        offsets, around = m.vertex_to_triangles()
        assert m.locate_points(m.vertices[4])[0] == around[offsets[4]]
        assert np.array_equal(m.locate_points(m.vertices), around[offsets[:-1]])

    def test_small_cell_far_from_origin_locates_its_vertices(self):
        # One 1/768 cell near (0.78, 0.05): in absolute coordinates the constant term of a
        # barycentric has a round-off of about eps/area, above LOCATE_TOL, and two corners
        # were held by no triangle.
        m = _lattice_mesh(_cell_block(600, 601, 40, 41), 768)
        offsets, around = m.vertex_to_triangles()
        assert np.array_equal(m.locate_points(m.vertices), around[offsets[:-1]])

    def test_outside(self):
        m = generate_unit_square(2)
        tris = m.locate_points([(2.0, 2.0)])
        assert tris[0] == -1

    def test_interior_samples_hit_their_triangle(self):
        m = generate_unit_square(3)
        rng = np.random.default_rng(11)
        lam = np.array([rng.dirichlet((2.0, 2.0, 2.0)) for _ in range(m.n_triangles)])
        pts = np.einsum("tk,tkd->td", lam, m.vertices[m.triangles])
        tris = m.locate_points(pts)
        assert np.array_equal(tris, np.arange(m.n_triangles))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 6), block=st.sampled_from([1, 5, 64, 2**13]),
           seed=st.integers(0, 2**32 - 1))
    def test_holds_matches_contains(self, n, block, seed):
        # Rows of points of one triangle (a vertex, an edge midpoint, a vertex
        # moved by 1e-13 and an inner or random point), tested against that
        # triangle or, every third row, another one: Mesh.holds gives the
        # booleans of the broadcast barycentric test, NaN included, in blocks
        # of any size.
        rng = np.random.default_rng(seed)
        m = unstructured_mesh(n, rng, None)
        own = rng.integers(0, m.n_triangles, 200)
        tris = np.where(np.arange(200) % 3 == 2, rng.integers(0, m.n_triangles, 200), own)
        v = m.vertices[m.triangles[own]]  # (200, 3, 2)
        inner = np.einsum("nk,nkd->nd", rng.dirichlet((1.0, 1.0, 1.0), 200), v)
        pts = np.stack([v[:, 0], 0.5 * (v[:, 0] + v[:, 1]),
                        v[:, 2] + 1e-13 * rng.standard_normal((200, 2)),
                        np.where(np.arange(200)[:, None] % 5 == 4, rng.random((200, 2)), inner)],
                       axis=1)  # (200, 4, 2)
        pts[::7, 3] = np.nan
        want = contains(m, tris[:, None], pts).all(axis=1)
        with mock.patch("eqflux.mesh._HOLD_BLOCK", block):
            got = m.holds(tris, pts[..., 0].T, pts[..., 1].T)
        assert np.array_equal(got, want) and want.any() and not want.all()

    def test_holds_own_corners_only(self):
        m = generate_unit_square(2)
        v = m.vertices[m.triangles]  # (T, 3, 2): every triangle's own corners
        t = np.arange(m.n_triangles)
        assert m.holds(t, v[..., 0].T, v[..., 1].T).all()
        assert not m.holds(t, v[::-1, :, 0].T, v[::-1, :, 1].T).any()  # another triangle's corners

    @pytest.mark.parametrize("n", [1, 3, 7, 24, 64])
    def test_lattice_grid_one_cell_per_triangle(self, n):
        m = generate_unit_square(n)
        offsets, cell_tris = m._bucket_grid()[-2:]
        assert np.diff(offsets).max() <= 2
        assert np.array_equal(np.sort(cell_tris), np.arange(m.n_triangles))

    @pytest.mark.parametrize("name", ["lattice", "renumbered", "jittered", "bump"])
    def test_cell_line_probes_match_loop_oracle(self, name):
        m = _location_mesh(name)
        pts = _cell_line_probes(m, np.random.default_rng(5))
        tris = m.locate_points(pts)
        assert np.array_equal(tris, locate_points_loop(m, pts))
        assert (m.locate_points(m.vertices) >= 0).all() and (tris[-4:] < 0).all()

    def test_many_points_match_chunks_and_loop_oracle(self):
        # One call on more than 2**15 points (cell-line probes among random
        # points, some outside) equals calls on chunks of fewer points, and the
        # point-by-point oracle on a random subset.
        rng = np.random.default_rng(17)
        m = unstructured_mesh(24, rng, None)
        lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
        probes = _cell_line_probes(m, rng)
        pts = np.vstack([probes, lo - 0.05 + rng.random((40000 - len(probes), 2)) * (hi - lo + 0.1)])
        pts = pts[rng.permutation(len(pts))]
        assert len(pts) > 2**15
        tris = m.locate_points(pts)
        chunks = [m.locate_points(pts[s:s + 9973]) for s in range(0, len(pts), 9973)]
        assert np.array_equal(tris, np.concatenate(chunks))
        sub = rng.choice(len(pts), 500, replace=False)
        assert np.array_equal(tris[sub], locate_points_loop(m, pts[sub]))
        assert (tris >= 0).any() and (tris < 0).any()


def _location_mesh(name):
    lattice = generate_unit_square(6)
    if name == "lattice":
        return lattice
    if name == "renumbered":
        # Reversed numbering puts the lowest index on a cell line's high side.
        return Mesh(lattice.vertices, lattice.triangles[::-1])
    if name == "jittered":
        return unstructured_mesh(6, np.random.default_rng(3), None)
    bump = FeatureSpec(1, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0))  # span 0.4 x 0.2
    return feature_mesh(bump, 20, DomainSpec(features=[bump]))


def _cell_line_probes(mesh, rng):
    """Points on the grid's cell lines and at their crossings, on edges,
    vertices, points 1e-13 off every vertex and boundary edge on both sides,
    and points far outside."""
    lo, cell, ncell = mesh._bucket_grid()[:3]
    hi = mesh.vertices.max(axis=0)
    x, y = (lo + np.arange(ncell + 1)[:, None] * cell).T
    u = lo + rng.random((ncell + 1, 2)) * (hi - lo)
    crossings = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
    ends = mesh.vertices[mesh.edge_vertices]
    on_edge = ends[:, 0] + rng.random((mesh.n_edges, 1)) * (ends[:, 1] - ends[:, 0])
    b = mesh.boundary_edge_ids
    off = 1e-13 * np.vstack([mesh.edge_normals[b], -mesh.edge_normals[b]])
    near_vertices = mesh.vertices + 1e-13 * rng.choice([-1.0, 1.0], size=mesh.vertices.shape)
    far = np.array([lo - (hi - lo), hi + (hi - lo), [lo[0] - 10.0, (lo[1] + hi[1]) / 2], [1e6, hi[1]]])
    return np.vstack([
        crossings, np.column_stack([x, u[:, 1]]), np.column_stack([u[:, 0], y]),
        mesh.vertices, near_vertices, ends.mean(axis=1), on_edge,
        np.tile(ends[b].mean(axis=1), (2, 1)) + off, far,
    ])


class TestEdgesNear:
    """``Mesh.edges_near`` lists every edge whose bounding box meets a segment's
    box padded as ``clip_curve_to_mesh`` pads it, once per segment."""

    @staticmethod
    def _mesh(name, n, rng):
        if name == "lattice":
            return generate_unit_square(n)
        if name == "unstructured":
            return unstructured_mesh(n, rng, None)
        if name == "refined":
            return uniform_refine(unstructured_mesh(n, rng, None))
        features = [FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0)),
                    FeatureSpec(2, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0))]
        return generate_with_rect_features(5 * n, features, [True, True], dirichlet_x01)

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["lattice", "unstructured", "refined", "rect"]),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_superset_of_box_hits(self, name, n, seed):
        rng = np.random.default_rng(seed)
        mesh = self._mesh(name, n, rng)
        lo, cell, ncell = mesh._bucket_grid()[:3]
        span = mesh.vertices.max(axis=0) - lo
        k = 16
        on_lines = lo + cell * rng.integers(-1, ncell + 2, size=(k, 2))  # some outside
        vertices = mesh.vertices[rng.integers(0, mesh.n_vertices, size=k)]
        anywhere = lo - 0.25 * span + 1.5 * span * rng.random((k, 2))
        P = np.vstack([on_lines, vertices, anywhere, on_lines, vertices])
        Q = np.vstack([on_lines[::-1], vertices[::-1], anywhere[::-1],
                       np.column_stack([on_lines[::-1, 0], on_lines[:, 1]]), on_lines])
        box_lo, box_hi = np.minimum(P, Q), np.maximum(P, Q)
        pad = 1e-9 * np.maximum(np.linalg.norm(Q - P, axis=1), 1.0)[:, None, None]
        ends = mesh.vertices[mesh.edge_vertices]
        hits = ((ends.min(axis=1) <= box_hi[:, None] + pad)
                & (ends.max(axis=1) >= box_lo[:, None] - pad)).all(axis=2)

        s, e = mesh.edges_near(box_lo, box_hi)
        key = s * mesh.n_edges + e
        assert (np.diff(key) > 0).all()
        assert np.isin(np.flatnonzero(hits.ravel()), key).all()


class TestUniformRefine:
    def test_counts(self):
        m = generate_unit_square(1)
        f = uniform_refine(m)
        assert f.n_triangles == 8
        assert f.n_vertices == 9

    def test_refine_twice_matches_square4(self):
        f = uniform_refine(uniform_refine(generate_unit_square(1)))
        g = generate_unit_square(4)

        def canon(mesh):
            tris = set()
            for t in mesh.triangles:
                pts = tuple(sorted(map(tuple, np.round(mesh.vertices[t], 12))))
                tris.add(pts)
            return tris

        assert canon(f) == canon(g)

    def test_marker_counts_double(self):
        m = generate_unit_square(2, dirichlet_x01)
        f = uniform_refine(m)
        assert len(marked_edges(f, kind="dirichlet")) == 2 * len(
            marked_edges(m, kind="dirichlet")
        )
        assert f.total_area() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("levels", [1, 2])
    def test_markers_match_child_loop(self, levels):
        features = [
            FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0)),
            FeatureSpec(2, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0)),
        ]
        m = generate_with_rect_features(5, features, [True, True], dirichlet_x01)
        for _ in range(levels):
            f = uniform_refine(m)
            # edge (i, j) with midpoint vertex V + e passes its marker to both halves
            ids = {tuple(ev): k for k, ev in enumerate(f.edge_vertices.tolist())}
            want = [None] * f.n_edges
            for e, marker in enumerate(m.edge_markers):
                i, j = m.edge_vertices[e].tolist()
                for a, b in ((i, m.n_vertices + e), (j, m.n_vertices + e)):
                    want[ids[(a, b)]] = marker
            assert f.edge_markers == want
            m = f

    @pytest.mark.parametrize("kind", ["lattice", "rect_features", "unstructured"])
    def test_root_holds_descendants(self, kind):
        # Child t of a mesh refined `levels` times lies in root triangle
        # t >> 2 * levels, which holds all three of its vertices; coarser_levels
        # reads each parent back, finest first, with its edge midpoints, in the
        # fine mesh's vertex ids.
        root = {
            "lattice": lambda: generate_unit_square(5, dirichlet_x01),
            "rect_features": lambda: generate_with_rect_features(5, [
                FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0)),
                FeatureSpec(2, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0)),
            ], [True, True], dirichlet_x01),
            "unstructured": lambda: unstructured_mesh(4, np.random.default_rng(7), None),
        }[kind]()
        meshes = [root]
        for levels in (1, 2):
            meshes.append(uniform_refine(meshes[-1]))
            fine, v = meshes[-1], meshes[-1].vertices
            assert fine.levels == levels
            assert fine.n_triangles == root.n_triangles << 2 * levels
            for (tri, mids), parent in zip(fine.coarser_levels(), meshes[-2::-1], strict=True):
                assert np.array_equal(tri, parent.triangles)
                assert np.array_equal(v[:parent.n_vertices], parent.vertices)
                assert np.array_equal(v[mids], 0.5 * (v[tri] + v[np.roll(tri, -1, axis=1)]))
            t = np.arange(fine.n_triangles)
            x, y = (fine.vertices[fine.triangles.T, d] for d in (0, 1))
            assert root.holds(t >> 2 * levels, x, y).all()

    def test_built_and_read_meshes_have_no_ancestry(self, tmp_path):
        m = generate_unit_square(3, dirichlet_x01)
        write_mesh(m, tmp_path / "m.json")
        for mesh in (m, Mesh(m.vertices, m.triangles), read_mesh(tmp_path / "m.json")):
            assert mesh.levels == 0 and not list(mesh.coarser_levels())
            assert not hasattr(mesh, "root")

    def test_unmarked_mesh_refines_unmarked(self):
        m = generate_unit_square(3)
        bare = Mesh(m.vertices, m.triangles)  # no markers: not validated
        f = uniform_refine(uniform_refine(bare))
        assert f.n_triangles == 16 * bare.n_triangles
        assert all(marker is None for marker in f.edge_markers)

    def test_partly_marked_mesh_child_validated(self):
        m = generate_unit_square(3)
        partly = Mesh(m.vertices, m.triangles)
        partly.set_markers(*m.edge_vertices[m.boundary_edge_ids[:1]].T, [EdgeMarker("dirichlet")])
        with pytest.raises(MeshError, match="unmarked boundary edge"):
            uniform_refine(partly)

    def test_edge_ids_reports_first_missing_pair(self):
        m = generate_unit_square(2, dirichlet_x01)
        with pytest.raises(MeshError, match="no edge between vertices 0 and 8"):
            m.edge_ids([0, 0], [1, 8])
        for _ in range(2):  # a refined mesh sorts its keys on the first edge_ids call
            parent, m = m, uniform_refine(m)
            # both halves (i, V + e), (V + e, j) of each parent edge are found
            (i, j), mid = parent.edge_vertices.T, parent.n_vertices + np.arange(parent.n_edges)
            halves = m.edge_ids(np.stack([i, mid]), np.stack([mid, j]))
            assert np.array_equal(m.edge_vertices[halves], np.stack([[i, j], [mid, mid]], axis=2))
            a, b = m.edge_vertices[-1]
            with pytest.raises(MeshError, match="no edge between vertices 0 and 8"):
                m.edge_ids([a, 0, 0], [b, 8, 1])

    @staticmethod
    def _parent(kind, n, rng):
        return {
            "lattice": lambda: generate_unit_square(n, dirichlet_x01),
            "rect_features": lambda: generate_with_rect_features(5 * (1 + n % 2), [
                FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0)),
                FeatureSpec(2, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0)),
            ], [True, True], dirichlet_x01),
            "unstructured": lambda: unstructured_mesh(n, rng, dirichlet_x01),
        }[kind]()

    @pytest.mark.parametrize("kind", ["lattice", "rect_features", "unstructured"])
    def test_closed_form_edge_layout(self, kind):
        # Half c of parent edge e is edge 2e + c, at the parent's vertex edge_vertices[e, c],
        # and carries e's marker; inner edge k of parent triangle t is edge 2E + 3t + k.
        m = self._parent(kind, 3, np.random.default_rng(4))
        for _ in range(2):
            f = uniform_refine(m)
            V, E, T = m.n_vertices, m.n_edges, m.n_triangles
            assert f.n_edges == 2 * E + 3 * T
            halves = np.arange(2 * E)
            assert np.array_equal(f.edge_vertices[halves, 0], m.edge_vertices.ravel())
            assert np.array_equal(f.edge_vertices[halves, 1], V + halves // 2)
            assert f.edge_markers == [x for x in m.edge_markers for _ in (0, 1)] + [None] * 3 * T
            mids = np.sort(V + m.triangle_edges[:, [[0, 2], [1, 0], [2, 1]]], axis=2)
            assert np.array_equal(f.edge_vertices[2 * E:], mids.reshape(-1, 2))
            want = refined_edges_loop(m)
            assert np.array_equal(f.edge_vertices, want[0])
            assert np.array_equal(f.triangle_edges, want[1])
            assert f.edge_markers == want[2]
            m = f

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["lattice", "rect_features", "unstructured"]),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           marking=st.sampled_from(["marked", "unmarked", "partly"]))
    def test_child_equals_rebuilt_mesh(self, kind, n, seed, marking):
        # The child is the mesh Mesh() builds on its triangles up to the closed-form edge
        # numbering: the same vertex pairs, with bitwise the same per-edge and per-triangle
        # arrays by pair, and the markers that set_markers puts on the halves (i, V + e), (V + e, j).
        rng = np.random.default_rng(seed)
        m = self._parent(kind, n, rng)
        if marking != "marked":
            bare = Mesh(m.vertices, m.triangles)
            if marking == "partly":
                e = int(rng.choice(m.boundary_edge_ids))
                bare.set_markers(*m.edge_vertices[[e]].T, [m.edge_markers[e]])
                with pytest.raises(MeshError, match="unmarked boundary edge"):
                    uniform_refine(bare)
                return
            m = bare
        for _ in range(2):
            f = uniform_refine(m)
            g = Mesh(f.vertices, f.triangles)
            pairs = g.edge_vertices.T
            perm = f.edge_ids(*pairs)  # f's number of each edge of g
            assert f.n_edges == g.n_edges and np.array_equal(np.sort(perm), np.arange(g.n_edges))
            assert np.array_equal(f.edge_ids(*pairs[::-1]), perm)
            assert np.array_equal(g.edge_ids(*pairs), np.arange(g.n_edges))
            for e in marked_edges(m).tolist():
                for a, b in zip(m.edge_vertices[e], [m.n_vertices + e] * 2):
                    g.set_markers([a], [b], [m.edge_markers[e]])
            assert [f.edge_markers[e] for e in perm.tolist()] == g.edge_markers
            assert vars(f).keys() == vars(g).keys()
            per_edge = ("edge_vertices", "edge_tris", "on_boundary", "edge_lengths",
                        "edge_normals", "edge_outward_sign")
            for k, v in vars(g).items():
                if isinstance(v, np.ndarray) and not k.startswith("_"):
                    w = getattr(f, k)[perm] if k in per_edge else getattr(f, k)
                    if k in ("triangle_edges", "boundary_edge_ids"):
                        v = perm[v] if k == "triangle_edges" else np.sort(perm[v])
                    assert (w.dtype, w.shape, w.tobytes()) == (v.dtype, v.shape, v.tobytes()), k
            m = f

    @pytest.mark.parametrize("mutation", ["boundary edge unmarked", "interior edge dirichlet"])
    def test_mutated_parent_markers_raise(self, mutation):
        # The parent is validated, not its child: the message names the parent's edge.
        m = generate_unit_square(3, dirichlet_x01)
        if mutation == "boundary edge unmarked":
            e = int(m.boundary_edge_ids[1])
            m.edge_markers[e] = None
            match = r"unmarked boundary edge \({}, {}\)".format(*m.edge_vertices[e])
        else:
            e = int(np.flatnonzero(~m.on_boundary)[2])
            m.edge_markers[e] = EdgeMarker("dirichlet")
            match = f"interior edge {e} carries marker"
        with pytest.raises(MeshError, match=match):
            uniform_refine(m)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        m = generate_unit_square(2, dirichlet_x01)
        path = tmp_path / "m.json"
        write_mesh(m, path)
        r = read_mesh(path)
        assert np.array_equal(r.vertices, m.vertices)
        assert np.array_equal(r.triangles, m.triangles)
        assert r.edge_markers == m.edge_markers

    def test_clockwise_triangle_rejected(self, tmp_path):
        doc = {
            "vertices": [[0, 0], [1, 0], [0, 1]],
            "triangles": [[0, 2, 1]],
            "boundary_edges": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="triangle 0"):
            read_mesh(path)

    def test_unmarked_boundary_edge_rejected(self, tmp_path):
        doc = {
            "vertices": [[0, 0], [1, 0], [0, 1]],
            "triangles": [[0, 1, 2]],
            "boundary_edges": [
                [0, 1, "dirichlet", None, None],
                [1, 2, "dirichlet", None, None],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="unmarked boundary edge"):
            read_mesh(path)

    @pytest.mark.parametrize("triangles, match", [
        # two triangles traverse edge (0, 1) from 0 to 1
        ([[0, 1, 2], [0, 1, 3]], r"edge \(0, 1\) traversed twice in the same "
                                 r"direction \(triangles 0 and 1\)"),
        # three triangles share edge (0, 1)
        ([[0, 1, 2], [1, 0, 4], [0, 1, 3]], r"edge \(0, 1\) traversed twice in the "
                                            r"same direction \(triangles 0 and 2\)"),
    ])
    def test_non_manifold_edge_rejected(self, tmp_path, triangles, match):
        doc = {
            "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]],
            "triangles": triangles,
            "boundary_edges": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=match):
            read_mesh(path)

    def test_unused_vertex_rejected(self, tmp_path):
        from eqflux.config import specs_from_config
        from eqflux.presets import preset_config
        from eqflux.run import build_computational_mesh

        # The test2-neg mesh at n = 8 plus one vertex that no triangle uses.
        m = build_computational_mesh(specs_from_config(preset_config("test2-neg", n=8))[0])
        path = tmp_path / "m.json"
        write_mesh(m, path)
        doc = json.loads(path.read_text())
        doc["vertices"].append([0.31, 0.77])
        path.write_text(json.dumps(doc))
        # raised as Mesh raises it, with no "invalid mesh arrays" prefix
        with pytest.raises(MeshError, match=f"^vertex {m.n_vertices} belongs to no triangle$"):
            read_mesh(path)
        corners = [[0, 0], [1, 0], [5, 5], [0, 1], [7, 7]]
        with pytest.raises(MeshError, match="vertex 2 belongs"):
            Mesh(np.array(corners, dtype=float), np.array([[0, 1, 3]]))

    def test_features_removing_every_cell_rejected(self):
        hole = FeatureSpec(3, NEGATIVE_BOUNDARY, rect_polygon(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(MeshError, match=r"features \[3\] remove every cell at n = 4"):
            generate_with_rect_features(4, [hole], [True])

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(MeshError, match="malformed"):
            read_mesh(path)

    @pytest.mark.parametrize("fault, match", [
        ([0, 99, "dirichlet", None, None], "^no edge between vertices 0 and 99$"),
        ([-1, 0, "dirichlet", None, None], "^no edge between vertices -1 and 0$"),
        ([0, 1, "dirichlet", None], r"^boundary edge row \[0, 1, 'dirichlet', None\] must have 5 "
                                    "entries$"),
        ([0, 1, "robin", None, None], "^unknown marker kind 'robin'$"),
        ([0, 1, "feature", 3, "gammaX"], "^unknown feature part 'gammaX'$"),
        ([0, 1, "feature", None, "gamma"], "^feature marker needs a feature id$"),
        ([0.5, 1, "dirichlet", None, None], r"^boundary edge row \[0.5, 1, 'dirichlet', None, "
                                            r"None\] must start with two integer vertex indices$"),
        (7, "^boundary edge row 7 must have 5 entries$"),
        ([0, "a", "dirichlet", None, None], r"^boundary edge row \[0, 'a', 'dirichlet', None, "
                                            r"None\] must start with two integer vertex indices$"),
    ])
    def test_faulty_row_in_middle_reported(self, tmp_path, fault, match):
        m = generate_unit_square(4, dirichlet_x01)
        path = tmp_path / "m.json"
        write_mesh(m, path)
        doc = json.loads(path.read_text())
        rows = doc["boundary_edges"]
        doc["boundary_edges"] = rows[:8] + [fault] + rows[8:]
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=match):
            read_mesh(path)

    @pytest.mark.parametrize("fid", ["1", 1.5])
    def test_non_integer_feature_id_rejected(self, tmp_path, fid):
        from eqflux.config import specs_from_config
        from eqflux.presets import preset_config
        from eqflux.run import build_exact_mesh

        # Read as written, such an id failed only later, at project_data.
        path = tmp_path / "exact.json"
        write_mesh(build_exact_mesh(specs_from_config(preset_config("test2-neg", n=8))[0]), path)
        doc = json.loads(path.read_text())
        rows = [row for row in doc["boundary_edges"] if row[2] == "feature"]
        assert rows
        for row in rows:
            row[3] = fid
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=f"^boundary edge row {re.escape(repr(rows[0]))} "
                                            "must give an integer feature id$"):
            read_mesh(path)

    @pytest.mark.parametrize("index", [0.7, -0.5])
    def test_non_integer_triangle_index_rejected(self, tmp_path, index):
        path = tmp_path / "m.json"
        write_mesh(generate_unit_square(2, dirichlet_x01), path)
        doc = json.loads(path.read_text())
        doc["triangles"][0][0] = index
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="^triangles must hold integer vertex indices$"):
            read_mesh(path)

    def test_constructor_checks_triangle_indices(self):
        m = generate_unit_square(2)
        assert np.array_equal(Mesh(m.vertices, m.triangles.astype(float)).triangles, m.triangles)
        for bad in (0.7, -0.5, np.nan):
            t = m.triangles.astype(float)
            t[0, 0] = bad
            with pytest.raises(MeshError, match="^triangles must hold integer vertex indices$"):
                Mesh(m.vertices, t)

    def test_markers_equal_one_row_at_a_time(self, tmp_path):
        m = unstructured_mesh(6, np.random.default_rng(3), dirichlet_x01)
        e = m.boundary_edge_ids[2]
        i, j = m.edge_vertices[e].tolist()
        # the same edge twice, in both orders: the later row wins
        pairs = {(int(a), int(b)): m.edge_markers[k] for k, (a, b) in enumerate(m.edge_vertices)
                 if m.edge_markers[k] is not None} | {(j, i): EdgeMarker("neumann")}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "vertices": m.vertices.tolist(), "triangles": m.triangles.tolist(),
            "boundary_edges": [[a, b, mk.kind, mk.feature_id, mk.part]
                               for (a, b), mk in pairs.items()]}))
        want = Mesh(m.vertices, m.triangles)
        for (a, b), mk in pairs.items():
            want.set_markers([a], [b], [mk])
        assert want.edge_markers[e] == EdgeMarker("neumann")
        assert read_mesh(path).edge_markers == want.edge_markers
        assert Mesh(m.vertices, m.triangles, edge_markers=pairs).edge_markers == want.edge_markers

    def test_interior_marker_must_be_interface(self):
        m = generate_unit_square(2, dirichlet_x01)
        # diagonal edge of the first cell is interior
        m.set_markers([0], [4], [EdgeMarker("dirichlet")])
        with pytest.raises(MeshError, match="interior edge"):
            m.validate_markers()

    @pytest.mark.parametrize("first", ["interior", "boundary"])
    def test_first_offending_edge_reported(self, first):
        m = generate_unit_square(3, dirichlet_x01)
        interior = np.flatnonzero((m.edge_tris >= 0).all(axis=1))
        boundary = m.boundary_edge_ids
        e_int, e_bnd = (interior[0], boundary[-1]) if first == "interior" else (
            interior[-1], boundary[0])
        m.edge_markers[e_int] = EdgeMarker("neumann")
        m.edge_markers[e_bnd] = None
        i, j = m.edge_vertices[e_bnd]
        match = f"interior edge {e_int} " if first == "interior" else (
            rf"unmarked boundary edge \({i}, {j}\)")
        with pytest.raises(MeshError, match=match):
            m.validate_markers()


def _probe_points(mesh, rng):
    """Vertices, points on edges, points within 1e-13 off edges, points inside
    triangles and points around the hull."""
    ends = mesh.vertices[mesh.edge_vertices]
    on_edge = ends[:, 0] + rng.random((mesh.n_edges, 1)) * (ends[:, 1] - ends[:, 0])
    side = rng.choice([-1.0, 1.0], size=(mesh.n_edges, 1))
    off_edge = on_edge + 1e-13 * side * mesh.edge_normals
    lam = rng.dirichlet((1.0, 1.0, 1.0), size=mesh.n_triangles)
    inside = np.einsum("tk,tkd->td", lam, mesh.vertices[mesh.triangles])
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    around = lo - 0.25 * (hi - lo) + 1.5 * rng.random((40, 2)) * (hi - lo)
    return np.vstack([mesh.vertices, on_edge, off_edge, inside, around])


def _probe_curves(mesh, n, rng):
    """A random polyline, a 16-gon, a line along lattice edges, a diagonal and
    a line along a cell line of the mesh's bucket grid."""
    lo, cell, ncell = mesh._bucket_grid()[:3]
    x = lo[0] + (ncell // 3) * cell[0]
    return [
        [0.05 + 0.9 * rng.random((4, 2))],
        [closed_loop(regular_polygon(0.3 + 0.4 * rng.random(2), 0.15, 16))],
        [np.array([[0.0, 2 / n], [1.0, 2 / n]])],
        [np.array([[0.0, 0.0], [1.0, 1.0]])],
        [np.array([[x, 0.1], [x, 0.9]])],
    ]


class TestArrayMeshOracles:
    """Edge topology, point location, curve clipping and lattices against the
    dict-and-loop oracles, on jiggled meshes read back through the JSON format
    and on refined meshes with rectangular features."""

    @staticmethod
    def _read_back(mesh):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.json")
            write_mesh(mesh, path)
            return read_mesh(path)

    @staticmethod
    def _check(mesh, rng, n, parent=None):
        # A refined mesh numbers its edges in closed form from its parent, and has the
        # loop's pairs and edge triangles in that order; a built one in first-corner order.
        ev, et, te = build_edges_loop(mesh.triangles)
        perm = np.arange(len(ev))
        if parent is not None:
            perm = mesh.edge_ids(*ev.T)
            want = refined_edges_loop(parent)
            assert np.array_equal(mesh.edge_vertices, want[0])
            assert np.array_equal(mesh.triangle_edges, want[1])
        assert np.array_equal(mesh.edge_vertices[perm], ev)
        assert np.array_equal(mesh.edge_tris[perm], et)
        assert np.array_equal(mesh.triangle_edges, perm[te])

        pts = _probe_points(mesh, rng)
        tris = mesh.locate_points(pts)
        assert np.array_equal(tris, locate_points_loop(mesh, pts))
        assert (tris[: mesh.n_vertices] >= 0).all() and (tris < 0).any()

        for curve in _probe_curves(mesh, n, rng):
            try:
                ref = clip_curve_loop(curve, mesh)
            except GeometryError:
                with pytest.raises(GeometryError):
                    clip_curve_to_mesh(curve, mesh)
                continue
            q = clip_curve_to_mesh(curve, mesh)
            assert np.array_equal(q.nodes, ref[0])
            assert np.array_equal(q.weights, ref[1])
            assert np.array_equal(q.node_tris, ref[2])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_unstructured(self, n, seed):
        rng = np.random.default_rng(seed)
        mesh = self._read_back(unstructured_mesh(n, rng, dirichlet_x01))
        self._check(mesh, rng, n)

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 3), notch=st.booleans(), bump=st.booleans(),
           levels=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_refined_rect_features(self, k, notch, bump, levels, seed):
        n = 5 * k
        features = [
            FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0)),
            FeatureSpec(2, POSITIVE, rect_polygon(0.2, 0.6, -0.2, 0.0)),
        ]
        mesh = generate_with_rect_features(n, features, [notch, bump], dirichlet_x01)
        holes = [(2 * k, 3 * k, 4 * k, 5 * k)] if notch else []
        bumps = [(k, 3 * k, -k, 0)] if bump else []
        vertices, triangles = lattice_loop(n, holes, bumps)
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.triangles, triangles)
        parent = None
        for _ in range(levels):
            parent, mesh = mesh, uniform_refine(mesh)
        self._check(mesh, np.random.default_rng(seed), n, parent)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_unit_square_lattice(self, n):
        m = generate_unit_square(n)
        vertices, triangles = lattice_loop(n)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.triangles, triangles)

    @pytest.mark.parametrize("extension", [False, True])
    def test_feature_lattice(self, extension):
        n = 10
        ext = ExtensionSpec(rect_polygon(0.2, 0.8, -0.2, 0.0)) if extension else None
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0), extension=ext)
        m = feature_mesh(bump, n, DomainSpec(features=[bump]))
        vertices, triangles = block_lattice_loop(n, 2 if extension else 4,
                                                 8 if extension else 6, -2, 0)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.triangles, triangles)


def _cell_rows(i0, i1, j0, j1):
    """Lattice cells ``(i, j)`` of ``[i0, i1) × [j0, j1)``, row-major."""
    j, i = np.mgrid[j0:j1, i0:i1].reshape(2, -1)
    return np.column_stack([i, j])


class TestLatticeNumbering:
    """The integer-key corner numbering of the lattice generators against the
    row-wise ``np.unique(axis=0)`` numbering of ``(outside, j, i)``."""

    # Cell ranges (i0, i1, j0, j1) at n = 8: a hole, an inner hole, a notch on
    # y = 1, and bumps below, right of, above and left of the square.
    HOLES = [(2, 4, 2, 4), (5, 6, 4, 7), (2, 4, 7, 8)]
    BUMPS = [(2, 4, -2, 0), (8, 9, 1, 4), (4, 7, 8, 11), (-3, 0, 5, 6)]

    @pytest.mark.parametrize("n", [*range(1, 13), 31, 64])
    def test_unit_square(self, n):
        m = generate_unit_square(n)
        vertices, triangles = lattice_unique_rows(_cell_rows(0, n, 0, n), n)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.triangles, triangles)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 3), include=st.lists(st.booleans(), min_size=7, max_size=7))
    def test_rect_features(self, k, include):
        n = 8 * k
        features = [FeatureSpec(f, POSITIVE if f >= len(self.HOLES) else NEGATIVE_BOUNDARY,
                                rect_polygon(*(np.array(r) / 8)))
                    for f, r in enumerate(self.HOLES + self.BUMPS)]
        m = generate_with_rect_features(n, features, include)
        keep = np.ones((n, n), dtype=bool)  # [j, i]
        bumps = []
        for f, (i0, i1, j0, j1) in enumerate(np.array(self.HOLES + self.BUMPS) * k):
            if include[f] and f < len(self.HOLES):
                keep[j0:j1, i0:i1] = False
            elif include[f]:
                bumps.append(_cell_rows(i0, i1, j0, j1))
        cells = np.concatenate([_cell_rows(0, n, 0, n)[keep.ravel()]] + bumps)
        vertices, triangles = lattice_unique_rows(cells, n, square_first=True)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.triangles, triangles)

    @pytest.mark.parametrize("square_first", [False, True])
    @pytest.mark.parametrize("block", [(-3, 5, -4, -1), (2, 7, 3, 9), (-2, 0, -2, 0), (0, 0, 0, 0)])
    def test_blocks_off_the_square(self, block, square_first):
        m = _lattice_mesh(_cell_rows(*block), 4, square_first)
        vertices, triangles = lattice_unique_rows(_cell_rows(*block), 4, square_first)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.triangles, triangles)
