import numpy as np
import pytest
from conftest import segment_integral

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
    curve_length,
    feature_mesh,
    gauss_legendre,
    partition_feature_boundary,
    rect_polygon,
    regular_polygon,
)
from eqflux.mesh import MeshError, generate_unit_square


class TestGaussLegendre:
    def test_order1_midpoint(self):
        x, w = gauss_legendre(1)
        assert x == pytest.approx([0.5])
        assert w == pytest.approx([1.0])

    def test_order2(self):
        x, w = gauss_legendre(2)
        assert sorted(x) == pytest.approx(
            [(1 - 1 / np.sqrt(3)) / 2, (1 + 1 / np.sqrt(3)) / 2]
        )
        assert w == pytest.approx([0.5, 0.5])

    def test_cubic_exact_with_order2(self):
        x, w = gauss_legendre(2)
        assert float(np.sum(w * x**3)) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("order", [0, 11])
    def test_unsupported_order(self, order):
        with pytest.raises(GeometryError):
            gauss_legendre(order)


class TestCurveLength:
    def test_unit_segment(self):
        assert curve_length(np.array([[0.0, 0.0], [1.0, 0.0]])) == 1.0

    def test_regular_16gon(self):
        eps = 0.3
        poly = regular_polygon((0.2, 0.2), eps, 16)
        L = curve_length(closed_loop(poly))
        assert L == pytest.approx(32 * eps * np.sin(np.pi / 16), rel=1e-12)

    def test_three_notch_sides(self):
        # left+bottom+right of the 0.2 notch
        line = np.array([[0.4, 1.0], [0.4, 0.8], [0.6, 0.8], [0.6, 1.0]])
        assert curve_length(line) == pytest.approx(0.6, abs=1e-12)


class TestPartition:
    def test_internal_hole(self):
        hole = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.3, 0.5, 0.3, 0.5))
        parts = partition_feature_boundary(hole, DomainSpec(features=[hole]))
        assert parts["gamma0"] == []
        assert curve_length(parts["gamma"]) == pytest.approx(0.8)

    def test_top_notch(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        dom = DomainSpec(
            features=[notch], dirichlet=lambda x, y: abs(x) < 1e-12 or abs(x - 1) < 1e-12
        )
        parts = partition_feature_boundary(notch, dom)
        # the shared part is the rectangle side lying on the outer boundary (y=1)
        (g0,) = parts["gamma0"]
        assert np.allclose(g0[:, 1], 1.0)
        assert curve_length(parts["gamma0"]) == pytest.approx(0.2)
        assert curve_length(parts["gamma"]) == pytest.approx(0.6)

    def test_bottom_bump(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0))
        dom = DomainSpec(
            features=[bump], dirichlet=lambda x, y: abs(x) < 1e-12 or abs(x - 1) < 1e-12
        )
        parts = partition_feature_boundary(bump, dom)
        (g0,) = parts["gamma0"]
        assert np.allclose(g0[:, 1], 0.0)
        assert curve_length(parts["gamma0"]) == pytest.approx(0.2)
        # without an extension the free boundary doubles as gammaR
        assert curve_length(parts["gammaR"]) == pytest.approx(0.6)
        assert parts["gammaS"] == []

    def test_feature_on_dirichlet_rejected(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        dom = DomainSpec(features=[notch], dirichlet=lambda x, y: abs(y - 1) < 1e-12)
        with pytest.raises(GeometryError, match="Dirichlet"):
            partition_feature_boundary(notch, dom)

    def test_internal_feature_touching_boundary_rejected(self):
        bad = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.4, 0.6, 0.8, 1.0))
        with pytest.raises(GeometryError):
            partition_feature_boundary(bad, DomainSpec(features=[bad]))

    def test_extension_partition(self):
        # F is the upper half of the extension rectangle F~
        f = FeatureSpec(
            1,
            POSITIVE,
            rect_polygon(0.4, 0.6, -0.1, 0.0),
            extension=ExtensionSpec(rect_polygon(0.4, 0.6, -0.2, 0.0)),
        )
        dom = DomainSpec(features=[f], dirichlet=lambda x, y: abs(x) < 1e-12)
        parts = partition_feature_boundary(f, dom)
        assert curve_length(parts["gamma0"]) == pytest.approx(0.2)
        # the two vertical sides of F lie on the extension boundary
        assert curve_length(parts["gammaS"]) == pytest.approx(0.2)
        # the bottom of F is interior to F~
        assert curve_length(parts["gammaR"]) == pytest.approx(0.2)
        # extension boundary minus the feature boundary
        assert curve_length(parts["gammaTilde"]) == pytest.approx(0.4)
        total = sum(
            curve_length(parts[k]) for k in ("gamma0", "gammaS", "gammaR", "gammaTilde")
        )
        assert total == pytest.approx(
            curve_length(closed_loop(f.polygon))
            + curve_length(parts["gammaTilde"]),
            abs=1e-12,
        )


class TestClipCurve:
    def test_horizontal_line_subdivision(self):
        m = generate_unit_square(2)
        q = clip_curve_to_mesh(np.array([[0.0, 0.25], [1.0, 0.25]]), m, 4)
        # crossings at x = 0.25 (diagonal), 0.5 (vertical), 0.75 (diagonal)
        assert len(q.seg_tris) == 4
        assert q.length == pytest.approx(1.0, abs=1e-12)

    def test_segment_inside_one_triangle(self):
        m = generate_unit_square(2)
        q = clip_curve_to_mesh(np.array([[0.05, 0.02], [0.2, 0.05]]), m, 4)
        assert len(q.seg_tris) == 1

    def test_16gon_total_weight(self):
        eps = 0.07
        m = generate_unit_square(8)
        loop = closed_loop(regular_polygon((0.5, 0.5), eps, 16))
        q = clip_curve_to_mesh(loop, m, 4)
        assert q.length == pytest.approx(32 * eps * np.sin(np.pi / 16), rel=1e-12)

    def test_exits_hull(self):
        m = generate_unit_square(2)
        with pytest.raises(GeometryError):
            clip_curve_to_mesh(np.array([[0.5, 0.5], [1.5, 0.5]]), m, 4)

    def test_weights_invariant_under_refinement(self):
        from eqflux.mesh import uniform_refine

        loop = closed_loop(regular_polygon((0.45, 0.55), 0.11, 16))
        m = generate_unit_square(4)
        q1 = clip_curve_to_mesh(loop, m, 4)
        q2 = clip_curve_to_mesh(loop, uniform_refine(m), 4)
        assert q1.length == pytest.approx(q2.length, rel=1e-12)

    def test_polynomial_integral_exact(self):
        # order 4 integrates degree <= 7 exactly on each sub-segment
        m = generate_unit_square(3)
        a, b = np.array([0.1, 0.2]), np.array([0.9, 0.7])
        q = clip_curve_to_mesh(np.array([a, b]), m, 4)
        f = lambda x, y: (2 * x - y) ** 3 + x * y
        approx = float(np.sum(q.weights * f(q.nodes[:, 0], q.nodes[:, 1])))
        exact = segment_integral(a, b, f)
        assert approx == pytest.approx(exact, rel=1e-12)

    def test_normals_follow_orientation(self):
        m = generate_unit_square(2)
        # CCW square loop: rotating tangents by -90 deg points outward
        loop = closed_loop(rect_polygon(0.25, 0.75, 0.25, 0.75))
        q = clip_curve_to_mesh(loop, m, 2)
        centers = q.nodes - np.array([0.5, 0.5])
        assert (np.einsum("nd,nd->n", centers, q.normals) > 0).all()


class TestFeatureMesh:
    def test_bump_mesh_markers(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0))
        dom = DomainSpec(features=[bump], dirichlet=lambda x, y: abs(x) < 1e-12)
        m = feature_mesh(bump, 10, dom)
        assert m.n_triangles == 8
        assert len(m.marked_edges(part="gamma0")) == 2
        assert len(m.marked_edges(part="gamma")) == 6

    def test_extension_mesh_markers(self):
        f = FeatureSpec(
            1,
            POSITIVE,
            rect_polygon(0.4, 0.6, -0.1, 0.0),
            extension=ExtensionSpec(rect_polygon(0.4, 0.6, -0.2, 0.0)),
        )
        dom = DomainSpec(features=[f], dirichlet=lambda x, y: abs(x) < 1e-12)
        m = feature_mesh(f, 10, dom)
        assert len(m.marked_edges(part="gamma0")) == 2
        # upper halves of the vertical sides are shared with the feature
        assert len(m.marked_edges(part="gammaS")) == 2
        # lower halves plus the bottom belong to the extension only
        assert len(m.marked_edges(part="gammaTilde")) == 4

    def test_off_grid_rectangle_rejected(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.43, 0.6, -0.2, 0.0))
        dom = DomainSpec(features=[bump], dirichlet=lambda x, y: abs(x) < 1e-12)
        with pytest.raises(MeshError, match="1/10 grid"):
            feature_mesh(bump, 10, dom)

    def test_non_positive_rejected(self):
        hole = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.3, 0.5, 0.3, 0.5))
        with pytest.raises(GeometryError):
            feature_mesh(hole, 10)
