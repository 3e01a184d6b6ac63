import numpy as np
import pytest
from conftest import (
    first_group_loop,
    marked_edges,
    partition_loop,
    point_on_segment,
    segment_integral,
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
    _on_segments,
    clip_curve_to_mesh,
    closed_loop,
    curve_length,
    feature_mesh,
    gauss_legendre,
    partition_feature_boundary,
    rect_polygon,
    regular_polygon,
)
from eqflux.mesh import EdgeMarker, MeshError, generate_unit_square, generate_with_rect_features

PARTS = ("gamma", "gamma0", "gammaS", "gammaR", "gammaTilde")


def assert_same_pieces(got, want):
    """Partitions equal part by part, polyline by polyline, bit for bit."""
    for part in PARTS:
        assert [line.tobytes() for line in got[part]] == [
            line.tobytes() for line in want[part]
        ], part


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

    def test_computed_once_read_only(self):
        x, w = gauss_legendre(4)
        assert gauss_legendre(4)[0] is x and gauss_legendre(4)[1] is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0


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

    def test_top_notch_with_dip(self):
        # A 4e-6 dip splits the shared side: two gamma0 pieces, not one line
        # bridging the gap (joined within a relative 1e-5 it would be 0.2 long).
        poly = [[0.4, 0.8], [0.6, 0.8], [0.6, 1.0], [0.500002, 1.0], [0.5, 0.99999],
                [0.499998, 1.0], [0.4, 1.0]]
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, np.array(poly))
        dom = DomainSpec(
            features=[notch], dirichlet=lambda x, y: abs(x) < 1e-12 or abs(x - 1) < 1e-12
        )
        parts = partition_feature_boundary(notch, dom)
        assert len(parts["gamma0"]) == 2
        assert curve_length(parts["gamma0"]) == pytest.approx(0.199996, abs=1e-12)
        assert_same_pieces(parts, partition_loop(notch, dom))

    def test_bottom_bump(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0))
        dom = DomainSpec(
            features=[bump], dirichlet=lambda x, y: abs(x) < 1e-12 or abs(x - 1) < 1e-12
        )
        parts = partition_feature_boundary(bump, dom)
        (g0,) = parts["gamma0"]
        assert np.allclose(g0[:, 1], 0.0)
        assert curve_length(parts["gamma0"]) == pytest.approx(0.2)
        # without an extension gammaS, gammaR and gammaTilde are empty
        assert parts["gammaS"] == parts["gammaR"] == parts["gammaTilde"] == []

    def test_feature_on_dirichlet_rejected(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        dom = DomainSpec(features=[notch], dirichlet=lambda x, y: abs(y - 1) < 1e-12)
        with pytest.raises(GeometryError, match="Dirichlet"):
            partition_feature_boundary(notch, dom)

    def test_non_finite_polygon_rejected(self):
        # NaN <= 0 is false, so the orientation check alone lets it through.
        poly = [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [np.nan, 0.6]]
        with pytest.raises(GeometryError, match="^feature 3 polygon has a non-finite coordinate$"):
            FeatureSpec(3, NEGATIVE_INTERNAL, poly)

    def test_non_finite_extension_polygon_rejected(self):
        ext = ExtensionSpec([[0.2, -0.3], [0.8, -0.3], [0.8, 0.0], [np.inf, 0.0]])
        with pytest.raises(GeometryError,
                           match="^feature 2 extension polygon has a non-finite coordinate$"):
            FeatureSpec(2, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0), extension=ext)

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


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_tiny = st.floats(-3e-12, 3e-12, allow_nan=False)


@st.composite
def _segment(draw):
    """A segment: ordinary, exactly degenerate, or shorter than or near tol."""
    a = np.array([draw(_coord), draw(_coord)])
    kind = draw(st.sampled_from(["ordinary", "point", "tiny", "short"]))
    if kind == "ordinary":
        b = np.array([draw(_coord), draw(_coord)])
    elif kind == "point":
        b = a.copy()
    else:
        scale = 1e-12 if kind == "tiny" else 1e-10
        b = a + scale * np.array([draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))])
    return a, b


@st.composite
def _probe(draw, a, b):
    """A point near segment a-b: on it, at its ends or beyond them, off it by
    1e-12-scale offsets, or anywhere."""
    ab = b - a
    kind = draw(st.sampled_from(["end", "inside", "window", "anywhere"]))
    if kind == "anywhere":
        return np.array([draw(_coord), draw(_coord)])
    if kind == "end":
        t = draw(st.sampled_from([0.0, 1.0]))
    elif kind == "inside":
        t = draw(st.floats(-0.1, 1.1))
    else:  # near the ends of the parameter window
        t = draw(st.sampled_from([0.0, 1.0])) + draw(st.floats(-1e-11, 1e-11))
    off = np.array([draw(_tiny), draw(_tiny)])
    return a + t * ab + off


class TestOnSegments:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_rule(self, data):
        segments = data.draw(st.lists(_segment(), min_size=1, max_size=4))
        points = [data.draw(_probe(*segments[data.draw(st.integers(0, len(segments) - 1))]))
                  for _ in range(data.draw(st.integers(1, 6)))]
        a = np.array([s[0] for s in segments])
        b = np.array([s[1] for s in segments])
        got = _on_segments(np.array(points), a, b)
        want = [[point_on_segment(p, sa, sb) for sa, sb in segments] for p in points]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "p, a, b, expected",
        [
            ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), True),  # start
            ((1.0, 0.0), (0.0, 0.0), (1.0, 0.0), True),  # end
            ((1.0 + 2e-12, 0.0), (0.0, 0.0), (1.0, 0.0), False),  # beyond the end
            ((0.5, 5e-13), (0.0, 0.0), (1.0, 0.0), True),
            ((0.5, 2e-12), (0.0, 0.0), (1.0, 0.0), False),
            ((3.0, 3e-12), (0.0, 0.0), (4.0, 0.0), True),  # tol*L for L > 1
            ((0.3, 0.3), (0.3, 0.3), (0.3, 0.3), True),  # degenerate
            ((0.3, 0.3 + 2e-12), (0.3, 0.3), (0.3, 0.3 + 5e-13), False),
            ((0.3, 0.3 + 5e-13), (0.3, 0.3), (0.3, 0.3 + 5e-13), True),
        ],
    )
    def test_cases(self, p, a, b, expected):
        p, a, b = (np.array(v) for v in (p, a, b))
        assert point_on_segment(p, a, b) == expected
        assert _on_segments(p, a[None], b[None]).tolist() == [[expected]]


def _turn(poly, quarter_turns):
    """Rotate a polygon about the square's centre by quarter turns (CCW)."""
    for _ in range(quarter_turns):
        poly = np.column_stack([1.0 - poly[:, 1], poly[:, 0]])
    return poly


@st.composite
def _hull_feature(draw):
    """A feature at the unit square's hull, drawn on the bottom side and
    turned onto a random one: a notch or bump (on the 1/10 grid or not), a
    bump with a deeper and/or wider extension, a triangular bump extended to
    a deeper triangle (acute corners), half a 16-gon with its chord on the
    hull, a rectangle running past a corner, or a hole near the hull."""
    shape = draw(st.sampled_from(
        ["notch", "bump", "extended", "wedge", "half16", "corner", "hole"]))
    if draw(st.booleans()):
        u0, u1 = sorted(draw(st.lists(st.integers(0, 10), min_size=2, max_size=2,
                                      unique=True)))
        u0, u1, depth = u0 / 10, u1 / 10, draw(st.sampled_from([0.1, 0.2]))
    else:
        u0 = draw(st.floats(0.0, 0.8))
        u1, depth = u0 + draw(st.floats(0.05, 0.2)), draw(st.floats(0.01, 0.3))
    ext = None
    if shape == "notch":
        kind, poly = NEGATIVE_BOUNDARY, rect_polygon(u0, u1, 0.0, depth)
    elif shape in ("bump", "extended"):
        kind, poly = POSITIVE, rect_polygon(u0, u1, -depth, 0.0)
        if shape == "extended":
            wide, deep = draw(st.sampled_from([(0.0, 0.1), (0.1, 0.0), (0.1, 0.1)]))
            ext = rect_polygon(u0 - wide, u1 + wide, -depth - deep, 0.0)
    elif shape == "wedge":
        kind, poly = POSITIVE, np.array([[u0, 0.0], [u0, -depth], [u1, 0.0]])
        ext = np.array([[u0, 0.0], [u0, -2 * depth], [u1, 0.0]])
    elif shape == "half16":
        ang = np.linspace(0.0, np.pi, 9)
        c, r = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
        kind, poly = NEGATIVE_BOUNDARY, np.column_stack([c + r * np.cos(ang), r * np.sin(ang)])
    elif shape == "corner":
        kind, poly = NEGATIVE_BOUNDARY, rect_polygon(u0, 1.0 + depth, 0.0, depth)
    else:
        kind, poly = NEGATIVE_INTERNAL, rect_polygon(u0, u1, depth, 2 * depth)
    turns = draw(st.integers(0, 3))
    ext = None if ext is None else ExtensionSpec(_turn(ext, turns))
    return FeatureSpec(1, kind, _turn(poly, turns), extension=ext)


def _partition_or_message(partition, feature, domain):
    try:
        return partition(feature, domain)
    except GeometryError as exc:
        return str(exc)


class TestPartitionOracle:
    """Array partition against the side-by-side scalar one, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(feature=_hull_feature(), base=st.sampled_from(["unit_square", "mesh", "notched"]),
           dirichlet=st.booleans(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop(self, feature, base, dirichlet, n, seed):
        if base == "mesh":
            base = unstructured_mesh(n, np.random.default_rng(seed), None)
        elif base == "notched":
            notch = FeatureSpec(2, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
            base = generate_with_rect_features(10, [notch], [True], None)
        dom = DomainSpec(base=base, features=[feature],
                         dirichlet=(lambda x, y: abs(x) < 1e-12) if dirichlet else None)
        want = _partition_or_message(partition_loop, feature, dom)
        got = _partition_or_message(partition_feature_boundary, feature, dom)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_pieces(got, want)


class TestPartitionOnMeshBase:
    """A Mesh base classifies feature sides as the unit square does."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           i0=st.integers(0, 7), w=st.integers(1, 3), d=st.integers(1, 3),
           c=st.floats(0.2, 0.8), r=st.floats(0.05, 0.15))
    def test_matches_unit_square(self, n, seed, i0, w, d, c, r):
        x0, x1, y0, y1, depth = i0 / 10, (i0 + w) / 10, 0.1 * i0, 0.1 * (i0 + w), d / 10
        ang = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 9)
        features = [
            FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(x0, x1, 1.0 - depth, 1.0)),
            FeatureSpec(2, POSITIVE, rect_polygon(x0, x1, -depth, 0.0)),
            FeatureSpec(3, POSITIVE, rect_polygon(1.0, 1.0 + depth, y0, y1),
                        extension=ExtensionSpec(rect_polygon(1.0, 1.0 + 2 * depth, y0, y1))),
            # half a 16-gon whose chord lies on x = 0
            FeatureSpec(4, NEGATIVE_BOUNDARY,
                        np.column_stack([r * np.cos(ang), c + r * np.sin(ang)])),
            FeatureSpec(5, NEGATIVE_INTERNAL, regular_polygon((0.5, 0.5), 0.1)),
        ]
        mesh = unstructured_mesh(n, np.random.default_rng(seed), None)
        for f in features:
            want = partition_feature_boundary(f, DomainSpec(features=features))
            got = partition_feature_boundary(f, DomainSpec(base=mesh, features=features))
            assert_same_pieces(got, want)

    def test_base_hull_not_unit_square(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        base = generate_with_rect_features(10, [notch], [True], None)
        plug = FeatureSpec(2, POSITIVE, rect_polygon(0.4, 0.6, 0.8, 0.9))
        dent = FeatureSpec(3, NEGATIVE_BOUNDARY, rect_polygon(0.45, 0.55, 0.7, 0.8))
        dom = DomainSpec(base=base, features=[plug, dent])
        # the plug fills the notch's lower half: floor and walls are shared
        parts = partition_feature_boundary(plug, dom)
        (g0,) = parts["gamma0"]
        assert np.array_equal(g0, [[0.4, 0.9], [0.4, 0.8], [0.6, 0.8], [0.6, 0.9]])
        (g,) = parts["gamma"]
        assert np.array_equal(g, [[0.6, 0.9], [0.4, 0.9]])
        assert parts["gammaR"] == []
        # the dent hangs below the notch floor
        parts = partition_feature_boundary(dent, dom)
        (g0,) = parts["gamma0"]
        assert np.array_equal(g0, [[0.55, 0.8], [0.45, 0.8]])
        assert curve_length(parts["gamma"]) == pytest.approx(0.3)
        for f in (plug, dent):
            with pytest.raises(GeometryError, match="shares no edge"):
                partition_feature_boundary(f, DomainSpec(features=[plug, dent]))

    def test_gamma0_off_extension_rejected(self):
        f = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.2, 0.0),
                        extension=ExtensionSpec(rect_polygon(0.4, 0.6, -0.3, -0.1)))
        with pytest.raises(GeometryError, match="gamma0 must lie on the extension"):
            partition_feature_boundary(f, DomainSpec(features=[f]))

    def test_unknown_base_rejected(self):
        notch = FeatureSpec(1, NEGATIVE_BOUNDARY, rect_polygon(0.4, 0.6, 0.8, 1.0))
        with pytest.raises(GeometryError, match="unknown base"):
            partition_feature_boundary(notch, DomainSpec(base="disk", features=[notch]))


class TestClipCurve:
    def test_horizontal_line_subdivision(self):
        m = generate_unit_square(2)
        q = clip_curve_to_mesh(np.array([[0.0, 0.25], [1.0, 0.25]]), m, 4)
        # crossings at x = 0.25 (diagonal), 0.5 (vertical), 0.75 (diagonal)
        assert len(q.weights) // 4 == 4
        assert q.length == pytest.approx(1.0, abs=1e-12)

    def test_segment_inside_one_triangle(self):
        m = generate_unit_square(2)
        q = clip_curve_to_mesh(np.array([[0.05, 0.02], [0.2, 0.05]]), m, 4)
        assert len(q.weights) // 4 == 1

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_raises(self, bad):
        # A NaN end used to drop its segments silently (a NaN length is not
        # > tol), returning only the last segment's length 0.8.
        m = generate_unit_square(8)
        line = np.array([[0.1, 0.1], [bad, 0.5], [0.9, 0.9], [0.9, 0.1]])
        with pytest.raises(GeometryError, match=rf"^curve vertex \[\s*{bad} +0\.5\] is not finite"):
            clip_curve_to_mesh(line, m, 4)
        with pytest.raises(GeometryError, match="is not finite"):
            clip_curve_to_mesh([line[2:], line[:2][::-1]], m, 4)

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
        assert len(marked_edges(m, part="gamma0")) == 2
        assert len(marked_edges(m, part="gamma")) == 6

    def test_extension_mesh_markers(self):
        f = FeatureSpec(
            1,
            POSITIVE,
            rect_polygon(0.4, 0.6, -0.1, 0.0),
            extension=ExtensionSpec(rect_polygon(0.4, 0.6, -0.2, 0.0)),
        )
        dom = DomainSpec(features=[f], dirichlet=lambda x, y: abs(x) < 1e-12)
        m = feature_mesh(f, 10, dom)
        assert len(marked_edges(m, part="gamma0")) == 2
        # upper halves of the vertical sides are shared with the feature
        assert len(marked_edges(m, part="gammaS")) == 2
        # lower halves plus the bottom belong to the extension only
        assert len(marked_edges(m, part="gammaTilde")) == 4

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 2), i0=st.integers(1, 6), w=st.integers(1, 3),
           d=st.integers(1, 2), ext=st.sampled_from(["none", "deeper", "wider", "both"]))
    def test_markers_match_loop(self, k, i0, w, d, ext):
        n = 10 * k
        x0, x1, depth = i0 / 10, (i0 + w) / 10, d / 10
        grow = {"none": None, "deeper": (0, 1), "wider": (1, 0), "both": (1, 1)}[ext]
        extension = None if grow is None else ExtensionSpec(rect_polygon(
            x0 - grow[0] / 10, x1 + grow[0] / 10, -depth - grow[1] / 10, 0.0))
        f = FeatureSpec(1, POSITIVE, rect_polygon(x0, x1, -depth, 0.0), extension=extension)
        dom = DomainSpec(features=[f])
        m = feature_mesh(f, n, dom)
        parts = partition_feature_boundary(f, dom)
        order = ("gamma0", "gammaS", "gammaTilde", "gamma")
        mids = m.edge_midpoints()
        want = [None] * m.n_edges
        for e in m.boundary_edge_ids.tolist():
            part = order[first_group_loop(mids[e], [parts[p] for p in order])]
            want[e] = EdgeMarker("feature", 1, part)
        assert m.edge_markers == want

    def test_off_grid_rectangle_rejected(self):
        bump = FeatureSpec(1, POSITIVE, rect_polygon(0.43, 0.6, -0.2, 0.0))
        dom = DomainSpec(features=[bump], dirichlet=lambda x, y: abs(x) < 1e-12)
        with pytest.raises(MeshError, match="1/10 grid"):
            feature_mesh(bump, 10, dom)

    @pytest.mark.parametrize("part", ["feature", "extension"])
    def test_non_rectangle_rejected(self, part):
        # the rectangle rule of generate_with_rect_features: 4 axis-aligned vertices
        if part == "feature":
            f = FeatureSpec(1, POSITIVE, np.array([[0.4, 0.0], [0.4, -0.2], [0.6, 0.0]]))
        else:
            trapezoid = np.array([[0.3, -0.2], [0.7, -0.2], [0.6, 0.0], [0.4, 0.0]])
            f = FeatureSpec(1, POSITIVE, rect_polygon(0.4, 0.6, -0.1, 0.0),
                            extension=ExtensionSpec(trapezoid))
        with pytest.raises(MeshError, match="rectangle"):
            feature_mesh(f, 10, DomainSpec(features=[f]))

    def test_non_positive_rejected(self):
        hole = FeatureSpec(1, NEGATIVE_INTERNAL, rect_polygon(0.3, 0.5, 0.3, 0.5))
        with pytest.raises(GeometryError):
            feature_mesh(hole, 10)
