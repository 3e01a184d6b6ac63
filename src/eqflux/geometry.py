"""Feature geometry: boundary partitions, curve measures and quadrature.

Features are simple polygons.  Their boundary splits into the free part
(gamma), the part shared with the simplified domain boundary (gamma0) and,
for extended positive features, the shared/remaining/extension parts
(gammaS, gammaR, gammaTilde).  Estimator curves are clipped against a mesh
that need not conform to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    EdgeMarker,
    Mesh,
    _cell_block,
    _grid_index,
    _lattice_mesh,
    _on_unit_square_boundary,
)

NEGATIVE_INTERNAL = "negative_internal"
NEGATIVE_BOUNDARY = "negative_boundary"
POSITIVE = "positive"
FEATURE_KINDS = (NEGATIVE_INTERNAL, NEGATIVE_BOUNDARY, POSITIVE)

_TOL = 1e-12


class GeometryError(ValueError):
    """Inconsistent feature/domain geometry."""


@dataclass
class ExtensionSpec:
    """Simple extension of a positive feature (the feature is a subset)."""

    polygon: np.ndarray
    neumann_g_tilde: object = 0.0

    def __post_init__(self):
        self.polygon = np.asarray(self.polygon, dtype=float)


@dataclass
class FeatureSpec:
    """One polygonal feature with its Neumann data.

    ``neumann_g`` lives on the free boundary (units of the normal flux) and
    may take either ``(x, y)`` or ``(x, y, nx, ny)``; ``neumann_g0`` is the
    datum chosen on the shared boundary part (defaults to zero).
    """

    id: int
    kind: str
    polygon: np.ndarray
    neumann_g: object = 0.0
    neumann_g0: object = 0.0
    extension: ExtensionSpec | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise GeometryError(f"unknown feature kind {self.kind!r}")
        self.polygon = np.asarray(self.polygon, dtype=float)
        if self.polygon.ndim != 2 or len(self.polygon) < 3:
            raise GeometryError("feature polygon needs at least 3 vertices")
        if _polygon_area(self.polygon) <= 0:
            raise GeometryError("feature polygon must be counterclockwise")
        if self.extension is not None and self.kind != POSITIVE:
            raise GeometryError("extensions only apply to positive features")


@dataclass
class DomainSpec:
    """Problem data of the original problem plus the feature list."""

    base: object = "unit_square"  # "unit_square" or a Mesh
    features: list = field(default_factory=list)
    dirichlet: object = None  # predicate (x, y) -> bool; None = everywhere
    f: object = 0.0
    g_dirichlet: object = 0.0
    g_neumann: object = 0.0  # outer Neumann datum


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def regular_polygon(center, radius, sides=16, phase=0.0) -> np.ndarray:
    """CCW regular polygon inscribed in the circle of the given radius."""
    ang = phase + 2.0 * np.pi * np.arange(sides) / sides
    return np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )


def rect_polygon(x0, x1, y0, y1) -> np.ndarray:
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def closed_loop(polygon) -> np.ndarray:
    p = np.asarray(polygon, dtype=float)
    return np.vstack([p, p[:1]])


def curve_length(polylines) -> float:
    """Total length of one polyline or a list of polylines."""
    if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
        polylines = [polylines]
    total = 0.0
    for line in polylines:
        p = np.asarray(line, dtype=float)
        total += float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum())
    return total


def gauss_legendre(order: int):
    """Gauss–Legendre nodes/weights on [0, 1]; exact to degree 2·order − 1."""
    if not (1 <= order <= 10):
        raise GeometryError(f"unsupported Gauss-Legendre order {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# -- point-on-boundary predicates ------------------------------------------


def _segments(polylines):
    """Segment ends ``(a, b)``, each (S, 2), of the polylines in order."""
    lines = [np.asarray(line, dtype=float) for line in polylines]
    empty = [np.zeros((0, 2))]
    return (np.concatenate([line[:-1] for line in lines] + empty),
            np.concatenate([line[1:] for line in lines] + empty))


def _on_segments(points, a, b, tol=_TOL):
    """(N, S) mask: point n lies on segment a[s]→b[s].

    The one on-segment rule of every boundary classification: with L the
    segment length, the projection parameter lies in [−tol/L, 1 + tol/L] and
    the distance to the projection is at most tol·max(1, L); a segment
    shorter than tol holds the points within tol of its start.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    ab = b - a
    L = np.sqrt(np.vecdot(ab, ab))
    ap = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.vecdot(ap, ab) / (L * L)
        off = p - (a + t[..., None] * ab)
        on = ((-tol / L <= t) & (t <= 1 + tol / L)
              & (np.sqrt(np.vecdot(off, off)) <= tol * np.maximum(1.0, L)))
    return np.where(L < tol, np.sqrt(np.vecdot(ap, ap)) <= tol, on)


def first_group_on(points, groups) -> np.ndarray:
    """Per point, the index of the first group of polylines with a segment
    holding it (by ``_on_segments``), or ``len(groups)`` when none does."""
    owner = np.repeat(np.arange(len(groups)),
                      [sum(len(line) - 1 for line in lines) for lines in groups])
    hit = _on_segments(points, *_segments([line for lines in groups for line in lines]))
    # A last column that holds every point sends argmax to len(groups).
    hit = np.column_stack([hit, np.ones(len(hit), dtype=bool)])
    return np.append(owner, len(groups))[hit.argmax(axis=1)]


def _on_base_boundary(points, base):
    """Whether each point lies on the boundary of the base domain."""
    if isinstance(base, str):
        if base != "unit_square":
            raise GeometryError(f"unknown base {base!r}")
        return _on_unit_square_boundary(points)
    if isinstance(base, Mesh):
        a, b = base.vertices[base.edge_vertices[base.boundary_edge_ids]].transpose(1, 0, 2)
        return _on_segments(points, a, b).any(axis=1)
    raise GeometryError("base must be 'unit_square' or a Mesh")


def _sides_on(loop, on):
    """Mask of the sides of a closed loop whose ends and midpoint all pass
    the array test ``on``, applied once to all vertices and midpoints."""
    a, b = loop[:-1], loop[1:]
    hit = on(np.concatenate([a, 0.5 * (a + b)]))
    vertex, mid = hit[:len(a)], hit[len(a):]
    return vertex & np.concatenate([vertex[1:], vertex[:1]]) & mid


def _chain(a, b):
    """Merge consecutive segments a[k]→b[k] into polylines (preserving
    orientation): a segment continues the line when it starts where the
    previous one ends."""
    if not len(a):
        return []
    # joined[k]: segment k + 1 (the first one after the last) starts at b[k],
    # within np.isclose's tolerance for atol = tol (and its rtol of 1e-5).
    nxt = np.concatenate([a[1:], a[:1]])
    joined = (np.abs(b - nxt) <= _TOL + 1e-5 * np.abs(nxt)).all(axis=1)
    cut = np.flatnonzero(~joined[:-1]) + 1
    lines = [np.vstack([a[i:i + 1], b[i:j]]) for i, j in zip([0, *cut], [*cut, len(a)])]
    # A closed loop may have been cut at the polygon start; rejoin ends.
    if len(lines) > 1 and joined[-1]:
        lines[0] = np.vstack([lines[-1], lines[0][1:]])
        lines.pop()
    return lines


def _subtract_overlaps(a, b, c0, c1, tol=_TOL):
    """Pieces ``(starts, ends)`` of the segments a→b not covered by those
    segments c0→c1 whose ends lie on them, in segment order."""
    ab = b - a
    L = np.sqrt(np.vecdot(ab, ab))[:, None]
    d = ab / L
    on = (_on_segments(c0, a, b) & _on_segments(c1, a, b)).T  # (S, M)
    t0 = np.vecdot(c0 - a[:, None], d[:, None]) / L
    t1 = np.vecdot(c1 - a[:, None], d[:, None]) / L
    # Covered intervals in ascending order along each segment; the others
    # sort first as (-inf, -inf) and never open a gap or move the cursor.
    lo = np.where(on, np.maximum(np.minimum(t0, t1), 0.0), -np.inf)
    hi = np.where(on, np.minimum(np.maximum(t0, t1), 1.0), -np.inf)
    k = np.lexsort((hi, lo), axis=1)
    lo, hi = np.take_along_axis(lo, k, axis=1), np.take_along_axis(hi, k, axis=1)
    # The cursor before each interval, and after the last, is the running
    # maximum of the interval ends so far.
    cursor = np.maximum.accumulate(np.column_stack([np.zeros(len(a)), hi]), axis=1)
    stop = np.column_stack([lo, np.ones(len(a))])
    gap = np.column_stack([lo > cursor[:, :-1] + tol, cursor[:, -1] < 1.0 - tol])
    s = np.nonzero(gap)[0]
    return a[s] + cursor[gap][:, None] * ab[s], a[s] + stop[gap][:, None] * ab[s]


def partition_feature_boundary(feature: FeatureSpec, domain: DomainSpec) -> dict:
    """Split the feature boundary into gamma/gamma0 (and gammaS/gammaR/
    gammaTilde when an extension is present).

    All pieces are returned as CCW-oriented polylines with respect to the
    feature polygon.  Features are rejected if their shared boundary part
    touches the Dirichlet boundary.
    """
    loop = closed_loop(feature.polygon)
    a, b = loop[:-1], loop[1:]
    pieces = lambda mask: _chain(a[mask], b[mask])
    on0 = _sides_on(loop, lambda p: _on_base_boundary(p, domain.base))

    if feature.kind == NEGATIVE_INTERNAL:
        if on0.any():
            raise GeometryError(
                f"internal feature {feature.id} touches the domain boundary"
            )
    elif not on0.any():
        raise GeometryError(
            f"boundary feature {feature.id} shares no edge with the domain boundary"
        )

    mids0 = 0.5 * (a[on0] + b[on0])
    if domain.dirichlet is not None and any(domain.dirichlet(x, y) for x, y in mids0):
        raise GeometryError(f"feature {feature.id} touches the Dirichlet boundary")

    out = {
        "gamma": pieces(~on0),
        "gamma0": pieces(on0),
        "gammaS": [],
        "gammaR": [],
        "gammaTilde": [],
    }
    if feature.kind != POSITIVE:
        return out

    if feature.extension is None:
        # F~ = F convention: the whole free boundary acts as gammaR.
        out["gammaR"] = out["gamma"]
        return out

    ext = closed_loop(feature.extension.polygon)
    ea, eb = ext[:-1], ext[1:]
    on_ext = _sides_on(loop, lambda p: _on_segments(p, ea, eb).any(axis=1))
    if (on0 & ~on_ext).any():
        raise GeometryError(
            f"feature {feature.id}: gamma0 must lie on the extension boundary"
        )
    out["gammaS"] = pieces(~on0 & on_ext)
    out["gammaR"] = pieces(~on0 & ~on_ext)
    out["gammaTilde"] = _chain(*_subtract_overlaps(ea, eb, a[on_ext], b[on_ext]))
    return out


# -- curve quadrature -------------------------------------------------------


@dataclass
class CurveQuadrature:
    """Quadrature on a polyline clipped against a mesh.

    Each sub-segment lies inside one triangle (or along a mesh edge); node
    weights carry the physical arclength measure and each node inherits the
    sub-segment normal (the tangent rotated by −90°).
    """

    seg_tris: np.ndarray  # (S,)
    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    normals: np.ndarray  # (N, 2)
    node_tris: np.ndarray  # (N,)

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def _segment_cut_params(P, Q, ends, box_lo, box_hi, tol=_TOL):
    """Parameters in (0,1) where segment PQ crosses the mesh edges ``ends``.

    Only edges whose bounding box meets the segment's, padded by the
    collinearity tolerance, are tested.
    """
    d = Q - P
    L = np.linalg.norm(d)
    pad = 1e-9 * max(L, 1.0)
    near = ((box_lo <= np.maximum(P, Q) + pad) & (box_hi >= np.minimum(P, Q) - pad)).all(1)
    A, B = ends[near, 0], ends[near, 1]
    r = B - A
    w = A - P
    denom = d[0] * r[:, 1] - d[1] * r[:, 0]
    parallel = np.abs(denom) <= tol * max(L, 1.0) * np.maximum(np.sqrt(np.vecdot(r, r)), 1.0)
    # A collinear overlap splits at the edge endpoints.
    collinear = parallel & (np.abs(w[:, 0] * d[1] - w[:, 1] * d[0]) / L <= pad)
    t_end = np.vecdot(np.concatenate([A[collinear], B[collinear]]) - P, d) / (L * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ = (w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]) / denom
        u = (w[:, 0] * d[1] - w[:, 1] * d[0]) / denom
    t_ = t_[~parallel & (-tol <= u) & (u <= 1 + tol)]
    t = np.concatenate([t_end, t_])
    return t[(tol < t) & (t < 1 - tol)]


def clip_curve_to_mesh(polylines, mesh: Mesh, gauss_order: int = 4) -> CurveQuadrature:
    """Clip polylines against the mesh and build Gauss quadrature on them.

    Every polyline segment is subdivided at each crossing with a mesh edge;
    each sub-segment is assigned the triangle located at its midpoint
    (curves leaving the mesh raise :class:`GeometryError`).
    """
    if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
        polylines = [polylines]
    gx, gw = gauss_legendre(gauss_order)
    ends = mesh.vertices[mesh.edge_vertices]  # (E, 2, 2)
    box_lo, box_hi = ends.min(axis=1), ends.max(axis=1)
    starts, steps, lengths, t0, t1 = [], [], [], [], []
    for line in polylines:
        line = np.asarray(line, dtype=float)
        for P, Q in zip(line[:-1], line[1:]):
            d = Q - P
            L = np.linalg.norm(d)
            if L <= _TOL:
                continue
            cuts = _segment_cut_params(P, Q, ends, box_lo, box_hi)
            ts = np.unique(np.concatenate([[0.0, 1.0], cuts]))
            merged = [ts[0]]
            for t in ts[1:]:
                if t - merged[-1] > _TOL:
                    merged.append(t)
            starts += [P] * (len(merged) - 1)
            steps += [d] * (len(merged) - 1)
            lengths += [L] * (len(merged) - 1)
            t0 += merged[:-1]
            t1 += merged[1:]
    P = np.reshape(starts, (-1, 2))
    d = np.reshape(steps, (-1, 2))
    L = np.asarray(lengths, dtype=float)
    t0, t1 = np.asarray(t0, dtype=float)[:, None], np.asarray(t1, dtype=float)[:, None]
    mid = P + 0.5 * (t0 + t1) * d
    seg_tris, _ = mesh.locate_points(mid)
    if (seg_tris < 0).any():
        raise GeometryError(f"curve point {mid[np.argmax(seg_tris < 0)]} lies outside the mesh")
    a, b = P + t0 * d, P + t1 * d
    tangent = d / L[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    return CurveQuadrature(
        seg_tris=seg_tris,
        nodes=(a[:, None] + gx[:, None] * (b - a)[:, None]).reshape(-1, 2),
        weights=((t1 - t0) * L[:, None] * gw).ravel(),
        normals=np.repeat(normal, gauss_order, axis=0),
        node_tris=np.repeat(seg_tris, gauss_order),
    )


# -- built-in feature meshes -----------------------------------------------


def feature_mesh(feature: FeatureSpec, n: int, domain: DomainSpec | None = None) -> Mesh:
    """Structured mesh of a rectangular positive feature (or its extension).

    The lattice spacing 1/n is aligned with the global unit-square lattice so
    that vertices on gamma0 coincide with the simplified-domain mesh.
    Boundary edges are marked gamma0/gammaS/gammaTilde (extension case) or
    gamma0/gamma (no extension).
    """
    if feature.kind != POSITIVE:
        raise GeometryError("feature meshes are built for positive features")
    domain = domain if domain is not None else DomainSpec(features=[feature])
    parts = partition_feature_boundary(feature, domain)
    poly = feature.extension.polygon if feature.extension else feature.polygon
    p = np.asarray(poly, dtype=float)
    xs = sorted(set(np.round(p[:, 0], 12)))
    ys = sorted(set(np.round(p[:, 1], 12)))
    if len(xs) != 2 or len(ys) != 2:
        raise GeometryError("built-in feature meshing needs an axis-aligned rectangle")
    i0, i1 = _grid_index(xs[0], n, "feature x0"), _grid_index(xs[1], n, "feature x1")
    j0, j1 = _grid_index(ys[0], n, "feature y0"), _grid_index(ys[1], n, "feature y1")
    m = _lattice_mesh(_cell_block(i0, i1, j0, j1), n)

    order = ("gamma0", "gammaS", "gammaTilde", "gamma")
    bnd = m.boundary_edge_ids
    mids = m.edge_midpoints()[bnd]
    k = first_group_on(mids, [parts[part] for part in order])
    if (k == len(order)).any():
        raise GeometryError(
            f"feature mesh boundary edge at {mids[np.argmax(k == len(order))]} "
            "matches no boundary part"
        )
    markers = np.array(m.edge_markers, dtype=object)
    labels = [EdgeMarker("feature", feature.id, part) for part in order]
    markers[bnd] = np.array(labels, dtype=object)[k]
    m.edge_markers = markers.tolist()
    m.validate_markers()
    return m
