"""Workload inputs of the eqflux benchmark.

Each workload is one run configuration, expanded by ``specs_from_config``
exactly as the CLI does it. One operation is one ``run_sweep`` call on the
workload's specs followed by CSV and JSON emission.

test3-lattice       five estimator-only 16-gons on a 64x64 lattice. Flux-bound:
                    about 94% of its patches share one signature, so batched
                    patch equilibration shows its full effect here.
test3-unstructured  the same problem on a seeded unstructured 64x64 mesh read
                    through ``mesh.external``. Nine patch signatures, the largest
                    about a third of the patches: a gain that holds only on
                    lattices, or that costs memory on mixed patches, shows here.
                    The only workload whose inputs depend on the seed.
test2-refsweep      top notch and bottom bump, h-sweep n = 8, 16, 24 against one
                    shared reference (n = 48, refined twice). Reference-bound:
                    point location, refinement, topology and the sparse solve,
                    with little flux work. Exercises run_sweep's reference cache.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("test3-lattice", "test3-unstructured", "test2-refsweep")

# Relative tolerance of the golden comparison (the reproducibility tolerance
# the project holds its estimator values to).
GOLDEN_RTOL = 1e-12


def unstructured_mesh(n: int, seed: int, dirichlet_predicate):
    """Seeded unstructured mesh of the unit square.

    Starts from the n x n lattice, picks each cell's diagonal at random and
    moves every interior vertex by up to 0.2 h in each coordinate. Boundary
    vertices stay put and keep the lattice's boundary markers. Draw order:
    diagonals (row-major cells), then displacements (vertex order).
    """
    from eqflux.mesh import Mesh, generate_unit_square

    lattice = generate_unit_square(n, dirichlet_predicate)
    rng = np.random.default_rng(seed)
    flip = rng.random((n, n)) < 0.5
    shift = rng.uniform(-0.2 / n, 0.2 / n, size=lattice.vertices.shape)

    ij = np.rint(lattice.vertices * n).astype(np.int64)
    grid = np.empty((n + 1, n + 1), dtype=np.int64)
    grid[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
    a, b = grid[:-1, :-1], grid[1:, :-1]  # (i, j), (i+1, j)
    c, d = grid[1:, 1:], grid[:-1, 1:]  # (i+1, j+1), (i, j+1)
    flip = flip.T  # row-major over (j, i) cells -> indexed [i, j]
    first = np.where(flip[..., None], np.stack([a, b, d], -1), np.stack([a, b, c], -1))
    second = np.where(flip[..., None], np.stack([b, c, d], -1), np.stack([a, c, d], -1))
    triangles = np.concatenate([first.reshape(-1, 3), second.reshape(-1, 3)])

    vertices = lattice.vertices.copy()
    interior = np.all((ij > 0) & (ij < n), axis=1)
    vertices[interior] += shift[interior]
    markers = {
        tuple(int(v) for v in lattice.edge_vertices[e]): lattice.edge_markers[e]
        for e in lattice.boundary_edge_ids
    }
    return Mesh(vertices, triangles, edge_markers=markers)


def workload_config(name: str, seed: int, workdir) -> dict:
    """JSON run configuration of a workload; writes its mesh file if it has one."""
    from eqflux.config import predicate_expression
    from eqflux.mesh import write_mesh
    from eqflux.presets import preset_config

    if name == "test3-lattice":
        return preset_config("test3", n=64)
    if name == "test3-unstructured":
        doc = preset_config("test3", n=64)
        path = workdir / f"mesh-seed{seed}.json"
        write_mesh(unstructured_mesh(64, seed, predicate_expression(doc["dirichlet"])), path)
        doc["mesh"] = {"external": str(path)}
        return doc
    if name == "test2-refsweep":
        doc = preset_config("test2-both", n=32, eps=0.25)
        doc["study"] = {"type": "h_sweep", "n": [8, 16, 24]}
        doc["reference"] = {"n": 48, "levels": 2}
        return doc
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def warmup_config(name: str) -> dict:
    """A small configuration on the same code paths as the workload.

    It runs once before timing so that lazy imports and first-call costs are
    paid outside the timed operations.
    """
    from eqflux.presets import preset_config

    if name == "test2-refsweep":
        doc = preset_config("test2-both", n=8, eps=0.25)
        doc["study"] = {"type": "h_sweep", "n": [8]}
        doc["reference"] = {"n": 8, "levels": 1}
        return doc
    return preset_config("test3", n=8)


def golden_seed(name: str):
    """Seed the golden values of a workload hold for (None: every seed)."""
    return 0 if name == "test3-unstructured" else None


def report_values(results) -> list:
    """The checked report values of one operation, one dict per sweep row."""
    rows = []
    for res in results:
        r = res.report
        rows.append(
            {
                "run_id": r.run_id,
                "eta_total": r.eta_total,
                "eta_0": r.eta_0,
                "eta_0_tilde": r.eta_0_tilde,
                "features": {
                    str(fid): comp.gamma_contribution()
                    for fid, comp in sorted(r.per_feature.items())
                },
                "error_energy": r.error_energy,
                "effectivity": r.effectivity,
                "h": r.h,
                "n_dof": r.n_dof,
            }
        )
    return rows


def _close(a, b, rtol) -> bool:
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= rtol * abs(b)


def compare_values(got: list, want: list, rtol: float = GOLDEN_RTOL) -> list:
    """Mismatch descriptions between two report_values lists (empty if equal)."""
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    bad = []
    for g, w in zip(got, want):
        if set(g) != set(w):
            bad.append(f"{w['run_id']}: keys {sorted(g)} != {sorted(w)}")
            continue
        for key, wv in w.items():
            gv = g[key]
            if key == "features":
                if set(gv) != set(wv):
                    bad.append(f"{w['run_id']}: features {sorted(gv)} != {sorted(wv)}")
                    continue
                pairs = [(f"feature {k}", gv[k], wv[k]) for k in wv]
            else:
                pairs = [(key, gv, wv)]
            for what, x, y in pairs:
                if not _close(x, y, rtol):
                    bad.append(f"{w['run_id']}: {what} = {x!r}, expected {y!r}")
    return bad
