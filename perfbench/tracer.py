"""Span tracer that measures eqflux's layers from outside the package.

``Tracer.install`` replaces each public function listed in TARGETS by a
timing wrapper, in its defining module and in every eqflux module that
imported it by value (``run`` imports the generators, ``uniform_refine`` and
the geometry functions; ``flux`` imports ``vertex_patches``), so no call
escapes its span. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, counter name or None, counter function).
# Span names are the per-layer metric names; counters count work per operation.
TARGETS = (
    ("eqflux.mesh", "Mesh.__init__", "mesh.topology_s", None, None),
    ("eqflux.mesh", "generate_unit_square", "mesh.build_s", None, None),
    ("eqflux.mesh", "generate_with_rect_features", "mesh.build_s", None, None),
    ("eqflux.mesh", "uniform_refine", "mesh.refine_s", None, None),
    ("eqflux.mesh", "Mesh.locate_points", "mesh.locate_s", "mesh.located_points",
     lambda a, k, r: len(a[1])),
    ("eqflux.mesh", "vertex_patches", "mesh.patches_s", "flux.patches",
     lambda a, k, r: len(r)),
    ("eqflux.mesh", "read_mesh", "mesh.read_s", None, None),
    ("eqflux.geometry", "clip_curve_to_mesh", "geometry.clip_s", "geometry.curve_nodes",
     lambda a, k, r: len(r.nodes)),
    ("eqflux.geometry", "feature_mesh", "geometry.feature_mesh_s", None, None),
    ("eqflux.geometry", "partition_feature_boundary", "geometry.partition_s", None, None),
    ("eqflux.fem", "project_data", "fem.project_s", None, None),
    ("eqflux.fem", "feature_problem_data", "fem.project_s", None, None),
    ("eqflux.fem", "solve_poisson", "fem.solve_s", "fem.p1_dofs",
     lambda a, k, r: len(r.nodal_values)),
    ("eqflux.fem", "energy_error_cross_mesh", "fem.cross_error_s", None, None),
    ("eqflux.linalg", "solve_spd", "linalg.spd_s", "linalg.spd_calls", _one),
    ("eqflux.linalg", "dense_lu_solve", "linalg.dense_s", "linalg.dense_calls", _one),
    ("eqflux.flux", "build_rt_space", "flux.rt_space_s", "flux.rt_dofs",
     lambda a, k, r: r.total_dofs),
    ("eqflux.flux", "assemble_patch_system", "flux.assemble_s", None, None),
    ("eqflux.flux", "patch_flux", "flux.patch_s", None, None),
    ("eqflux.flux", "reconstruct_flux", "flux.reconstruct_s", None, None),
    ("eqflux.estimator", "eta_zero", "estimator.eta0_s", None, None),
    ("eqflux.estimator", "defect_on_gamma", "estimator.defect_s", None, None),
    ("eqflux.estimator", "eta_curve", "estimator.defect_s", None, None),
    ("eqflux.run", "build_reference", "run.reference_s", "run.reference_builds", _one),
    ("eqflux.run", "run_single", "run.self_s", None, None),
    ("eqflux.run", "run_sweep", "run.self_s", None, None),
    ("eqflux.run", "emit_csv", "run.emit_s", None, None),
    ("eqflux.config", "specs_from_config", "config.specs_s", None, None),
)

# Spans reported with their children included; all others report self time.
# read_mesh includes the construction of the mesh it read.
INCLUSIVE = ("flux.reconstruct_s", "run.reference_s", "mesh.read_s")
ROOT = "bench.op"
COUNTERS = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3]))
TIMERS = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Collects spans ``[name, start, end, parent index, op]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op -> counter -> total
        self.op = None
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self.counts[self.op][counter] += count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; ``uninstall`` restores the originals."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eqflux" or n.startswith("eqflux."))]
        for modname, attr, name, counter, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(orig, name, counter, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(orig, name, counter, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def op_metrics(self, op) -> dict:
        """Per-layer seconds and counts of one operation.

        Self time is a span's duration minus that of its direct children.
        ``trace.gap_frac`` is the share of the operation's wall time that no
        layer span covers.
        """
        idx = [i for i, s in enumerate(self.spans) if s[4] == op]
        child = Counter()
        for i in idx:
            name, t0, t1, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(TIMERS, 0.0)
        root = None
        for i in idx:
            name, t0, t1, parent, _ = self.spans[i]
            if name == ROOT:
                root = (t1 - t0, t1 - t0 - child[i])
            elif name in INCLUSIVE:
                if not self._inside_same(i):
                    out[name] += t1 - t0
            else:
                out[name] += t1 - t0 - child[i]
        for name in COUNTERS:
            out[name] = self.counts[op][name]
        if root is not None:
            wall, gap = root
            out["trace.wall_s"] = wall
            out["trace.gap_frac"] = gap / wall
        return out

    def _inside_same(self, i) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}}, f)


def median_metrics(per_op: list) -> dict:
    """Median of every metric over the traced operations."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
