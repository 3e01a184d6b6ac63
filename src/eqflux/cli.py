"""Command-line front end.

Subcommands: ``mesh`` (generate/convert), ``solve``, ``estimate``, ``sweep``
and ``preset``.  Configuration is a single JSON document; results are
emitted as CSV/JSON (and optionally legacy VTK fields).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config as cfg
from . import fem, run
from .mesh import generate_unit_square, read_mesh, write_mesh
from .presets import PRESET_NAMES, preset_config


def _add_common(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--format",
        default="csv,json",
        help="comma-separated outputs: csv,json,vtk",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eqflux",
        description="Poisson solves on defeatured geometries with "
        "equilibrated-flux error estimators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="generate or convert a mesh file")
    pm.add_argument("--builtin", type=int, help="unit-square resolution n")
    pm.add_argument("--dirichlet", default="all", help="Dirichlet predicate expression")
    pm.add_argument("--convert", help="existing mesh JSON to validate and rewrite")
    pm.add_argument("--out", required=True, help="output mesh path")

    ps = sub.add_parser("solve", help="solve the defeatured problem, export fields")
    ps.add_argument("--config", required=True)
    _add_common(ps)

    pe = sub.add_parser("estimate", help="single estimator run")
    pe.add_argument("--config", required=True)
    _add_common(pe)

    pw = sub.add_parser("sweep", help="h- or eps-sweep from a config study")
    pw.add_argument("--config", required=True)
    _add_common(pw)

    pp = sub.add_parser("preset", help="run a built-in study")
    pp.add_argument("name", choices=PRESET_NAMES)
    pp.add_argument("-n", type=int, default=None, help="mesh resolution override")
    pp.add_argument("--eps", type=float, default=None, help="feature size override")
    pp.add_argument("--dump-config", help="write the preset config JSON and exit")
    _add_common(pp)
    return ap


def _formats(args):
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    if bad := sorted(formats - {"csv", "json", "vtk"}):
        raise ValueError(f"unknown --format {', '.join(bad)}; choose from csv, json, vtk")
    return formats


def _emit(results, doc, args, formats):
    os.makedirs(args.out, exist_ok=True)
    prefix = doc.get("run_id", "run")
    feature_ids = [int(f["id"]) for f in doc.get("features", [])]
    reports = [r.report for r in results]
    written = []
    if "csv" in formats:
        path = os.path.join(args.out, f"{prefix}.csv")
        run.emit_csv(reports, feature_ids, path)
        written.append(path)
    if "json" in formats:
        path = os.path.join(args.out, f"{prefix}.json")
        with open(path, "w") as f:
            json.dump([r.to_dict() for r in reports], f, indent=2, sort_keys=True)
        written.append(path)
    if "vtk" in formats:
        for r in results:
            run.emit_vtk(r, os.path.join(args.out, r.report.run_id))
            written.append(os.path.join(args.out, f"{r.report.run_id}_u0.vtk"))
    for path in written:
        print(path)


def _run_config(doc, args):
    formats = _formats(args)
    specs = cfg.specs_from_config(doc)
    results = run.run_sweep(specs)
    _emit(results, doc, args, formats)
    return results


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mesh":
            if args.convert:
                mesh = read_mesh(args.convert)
            elif args.builtin:
                mesh = generate_unit_square(
                    args.builtin, cfg.predicate_expression(args.dirichlet)
                )
            else:
                print("mesh: need --builtin N or --convert PATH", file=sys.stderr)
                return 2
            write_mesh(mesh, args.out)
            print(args.out)
            return 0

        if args.command == "solve":
            formats = _formats(args)
            doc = cfg.load_config(args.config)
            specs = cfg.specs_from_config(doc)
            os.makedirs(args.out, exist_ok=True)
            for spec in specs:
                mesh = run.build_computational_mesh(spec)
                data = fem.project_data(spec.domain, mesh, include=spec.include)
                u0 = fem.solve_poisson(mesh, data, tol=spec.solver_tol)
                base = os.path.join(args.out, spec.run_id)
                if "csv" in formats:
                    fem.field_to_csv(u0, base + "_u0.csv")
                    print(base + "_u0.csv")
                if "vtk" in formats:
                    fem.write_vtk(base + "_u0.vtk", mesh, point_data={"u": u0.nodal_values})
                    print(base + "_u0.vtk")
            return 0

        if args.command in ("estimate", "sweep"):
            doc = cfg.load_config(args.config)
            _run_config(doc, args)
            return 0

        if args.command == "preset":
            doc = preset_config(args.name, n=args.n, eps=args.eps)
            if args.dump_config:
                with open(args.dump_config, "w") as f:
                    json.dump(doc, f, indent=2)
                print(args.dump_config)
                return 0
            _run_config(doc, args)
            return 0
    except Exception as exc:  # surface stage context, not a traceback
        print(f"eqflux {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
