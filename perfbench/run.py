"""The eqflux benchmark.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.
Workloads are described in ``workloads.py``. One operation is one
``run_sweep`` call on the workload's specs plus CSV and JSON emission into a
temporary directory. The loop is closed: one operation at a time, in one
process, with BLAS capped at ``nproc`` threads, for at least ``--seconds``
and at least MIN_OPS operations, after a small warm-up configuration.

--trace 0 reports the end-to-end metrics:
    setup_s      median over SETUP_REPEATS fresh interpreters of ``import
                 eqflux`` plus ``specs_from_config`` (schema validation and,
                 for an external mesh, ``read_mesh``).
    run_s        median time of one operation, rescaled to a nominal host
                 speed by ``speed.py``; the raw wall times are printed too.
    peak_rss_mb  peak resident memory of this process.
--trace 1 wraps the package's public functions (``tracer.py``) on every other
operation and reports raw per-layer self times, work counts, workload
properties and the tracing overhead.

Every operation is compared with the golden report values in ``golden.json``
(1e-12 relative) where they apply to the seed, and bitwise with the run's
first operation. After the timed operations the equilibration certificate
runs, untimed, on the last operation's fluxes. The last stdout line is the
JSON result; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 5
MIN_OPS = 2

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
_COUNTS = ("mesh.located_points", "geometry.curve_nodes", "fem.p1_dofs",
           "linalg.spd_calls", "linalg.dense_calls", "flux.patches", "flux.rt_dofs",
           "run.reference_builds")
_OTHERS = {"flux.signature_share": "fraction", "run.reference_builds_per_row": "ratio",
           "flux.reconstruct_frac": "fraction", "mesh.locate_frac": "fraction",
           "trace.gap_frac": "fraction", "trace.overhead": "ratio", "trace.run_s": "s",
           "setup.import_s": "s"}


def per_layer_units() -> dict:
    from tracer import TIMERS

    units = {name: "s" for name in TIMERS}
    units.update({name: "count" for name in _COUNTS})
    units.update(_OTHERS)
    return units


def no_span(name):
    return nullcontext()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Allow BLAS no more threads than this process may run on."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        val = os.environ.get(var, "")
        if not val.isdigit() or not 0 < int(val) <= n:
            os.environ[var] = str(n)


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy loaded."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    counts[pkg.__name__] = int(fn())
                    break
    return counts


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "machine": platform.machine()}


def measure_setup(config_path: Path) -> dict:
    """Median set-up times over SETUP_REPEATS fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in ("import_s", "specs_s", "setup_s")}


def operation(specs, doc, workdir, span):
    """One timed unit of work: run_sweep and emission of its outputs."""
    from eqflux import run

    with span("bench.op"):
        results = run.run_sweep(specs)
        with span("run.emit_s"):
            out = Path(tempfile.mkdtemp(dir=workdir))
            prefix = doc.get("run_id", "run")
            reports = [r.report for r in results]
            run.emit_csv(reports, [int(f["id"]) for f in doc.get("features", [])],
                         out / f"{prefix}.csv")
            with open(out / f"{prefix}.json", "w") as f:
                json.dump([r.to_dict() for r in reports], f, indent=2, sort_keys=True)
    return results, out


def check_output(results, out, doc, n_rows, golden_rows, first_rows) -> tuple[list, list]:
    """Mismatches of one operation's outputs (empty when they are correct)
    and its report values."""
    from workloads import compare_values, report_values

    rows = report_values(results)
    bad = []
    if golden_rows is not None:
        bad += [f"golden: {m}" for m in compare_values(rows, golden_rows)]
    if first_rows is not None:
        bad += [f"repeat: {m}" for m in compare_values(rows, first_rows, rtol=0.0)]
    for row in rows:
        if not (math.isfinite(row["eta_total"]) and row["eta_total"] > 0):
            bad.append(f"{row['run_id']}: eta_total = {row['eta_total']!r}")
    prefix = doc.get("run_id", "run")
    with open(out / f"{prefix}.csv", newline="") as f:
        csv_lines = f.read().split("\r\n")
    if len(csv_lines) != n_rows + 2 or csv_lines[-1] != "":
        bad.append(f"CSV has {len(csv_lines) - 1} lines, expected {n_rows + 1}")
    with open(out / f"{prefix}.json") as f:
        if len(json.load(f)) != n_rows:
            bad.append("JSON report has the wrong number of rows")
    return bad, rows


def run_workload(args, workdir: Path) -> dict:
    """Set up, time and check one workload; returns the result object."""
    from checks import certificate, flux_problems
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import warmup_config, workload_config

    from eqflux import config as cfg

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    doc = workload_config(args.workload, args.seed, workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(doc))
    setup = measure_setup(config_path)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    try:
        specs = cfg.specs_from_config(doc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wdoc = warmup_config(args.workload)
    operation(cfg.specs_from_config(wdoc), wdoc, workdir, no_span)

    gold = json.loads(GOLDEN.read_text())[args.workload]
    golden_rows = gold["rows"] if gold["seed"] in (None, args.seed) else None
    if golden_rows is None:
        print(f"golden: none for seed {args.seed}; checking repeatability and certificate")

    walls = {False: [], True: []}  # untraced, traced
    nominal = {False: [], True: []}
    per_op = []
    attempted = failed = 0
    first_rows = last = None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.op = k
            tracer.install()
        probe = SpeedProbe()
        attempted += 1
        results = None
        try:
            with probe:
                t0 = time.perf_counter()
                results, out = operation(specs, doc, workdir,
                                         tracer.span if traced else no_span)
                wall = time.perf_counter() - t0
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
        finally:
            if traced:
                tracer.uninstall()
        if results is not None:
            bad, rows = check_output(results, out, doc, len(specs), golden_rows, first_rows)
            shutil.rmtree(out)
            last = results
            if bad:
                failed += 1
                print(f"operation {k} failed its output check:", *bad[:10], sep="\n  ",
                      file=sys.stderr)
            else:
                walls[traced].append(wall)
                first_rows = first_rows or rows
                nominal[traced].append(probe.nominal(wall))
                if traced:
                    per_op.append(tracer.op_metrics(k))
        k += 1
        if tracer is None:
            enough = len(walls[False]) >= MIN_OPS
        else:
            enough = len(walls[False]) >= 1 and len(walls[True]) >= 1
        if time.perf_counter() >= deadline and (enough or attempted >= MIN_OPS):
            break

    cert_failures = ["no successful operation"]
    if last is not None:
        problems = flux_problems(last, specs)
        cert_failures, worst = certificate(problems)
        print("certificate (worst defect / flux scale): "
              + " ".join(f"{kind}={v:.2e}" for kind, v in worst.items())
              + f" over {len(problems)} fluxes")
    for msg in cert_failures:
        print(f"certificate failed: {msg}", file=sys.stderr)

    for traced, ws in walls.items():
        if ws:
            label = "traced" if traced else "untraced"
            print(f"{label} operation wall times (s): " + " ".join(f"{w:.3f}" for w in ws))
    if nominal[False]:
        print("untraced operation times at nominal speed (s): "
              + " ".join(f"{w:.3f}" for w in nominal[False]))
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} operations)")
    summary = {"correct": failed == 0 and not cert_failures,
               "attempted": attempted, "failed": failed}
    if tracer is None:
        if walls[False]:
            print(f"raw wall median: run {statistics.median(walls[False]):.4f} s")
        values = {
            "setup_s": setup["setup_s"],
            "run_s": statistics.median(nominal[False]) if nominal[False] else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        samples = {"setup_s": SETUP_REPEATS, "run_s": len(nominal[False]), "peak_rss_mb": 1}
        units = END_TO_END
    else:
        values = layer_values(tracer, per_op, nominal, setup, specs, last)
        samples = {name: len(per_op) for name in values}
        units = per_layer_units()
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "env": env,
                      "untraced_s": walls[False], "traced_s": walls[True]})
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit} (n={samples[name]})")
    summary["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}
    return summary


def layer_values(tracer, per_op, nominal, setup, specs, last) -> dict:
    """Per-layer metrics: medians over the traced operations plus set-up,
    overhead and workload properties. Layer times are raw wall seconds; the
    overhead compares operation times at nominal speed."""
    from checks import flux_problems, signature_share
    from tracer import median_metrics

    if not per_op:
        return dict.fromkeys(per_layer_units())
    for m in per_op:
        m["trace.run_s"] = m.pop("trace.wall_s")
        m["flux.reconstruct_frac"] = m["flux.reconstruct_s"] / m["trace.run_s"]
        m["mesh.locate_frac"] = m["mesh.locate_s"] / m["trace.run_s"]
    values = median_metrics(per_op)
    values["mesh.read_s"] = tracer.op_metrics("setup")["mesh.read_s"]
    values["config.specs_s"] = setup["specs_s"]
    values["setup.import_s"] = setup["import_s"]
    values["trace.overhead"] = statistics.median(nominal[True]) / statistics.median(nominal[False])
    values["flux.signature_share"] = signature_share(flux_problems(last, specs))
    with_ref = sum(s.reference is not None for s in specs)
    values["run.reference_builds_per_row"] = (
        values["run.reference_builds"] / with_ref if with_ref else 0.0
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eqflux" / "__init__.py").is_file():
        print(f"perfbench: no eqflux package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    # BLAS starts its threads when numpy and scipy load; they inherit this
    # mask, so the speed probe's SIGALRM only ever reaches the main thread.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    sys.path.insert(0, str(SRC))
    import eqflux

    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    if Path(eqflux.__file__).resolve().parent != SRC / "eqflux":
        print(f"perfbench: imported eqflux from {eqflux.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        summary = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
