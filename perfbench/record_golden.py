"""Record the golden report values of every workload into golden.json.

Usage: python3 perfbench/record_golden.py

Run it only at a commit whose outputs are accepted as correct: the benchmark
fails every operation that moves a golden value by more than 1e-12 relative.
Seed-dependent workloads are recorded for seed 0, the benchmark's default.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main():
    from workloads import WORKLOADS, golden_seed, report_values, workload_config

    from eqflux.config import specs_from_config
    from eqflux.run import run_sweep

    golden = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for name in WORKLOADS:
            seed = golden_seed(name)
            doc = workload_config(name, seed or 0, Path(tmp))
            rows = report_values(run_sweep(specs_from_config(doc)))
            golden[name] = {"seed": seed, "rows": rows}
            print(name, [r["eta_total"] for r in rows])
    with open(HERE / "golden.json", "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
