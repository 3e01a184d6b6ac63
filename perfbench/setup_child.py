"""One set-up measurement in a fresh interpreter.

Usage: python3 perfbench/setup_child.py CONFIG.json

Times ``import eqflux`` and ``specs_from_config`` on the given configuration
(schema validation and, for an external mesh, ``read_mesh`` included), the
work a CLI user pays on every call, and prints one JSON line with the times.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(config_path):
    import eqflux  # noqa: F401

    t_import = time.perf_counter()
    from eqflux.config import load_config, specs_from_config

    specs = specs_from_config(load_config(config_path))
    t_ready = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "specs_s": t_ready - t_import,
                      "setup_s": t_ready - T0, "specs": len(specs)}))


if __name__ == "__main__":
    main(sys.argv[1])
