"""Benchmark of the defectgeom CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from the
checkout's ``src/``; without it the benchmark exits with code 2 and prints
no result. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("defect_products", "residual_refinement", "line_network")


def prepare() -> None:
    """Pin numeric libraries to one thread and import defectgeom from src/.

    Must run before numpy is imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "defectgeom" / "__init__.py").is_file():
        raise SystemExit(f"error: no defectgeom sources under {src}")
    sys.path.insert(0, str(src))
    import defectgeom
    if Path(defectgeom.__file__).resolve().parent != src / "defectgeom":
        raise SystemExit(f"error: imported defectgeom from "
                         f"{defectgeom.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import bench

    run = bench.run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT)
    print(json.dumps(bench.report(run, args.workload, args.seed,
                                  bool(args.trace), ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
