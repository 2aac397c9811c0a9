"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py

Runs each workload once with tracing (one untraced and one traced set),
checks that every metric named in BENCHMARK.json is reported and that no
operation fails, then corrupts outputs on purpose and checks that each
corruption is counted as a failed operation. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def corrupting(main, mutate):
    """cli.main that runs the real command, then damages its outputs."""
    seen = set()

    def wrapped(argv):
        code = main(argv)
        where = argv.index("--out") + 1
        command = tuple(argv[:where] + argv[where + 1:])
        mutate(Path(argv[where]), command in seen)
        seen.add(command)
        return code

    return wrapped


def nan_tail(name):
    def mutate(out, repeat):
        if not (out / name).exists():
            return
        with open(out / name, "r+b") as fh:
            fh.seek(-8, 2)
            fh.write(b"\x00\x00\x00\x00\x00\x00\xf8\x7f")   # float64 NaN
    return mutate


def fail_report(out, repeat):
    path = out / "verify_report.json"
    report = json.loads(path.read_text())
    report["passed"] = False
    path.write_text(json.dumps(report))


def nan_trajectory(out, repeat):
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")


def drift_on_repeat(out, repeat):
    if repeat:
        with open(out / "verify_report.json", "a") as fh:
            fh.write(" ")


def main() -> int:
    run.prepare()
    import bench
    from defectgeom import cli

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    errors = []

    for name in run.WORKLOADS:
        result = bench.run_workload(name, 1, 0, True, run.ROOT, small=True)
        e2e = bench.end_to_end_metrics(result)
        layer = bench.per_layer_metrics(result)
        if set(e2e) != e2e_names:
            errors.append(f"{name}: end-to-end metrics {sorted(e2e)}")
        if set(layer) != layer_names:
            errors.append(f"{name}: per-layer metrics differ by "
                          f"{sorted(set(layer) ^ layer_names)}")
        if result.failed or result.attempted < 2:
            errors.append(f"{name}: {result.failed} of {result.attempted} "
                          "operations failed")
        print(f"{name}: {result.attempted} operations, {result.failed} failed")

    real_main = cli.main
    for name, mutate, what in (
            ("defect_products", nan_tail("torsion.field"), "NaN in a field"),
            ("residual_refinement", fail_report, "failed verify report"),
            ("line_network", nan_trajectory, "NaN in the trajectory"),
            ("residual_refinement", drift_on_repeat, "changed data on repeat")):
        cli.main = corrupting(real_main, mutate)
        try:
            result = bench.run_workload(name, 1, 0, False, run.ROOT,
                                        small=True)
        finally:
            cli.main = real_main
        if result.failed == 0:
            errors.append(f"{name}: {what} was not counted as a failure")
        print(f"{name} with {what}: {result.failed} of {result.attempted} "
              "operations failed")

    for error in errors:
        print("ERROR", error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
