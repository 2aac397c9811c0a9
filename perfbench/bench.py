"""Closed-loop runner and metrics of the defectgeom benchmark.

One process runs one workload with one compute thread. It repeats the
workload's set of operations, each started only after the previous one
finished, until the time budget would be exceeded by one more set. Each
operation calls ``defectgeom.cli.main(argv)`` in-process, writing into a
fresh directory that is checked, hashed and deleted before the next one.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from defectgeom import cli

import spans
import workloads

MIN_SETS = 2            # the determinism check needs a repetition
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Cold import of the CLI plus strict parsing of the workload's files, timed
# inside a fresh interpreter as a user's first command would pay it.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import defectgeom.cli
for path in sys.argv[1:]:
    defectgeom.cli.load_scenario(path)
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = {"fields_s": "s", "charges_s": "s", "verify_s": "s",
                   "simulate_s": "s", "node_steps_per_s": "1/s",
                   "ops_failed_ratio": "ratio", "trace.overhead_s": "s"}
LAYER_COUNTS = {"forms.sample.points": "count",
                "forms.sample.cache_hit_ratio": "ratio",
                "forms.exterior_derivative.cells": "count",
                "forms.grid_ops.mb_computed": "MB",
                "dynamics.step_lines.node_steps": "count",
                "dynamics.step_lines.clipped_nodes": "count",
                "network.detect_and_reconnect.events": "count",
                "io.write_csv.mb": "MB",
                "io.write_field.mb": "MB"}
LAYER_FUNCTIONS = ["forms.sample", "forms.spline_prefilter",
                   "forms.map_coordinates"] + \
    [f"{module}.{func}" for module, func in spans.TARGETS]


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_COUNTS)
    units.update(COMMAND_METRICS)
    return units


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    problems: list
    node_steps: int = 0


@dataclass
class RunResult:
    sets: list = field(default_factory=list)       # (traced, [OpResult])
    setup_s: list = field(default_factory=list)
    tracer: spans.Tracer = None

    @property
    def results(self):
        return [r for _traced, rs in self.sets for r in rs]

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.problems)


def execute(op: workloads.Op, work: Path, first_digests: dict) -> OpResult:
    """Run one CLI operation, then check, hash and delete its outputs."""
    out = Path(tempfile.mkdtemp(prefix="op-", dir=work))
    try:
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                code = cli.main(op.argv(out))
        except Exception:  # noqa: BLE001 - an operation that raises has failed
            code = None
            log.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            return OpResult(op, seconds,
                            [f"exit code {code}: {log.getvalue()[-800:]}"])
        problems = workloads.check_outputs(op, out)
        digests = workloads.digest_outputs(out)
        if digests != first_digests.setdefault(op.label, digests):
            problems.append("data files differ from the first repetition")
        node_steps = 0
        if op.command == "simulate":
            with open(out / "trajectory.csv", "rb") as fh:
                node_steps = sum(1 for _ in fh) - 1
        return OpResult(op, seconds, problems, node_steps)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure_setup(files: list, src: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD,
                               *map(str, files)], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, small: bool = False) -> RunResult:
    """Generate the workload's inputs and run its sets for `seconds`.

    With `trace`, sets alternate untraced and traced, starting untraced, so
    the same process measures the tracing overhead.
    """
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base))
    run = RunResult(tracer=spans.Tracer() if trace else None)
    try:
        ops = workloads.WORKLOADS[name](seed, work / "scenarios", small)
        files = sorted({op.scenario for op in ops})
        run.setup_s = measure_setup(files, root / "src")
        first_digests = {}
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = trace and len(run.sets) % 2 == 1
            if traced:
                run.tracer.install()
            began = time.perf_counter()
            try:
                results = []
                for i, op in enumerate(ops):
                    if traced:
                        run.tracer.op = f"{len(run.sets)}/{i}:{op.label}"
                    results.append(execute(op, work, first_digests))
            finally:
                if traced:
                    run.tracer.uninstall()
            longest = max(longest, time.perf_counter() - began)
            run.sets.append((traced, results))
            elapsed = time.perf_counter() - start
            if len(run.sets) >= MIN_SETS and elapsed + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def _set_wall(results) -> float:
    return sum(r.seconds for r in results)


def end_to_end_metrics(run: RunResult) -> dict:
    walls = [_set_wall(rs) for traced, rs in run.sets if not traced]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(run.setup_s),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_kb / 1024.0}


def per_layer_metrics(run: RunResult) -> dict:
    """Per traced set: calls, self time and counts of each layer function,
    plus per-subcommand times from the untraced sets."""
    traced = [rs for t, rs in run.sets if t]
    untraced = [rs for t, rs in run.sets if not t]
    n = len(traced)
    calls, self_s = run.tracer.layer_stats()
    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    counts = run.tracer.counts
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0.0) / n
    sample_calls = calls.get("forms.sample", 0)
    metrics["forms.sample.cache_hit_ratio"] = \
        counts.get("forms.sample.cache_hits", 0.0) / sample_calls \
        if sample_calls else 0.0

    for command in ("fields", "charges", "verify", "simulate"):
        metrics[f"{command}_s"] = statistics.median(
            sum(r.seconds for r in rs if r.op.command == command)
            for rs in untraced)
    simulated = [r for rs in untraced for r in rs if r.op.command == "simulate"]
    sim_s = sum(r.seconds for r in simulated)
    metrics["node_steps_per_s"] = \
        sum(r.node_steps for r in simulated) / sim_s if sim_s else 0.0
    metrics["ops_failed_ratio"] = run.failed / run.attempted
    metrics["trace.overhead_s"] = \
        statistics.median(_set_wall(rs) for rs in traced) \
        - statistics.median(_set_wall(rs) for rs in untraced)
    return metrics


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def report(run: RunResult, name: str, seed: int, trace: bool,
           root: Path) -> dict:
    """Print the human-readable lines and return the result object."""
    untraced = [rs for t, rs in run.sets if not t]
    walls = sorted(_set_wall(rs) for rs in untraced)
    print(json.dumps({"machine": machine_info()}))
    op_s = {}
    for rs in untraced:
        for r in rs:
            op_s.setdefault(r.op.label, []).append(r.seconds)
    print(json.dumps({"workload": name, "seed": seed,
                      "sets": len(run.sets), "untraced_set_wall_s": walls,
                      "setup_s_samples": run.setup_s, "op_s": op_s}))
    for r in run.results:
        if r.problems:
            print(f"FAILED {r.op.label}: {'; '.join(r.problems)}",
                  file=sys.stderr)
    if trace:
        values = per_layer_metrics(run)
        units = per_layer_units()
        run.tracer.dump(root / ".perfbench" / f"spans-{name}-{seed}.jsonl")
    else:
        values = end_to_end_metrics(run)
        units = END_TO_END
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}
