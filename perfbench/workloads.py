"""Seeded inputs, operations and output checks of the defectgeom benchmark.

A workload turns a seed into scenario JSON files and lists the CLI
operations of one pass over them (a "set"). The program sees only those
files. Inputs stay inside what the CLI documents as valid: cores at least
two transverse cells wide, screw and edge charges given as positive
magnitudes, and every core far enough from the boundary and from other
cores that a measuring disk and loop fit around it. Inside that domain
every check below must pass; a check that fails is a program defect.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from defectgeom import io as dg_io

FIELD_NAMES = ("coframe", "coframe_perturbation", "connection", "torsion",
               "curvature")
CHARGE_TOL = 1e-3      # projected Burgers / Frank charge, relative (as verify)
HOLONOMY_TOL = 1e-6    # loop holonomy, absolute per unit charge (as verify)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, scenario file, resolution scale."""

    command: str
    scenario: Path
    scale: int = 1
    min_events: int = 0

    @property
    def label(self) -> str:
        return f"{self.command}:{self.scenario.stem}:x{self.scale}"

    def argv(self, out: Path) -> list:
        return ["--out", str(out), "--resolution-scale", str(self.scale),
                self.command, str(self.scenario)]


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _couplings(rng):
    return {"alpha": rng.uniform(0.5, 2.0), "beta": rng.uniform(0.5, 2.0),
            "gamma": rng.uniform(0.25, 2.0), "kappa_u1": rng.uniform(0.0, 1.0),
            "lambda_u1": rng.uniform(0.0, 1.0)}


# ---------------------------------------------------------------------------
# defect_products: fields then charges on 128x128x8 defect scenarios
# ---------------------------------------------------------------------------

HALF = 1.6          # transverse half-width of the defect grids
CORE = (0.052, 0.065)
BOUNDARY_CORES = 15.0   # core radii from a core to the boundary
GAP_CORES = 20.0        # core radii between two cores
# An edge next to a wedge is left out: the wedge's connection adds
# omega ^ e to the edge's torsion, so its Burgers flux depends on the frame.
PAIR_KINDS = (("screw", "screw"), ("screw", "edge"), ("edge", "edge"),
              ("screw", "wedge"), ("wedge", "wedge"))


def _defect(rng, kind, position, eps):
    d = {"kind": kind, "position": [float(v) for v in position],
         "core_radius": eps}
    if kind == "wedge":
        d["charge"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
    else:
        d["charge"] = rng.uniform(0.5, 1.5)
    if kind == "edge":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        d["burgers_direction"] = [math.cos(phi), math.sin(phi)]
    return d


def _place(rng, count, eps):
    """Core positions clear of the boundary and of each other."""
    reach = HALF - BOUNDARY_CORES * eps
    while True:
        pts = [(rng.uniform(-reach, reach), rng.uniform(-reach, reach))
               for _ in range(count)]
        if all(math.dist(p, q) >= GAP_CORES * eps
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            return pts


def _defect_scenario(rng, name, kinds):
    eps = rng.uniform(*CORE)
    positions = _place(rng, len(kinds), eps)
    return {"name": name,
            "grid": {"extents": [[-HALF, HALF], [-HALF, HALF], [-0.4, 0.4]],
                     "resolution": [128, 128, 8]},
            "defects": [_defect(rng, k, p, eps)
                        for k, p in zip(kinds, positions)],
            "couplings": _couplings(rng),
            "outputs": ["fields", "charges"]}


def defect_products(seed: int, dest: Path, small: bool = False) -> list:
    """fields on a one-defect scenario, charges on a two-defect scenario.

    fields time does not depend on the defect count and charges time is
    proportional to it, so each set holds both counts at a fixed cost.
    """
    rng = random.Random(seed)
    single = _write(dest / "single.json", _defect_scenario(
        rng, "single", (rng.choice(("screw", "edge", "wedge")),)))
    pair = single if small else _write(dest / "pair.json", _defect_scenario(
        rng, "pair", rng.choice(PAIR_KINDS)))
    return [Op("fields", single), Op("charges", pair)]


# ---------------------------------------------------------------------------
# residual_refinement: verify on defect-free cubic grids
# ---------------------------------------------------------------------------

def _cubic_scenario(rng, name, n):
    extents = []
    for _ in range(3):
        length = rng.uniform(1.6, 3.2)
        lo = rng.uniform(-0.5, 0.5) - 0.5 * length
        extents.append([lo, lo + length])
    return {"name": name, "grid": {"extents": extents, "resolution": [n] * 3},
            "defects": [], "couplings": _couplings(rng),
            "outputs": ["residuals"]}


def residual_refinement(seed: int, dest: Path, small: bool = False) -> list:
    """verify at --resolution-scale 1 and 2 on cubic grids of 16^3 and 20^3.

    The refinement diagnostic needs 16 cells per axis; at scale 2 the fine
    level is 64^3 and 80^3, the largest arrays of any workload.
    """
    rng = random.Random(seed)
    ops = []
    for n in ((16,) if small else (16, 20)):
        path = _write(dest / f"cubic{n}.json",
                      _cubic_scenario(rng, f"cubic{n}", n))
        ops += [Op("verify", path, 1), Op("verify", path, 2)]
    return ops


# ---------------------------------------------------------------------------
# line_network: simulate many lines with sources and reconnection
# ---------------------------------------------------------------------------

LINE_BURGERS = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0), (1.0, 0.0, 1.0))
THRESHOLD = 0.03
PAIR_OFFSET = 0.015     # planted pairs touch at step 0: offset < threshold


def _line_nodes(rng, x0, y0, count):
    z = np.linspace(-0.35, 0.35, count)
    amp = rng.uniform(0.0, 0.01)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    wave = amp * np.sin(2.0 * math.pi * z / 0.7 + phase)
    return np.column_stack([x0 + wave, y0 + wave, z])


def line_network(seed: int, dest: Path, small: bool = False) -> list:
    """simulate 60 lines x 30 nodes x 20 steps on a 64x64x8 grid.

    Lines sit on a jittered lattice 0.3 apart, far outside the 0.03
    reconnection threshold; three planted pairs with equal Burgers vectors
    merge and three with opposite ones annihilate at the first step. Burgers
    components are 0 or +-1 and the scenario has no wedge defect, so every
    exchanged charge is exactly zero and the ledger must not drift at all.
    """
    rng = random.Random(seed)
    lines_total, nodes, steps, pairs = (12, 8, 4, 1) if small else (60, 30, 20, 3)
    sites = [(-1.05 + 0.3 * i, -1.05 + 0.3 * j)
             for i in range(8) for j in range(8)]
    rng.shuffle(sites)
    lines = []

    def add(x, y, b, tag, template=None):
        pts = template if template is not None else _line_nodes(rng, x, y, nodes)
        lines.append({"nodes": pts.tolist(), "burgers": list(b),
                      "id": f"{tag}{len(lines)}"})
        return pts

    site = iter(sites)
    for k in range(2 * pairs):
        x, y = next(site)
        x += rng.uniform(-0.05, 0.05)
        y += rng.uniform(-0.05, 0.05)
        b = rng.choice(LINE_BURGERS)
        first = add(x, y, b, "p")
        phi = rng.uniform(0.0, 2.0 * math.pi)
        shift = PAIR_OFFSET * np.array([math.cos(phi), math.sin(phi), 0.0])
        partner = b if k < pairs else tuple(-v for v in b)
        add(0, 0, partner, "q", first + shift)
    while len(lines) < lines_total:
        x, y = next(site)
        add(x + rng.uniform(-0.05, 0.05), y + rng.uniform(-0.05, 0.05),
            rng.choice(LINE_BURGERS), "l")
    phi = rng.uniform(0.0, 2.0 * math.pi)
    force = rng.uniform(0.2, 0.4)
    sources = [{"position": [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)],
                "frank": rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.3),
                "core_radius": rng.uniform(0.15, 0.3)} for _ in range(3)]
    doc = {"name": "network",
           "grid": {"extents": [[-HALF, HALF], [-HALF, HALF], [-0.4, 0.4]],
                    "resolution": [64, 64, 8]},
           "defects": [],
           "couplings": _couplings(rng),
           "outputs": ["trajectories", "events"],
           "dynamics": {"force_law": "derivation",
                        "external_force": [force * math.cos(phi),
                                           force * math.sin(phi), 0.0],
                        "time_step": 0.01, "steps": steps,
                        "reconnection_threshold": THRESHOLD,
                        "disclination_sources": sources,
                        "lines": lines}}
    return [Op("simulate", _write(dest / "network.json", doc),
               min_events=2 * pairs)]


WORKLOADS = {"defect_products": defect_products,
             "residual_refinement": residual_refinement,
             "line_network": line_network}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_fields(op: Op, out: Path, doc: dict) -> list:
    grid = doc["grid"]
    resolution = tuple(n * op.scale for n in grid["resolution"])
    extents = tuple(tuple(e) for e in grid["extents"])
    problems = []
    for name in FIELD_NAMES:
        try:
            field = dg_io.read_field(out / f"{name}.field")
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"{name}.field does not read back: {err}")
            continue
        if field.grid.resolution != resolution or field.grid.extents != extents:
            problems.append(f"{name}.field grid {field.grid} differs from the "
                            "scenario grid")
        if not np.all(np.isfinite(field.coeffs)):
            problems.append(f"{name}.field has non-finite data")
    return problems


def check_charges(op: Op, out: Path, doc: dict) -> list:
    records = json.loads((out / "charges.json").read_text())["defects"]
    if len(records) != len(doc["defects"]):
        return [f"{len(records)} charge records for {len(doc['defects'])} defects"]
    problems = []
    for i, (d, rec) in enumerate(zip(doc["defects"], records)):
        q = d["charge"]
        if d["kind"] == "wedge":
            frank = rec["frankAxial"][2]
            err = abs(frank - 2 * math.pi * q) / abs(2 * math.pi * q)
            if not err < CHARGE_TOL:
                problems.append(f"defect {i}: Frank charge error {err:.3g}")
            continue
        if d["kind"] == "screw":
            axis = np.array([0.0, 0.0, 1.0])
        else:
            axis = np.array([*d["burgers_direction"], 0.0])
        err = abs(float(np.dot(rec["burgers"], axis)) - q) / abs(q)
        if not err < CHARGE_TOL:
            problems.append(f"defect {i}: projected Burgers error {err:.3g}")
        dev = float(np.max(np.abs(np.array(rec["loopHolonomy"]) - q * axis)))
        if not dev < HOLONOMY_TOL * max(1.0, abs(q)):
            problems.append(f"defect {i}: loop holonomy off by {dev:.3g}")
    return problems


def check_verify(op: Op, out: Path, doc: dict) -> list:
    report = json.loads((out / "verify_report.json").read_text())
    if report.get("passed") is not True:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return [f"verify did not pass: {failed}"]
    return []


def check_simulate(op: Op, out: Path, doc: dict) -> list:
    final = json.loads((out / "network_final.json").read_text())
    problems = []
    if final["ledgerDrift"] != 0.0:
        problems.append(f"ledger drift {final['ledgerDrift']!r}")
    if final["eventCount"] < op.min_events:
        problems.append(f"{final['eventCount']} reconnection events, "
                        f"expected at least {op.min_events}")
    path = out / "trajectory.csv"
    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
    numeric = [i for i, c in enumerate(columns) if c != "line_id"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric,
                      ndmin=2)
    if rows.shape[0] == 0 or not np.all(np.isfinite(rows)):
        problems.append("trajectory is empty or has non-finite values")
    return problems


CHECKS = {"fields": check_fields, "charges": check_charges,
          "verify": check_verify, "simulate": check_simulate}


def check_outputs(op: Op, out: Path) -> list:
    """Problems found in one operation's outputs; empty when correct."""
    doc = json.loads(op.scenario.read_text())
    try:
        return CHECKS[op.command](op, out, doc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def digest_outputs(out: Path) -> dict:
    """SHA-256 of every data file, keyed by relative path; meta.json excluded."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "meta.json":
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[rel] = h.hexdigest()
    return digests
