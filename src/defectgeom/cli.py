"""Command-line front end.

Subcommands: fields, charges, verify, simulate. Every run takes one scenario
JSON file, writes deterministic data files into --out and echoes the scenario
back for reproduction. Exit codes: 0 success, 1 config error, 2 verification
failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .defects import (
    EDGE,
    SCREW,
    CartanFields,
    axial_vector,
    build_coframe,
    build_connection,
    burgers_vector,
    curvature,
    frank_angles,
)
from .dynamics import _dot, magnus_force, step_lines, transversality_defect
from .field_theory import (
    bianchi_residuals,
    el_coframe_residual,
    el_connection_residual,
    embed_static_4d,
    u1_sources,
)
from .forms import AXIS_NAMES, identity_coframe, integrate_loop
from .geometry import Circle, Disk
from .io import _g17_tables, _g17_text, _words, write_field
from .network import charge_ledger, detect_and_reconnect
from .scenario import Scenario, ScenarioError, load_scenario, scenario_to_doc

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3
TRAJECTORY_BLOCK_ROWS = 512


def _json_dump(path, obj):
    # one string and one write: json.dump makes a write call per token
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def _prepare_out(out_dir, scenario: Scenario, args):
    out = Path(out_dir)
    probe = out / ".write-probe"
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise ScenarioError(f"output directory not writable: {err}") from err
    _json_dump(out / "scenario.json", scenario_to_doc(scenario))
    meta = {
        "version": __version__,
        "command": args.command,
        "resolutionScale": args.resolution_scale,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return out, meta


def _measuring_radius(scenario: Scenario, grid, around=None):
    """Transverse disk radius clear of the boundary and of other cores."""
    best = None
    for d in scenario.defects:
        if around is not None and d.position != around.position:
            continue
        dist = min(min(d.position[i] - grid.extents[i][0],
                       grid.extents[i][1] - d.position[i]) for i in range(2))
        best = dist if best is None else min(best, dist)
    if best is None:
        best = 0.5 * min(hi - lo for lo, hi in grid.extents[:2])
    radius = 0.8 * best
    if around is not None:
        for d in scenario.defects:
            if d.position == around.position:
                continue
            gap = np.hypot(d.position[0] - around.position[0],
                           d.position[1] - around.position[1])
            radius = min(radius, 0.6 * gap)
    return radius


def _finite(i, name, values) -> list:
    """`values` as a flat list of floats; a non-finite one is a runtime
    error that names defect `i` and the quantity."""
    values = [float(v) for v in np.ravel(values)]
    if not np.isfinite(values).all():
        raise ValueError(f"defect {i}: non-finite {name} {values}")
    return values


def _mid_z(grid):
    lo, hi = grid.extents[2]
    return 0.5 * (lo + hi)


def _cartan_fields(config) -> CartanFields:
    return CartanFields(build_coframe(config), build_connection(config))


def cmd_fields(scenario: Scenario, out: Path, scale: int) -> int:
    f = _cartan_fields(scenario.configuration(scale))
    grid = f.e.grid
    perturbation = f.e - identity_coframe(grid)
    for name, field in (("coframe", f.e),
                        ("coframe_perturbation", perturbation),
                        ("connection", f.omega), ("torsion", f.t),
                        ("curvature", f.r)):
        write_field(out / f"{name}.field", field)
    if scenario.defects:
        _write_ray_profile(out / "profile_ray.csv", perturbation, scenario,
                           grid)
    return EXIT_OK


def _write_ray_profile(path, perturbation, scenario, grid):
    """Perturbation magnitude along an +x ray from the first core (decay data)."""
    d = scenario.defects[0]
    rmax = _measuring_radius(scenario, grid)
    radii = np.linspace(2 * d.core_radius, rmax, 256)
    pts = np.zeros((len(radii), 3))
    pts[:, 0] = d.position[0] + radii
    pts[:, 1] = d.position[1]
    pts[:, 2] = _mid_z(grid)
    vals = perturbation.sample(pts, order=3)
    mag = np.sqrt(np.sum(vals * vals, axis=(0, 1)))
    bad = ~np.isfinite(radii * mag)
    if bad.any():
        raise ValueError(f"non-finite perturbation magnitude in {path.name} "
                         f"at r = {radii[bad][0]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,perturbation_mag,r_times_mag\n")
        for rr, m in zip(radii, mag):
            fh.write(f"{rr:.17g},{m:.17g},{rr * m:.17g}\n")


def cmd_charges(scenario: Scenario, out: Path, scale: int) -> int:
    f = _cartan_fields(scenario.configuration(scale))
    grid = f.e.grid
    zmid = _mid_z(grid)
    records = []
    for i, d in enumerate(scenario.defects):
        radius = _measuring_radius(scenario, grid, around=d)
        center = (d.position[0], d.position[1], zmid)
        disk = Disk(center, radius)
        b = burgers_vector(f.t, disk)
        frank = axial_vector(frank_angles(f.r, disk))
        # keep the loop clear of the boundary interpolation fringe
        holonomy = integrate_loop(f.e, Circle(center, 0.75 * radius))
        records.append({
            "kind": d.kind,
            "position": list(d.position),
            "charge": d.charge,
            "measuringRadius": radius,
            "burgers": _finite(i, "burgers", b),
            "frankAxial": _finite(i, "frankAxial", frank),
            "loopHolonomy": _finite(i, "loopHolonomy", holonomy),
        })
    _json_dump(out / "charges.json", {"scenario": scenario.name,
                                      "defects": records})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

MACHINE_ZERO = 1e-10
RATIO_BAND = (3.0, 5.0)


def _ratio_check(name, coarse, fine):
    if coarse <= MACHINE_ZERO and fine <= MACHINE_ZERO:
        return {"name": name, "passed": True, "coarse": coarse, "fine": fine,
                "classification": "exactly conserved (machine zero)"}
    ratio = coarse / fine if fine > 0 else float("inf")
    lo, hi = RATIO_BAND
    return {"name": name, "passed": bool(lo <= ratio <= hi),
            "coarse": coarse, "fine": fine, "ratio": ratio,
            "classification": "second-order convergence"}


def cmd_verify(scenario: Scenario, out: Path, scale: int) -> int:
    checks = []
    warnings = []
    base = _cartan_fields(scenario.configuration(scale))
    grid = base.e.grid
    if min(grid.resolution) < 8:
        warnings.append("grid resolution below 8 on some axis: quadrature "
                        "and stencils are underresolved")
    for i, d in enumerate(scenario.defects):
        if d.core_radius < 2 * max(grid.spacing[:2]):
            warnings.append(f"defect {i}: core radius {d.core_radius} below "
                            "two transverse cells; charges will be inaccurate")

    residual_records = []

    def record(res, term, grid):
        rec = res.as_record(term)
        rec["resolution"] = list(grid.resolution)
        rec["coreRadius"] = [d.core_radius for d in scenario.defects]
        rec["couplings"] = {"alpha": scenario.couplings.alpha,
                            "beta": scenario.couplings.beta,
                            "gamma": scenario.couplings.gamma}
        residual_records.append(rec)

    if min(grid.resolution) >= 16:
        norms = {}
        margin = [3.0 * h for h in grid.spacing]  # fixed by the base grid
        tubes = [(d.position[0], d.position[1], 5 * d.core_radius)
                 for d in scenario.defects]
        for tag in ("coarse", "fine"):
            f = base if tag == "coarse" else \
                _cartan_fields(scenario.configuration(2 * scale))
            dr, dte = bianchi_residuals(f, boundary_margin=margin,
                                        exclude_tubes=tubes)
            record(dr, f"DR ({tag})", f.e.grid)
            record(dte, f"DT - R^e ({tag})", f.e.grid)
            norms[(tag, "DR")] = dr.l2
            norms[(tag, "DT-Re")] = dte.l2
            del dr, dte, f

        checks.append(_ratio_check("bianchi DR interior convergence",
                                   norms[("coarse", "DR")],
                                   norms[("fine", "DR")]))
        checks.append(_ratio_check("bianchi DT - R^e interior convergence",
                                   norms[("coarse", "DT-Re")],
                                   norms[("fine", "DT-Re")]))
    else:
        coarse = ", ".join(f"{n} cells on {AXIS_NAMES[i]}"
                           for i, n in enumerate(grid.resolution) if n < 16)
        warnings.append("grid too coarse for the refinement diagnostic "
                        f"({coarse}, below 16); conservation-law convergence "
                        "skipped")

    zmid = _mid_z(grid)
    for i, d in enumerate(scenario.defects):
        radius = _measuring_radius(scenario, grid, around=d)
        center = (d.position[0], d.position[1], zmid)
        if d.kind in (SCREW, EDGE):
            b = _finite(i, "burgers", burgers_vector(base.t,
                                                     Disk(center, radius)))
            if d.kind == SCREW:
                expected = np.array([0.0, 0.0, d.charge])
            else:
                expected = d.charge * np.array([d.burgers_direction[0],
                                                d.burgers_direction[1], 0.0])
            # project onto the defect's own Burgers axis: transverse
            # components of the disk flux pick up long-range torsion tails
            # of other enclosed-tail defects by construction; the projection
            # onto the signed axis is the charge magnitude. The axis is
            # normalized before the charge scales it, whose square can
            # overflow.
            axis = expected / abs(d.charge)
            bhat = axis / np.linalg.norm(axis)
            err = abs(float(np.dot(b, bhat)) - abs(d.charge)) / abs(d.charge)
            checks.append({"name": f"defect {i} ({d.kind}) Burgers charge "
                                   "(projected)",
                           "passed": bool(err < 1e-3), "relativeError": err,
                           "measured": b})
            rmin = 6.0 * d.core_radius
            if rmin >= 0.9 * radius:
                warnings.append(f"defect {i}: no loop radius clears six core "
                                "radii; holonomy check skipped")
            else:
                radii = list(np.linspace(max(rmin, 0.3 * radius),
                                         0.9 * radius, 3))
                hols = [integrate_loop(base.e, Circle(center, rr))
                        for rr in radii]
                _finite(i, "loopHolonomy", hols)
                dev = float(max(np.max(np.abs(h - expected)) for h in hols))
                checks.append({"name": f"defect {i} ({d.kind}) loop holonomy "
                                       "equals Burgers, radius independent",
                               "passed": bool(dev < 1e-6
                                              * max(1.0, abs(d.charge))),
                               "maxDeviation": dev,
                               "radii": radii})
        else:
            frank = _finite(i, "frankAxial", axial_vector(
                frank_angles(base.r, Disk(center, radius))))
            expected = 2 * np.pi * d.charge
            err = abs(frank[2] - expected) / max(abs(expected), 1e-30)
            checks.append({"name": f"defect {i} (wedge) Frank charge",
                           "passed": bool(err < 1e-3), "relativeError": err,
                           "measured": frank})

    if not scenario.defects:
        f4 = embed_static_4d(base)
        res_e = el_coframe_residual(f4, scenario.couplings)
        res_o = el_connection_residual(f4, scenario.couplings)
        record(res_e, "D(*T) + Gamma R^e", grid)
        record(res_o, "D(*R) + kappa (e^*T - e^*T)", grid)
        checks.append({"name": "defect-free force balance residual is zero",
                       "passed": bool(res_e.l2 == 0.0 and res_e.linf == 0.0),
                       "l2": res_e.l2, "max": res_e.linf})
        checks.append({"name": "defect-free spin balance residual is zero",
                       "passed": bool(res_o.l2 == 0.0 and res_o.linf == 0.0),
                       "l2": res_o.l2, "max": res_o.linf})

    srcs = u1_sources(base, scenario.couplings)
    checks.append({"name": "U(1) source J2 identically zero in 3D",
                   "passed": bool(srcs.j2_identically_zero),
                   "dJ1Norm": srcs.dj1.l2})

    passed = all(c["passed"] for c in checks)
    report = {"scenario": scenario.name, "resolutionScale": scale,
              "passed": bool(passed), "checks": checks,
              "residuals": residual_records, "warnings": warnings}
    _json_dump(out / "verify_report.json", report)
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL"), c["name"])
    for w in warnings:
        print("WARN", w)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(scenario: Scenario, out: Path, scale: int) -> int:
    if scenario.dynamics is None:
        raise ScenarioError("$.dynamics: missing (required by simulate)")
    config = scenario.configuration(scale)
    grid = config.grid
    disc = scenario.disclination_field()
    params = scenario.dynamics
    threshold = scenario.reconnection_threshold
    if threshold is not None:
        # only the reconnection flux reads the geometry fields
        e = build_coframe(config)
        r = curvature(build_connection(config))

    lines = list(scenario.lines)
    initial_ledger = charge_ledger(lines, [])
    all_events = []
    all_clips = []
    node_steps = []
    current = lines
    for step in range(params.steps):
        current, node_step, clips = step_lines(current, disc, params,
                                               grid.extents, step)
        node_steps.append(node_step)
        all_clips.extend(clips)
        if threshold is not None:
            current, events = detect_and_reconnect(current, threshold, r, e,
                                                   step=step)
            all_events.extend(events)

    _write_trajectory(out / "trajectory.csv", node_steps,
                      params.external_force)

    with open(out / "events.jsonl", "w", encoding="utf-8") as fh:
        for ev in all_events:
            fh.write(json.dumps(ev.as_record(), sort_keys=True) + "\n")

    final_ledger = charge_ledger(current, all_events)
    _json_dump(out / "network_final.json", {
        "lines": [{"id": l.id, "burgers": [float(v) for v in l.burgers],
                   "nodes": [[float(x) for x in nd] for nd in l.nodes],
                   "closed": l.closed} for l in current],
        "eventCount": len(all_events),
        "ledgerInitial": [float(v) for v in initial_ledger],
        "ledgerFinal": [float(v) for v in final_ledger],
        "ledgerDrift": float(np.max(np.abs(final_ledger - initial_ledger))),
    })

    with open(out / "clips.jsonl", "w", encoding="utf-8") as fh:
        for c in all_clips:
            fh.write(json.dumps({"step": c.step, "lineId": c.line_id,
                                 "node": c.node,
                                 "position": [float(x) for x in c.position]},
                                sort_keys=True) + "\n")

    _write_transversality_map(out / "fig_transversality.csv", scenario, disc)
    return EXIT_OK


def _write_trajectory(path, node_steps, external_force):
    """One row per node and step; floats in %.17g, which round-trips.

    Rows go out in blocks of TRAJECTORY_BLOCK_ROWS, which span steps, and
    one `io._g17_text` call formats a block's 10 varying float columns. The
    text of `step,line_id,node,` comes from word tables of the file's step
    numbers, line ids and node indices. Every row carries the one uniform
    external force, whose three cells are formatted once per file. A line
    id holds no NUL (the scenario parser rejects it), because the kernel
    deletes NUL.
    """
    tables = _g17_tables()
    steps = [s for s in node_steps if len(s)]
    ext_words = _words(["".join("%.17g," % v for v in
                                np.asarray(external_force, float).tolist())])
    step_words = _words(["%d," % k for k in range(len(node_steps))])
    slots = {line_id: k for k, line_id in enumerate(dict.fromkeys(
        chain.from_iterable(s.line_ids for s in steps)))}
    id_words = _words([line_id + "," for line_id in slots])
    first = min((int(s.node.min()) for s in steps), default=0)
    last = max((int(s.node.max()) for s in steps), default=0)
    node_words = _words(["%d," % k for k in range(first, last + 1)])

    def text(block):
        values, keys = (np.concatenate(parts) for parts in zip(*block))
        return _g17_text(values, tables, {0: keys, 6: ext_words})

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,line_id,node,px,py,pz,vx,vy,vz,"
                 "fx_ext,fy_ext,fz_ext,fx_mag,fy_mag,fz_mag,transversality\n")
        block, count = [], 0
        for step, s in enumerate(node_steps):
            values = np.column_stack([s.position, s.velocity, s.f_magnus,
                                      s.transversality])
            ids = np.fromiter(map(slots.__getitem__, s.line_ids), np.intp,
                              len(s))
            keys = np.concatenate([
                np.repeat(step_words[step:step + 1], len(s), axis=0),
                id_words[ids], node_words[s.node - first]], axis=1)
            lo = 0
            while lo < len(s):
                hi = min(len(s), lo + TRAJECTORY_BLOCK_ROWS - count)
                block.append((values[lo:hi], keys[lo:hi]))
                count += hi - lo
                lo = hi
                if count == TRAJECTORY_BLOCK_ROWS:
                    fh.write(text(block))
                    block, count = [], 0
        if block:
            fh.write(text(block))


def _write_transversality_map(path, scenario: Scenario, disc):
    """|F . v| over 64 in-plane velocity directions at the first line node."""
    if not scenario.lines:
        return
    line = scenario.lines[0]
    theta = disc.theta_at(line.nodes[:1])[0]
    b = np.asarray(line.burgers, float)
    params = scenario.dynamics
    phi = 2 * np.pi * np.arange(64) / 64
    v = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(64)])
    f = magnus_force(theta, b, v, params.Gamma, params.force_law,
                     tangent=np.array([0.0, 0.0, 1.0]))
    rows = np.column_stack([phi, v, f, np.abs(_dot(f, v)),
                            transversality_defect(f, v)])
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite transversality data in {path.name} "
                         f"at phi = {rows[np.argmax(bad)][0]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi,vx,vy,vz,fx,fy,fz,f_dot_v_abs,transversality\n")
        for row in rows.tolist():
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="defectgeom",
        description="Defect-geometry engine: canonical dislocation and "
                    "disclination fields, charge extraction, conservation "
                    "diagnostics and line dynamics.")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--resolution-scale", type=int, default=1,
                        metavar="K", help="multiply all grid resolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("fields", "write .field binaries and a ray profile"),
                      ("charges", "extract Burgers/Frank charges"),
                      ("verify", "run residual and convergence diagnostics"),
                      ("simulate", "run line dynamics and reconnection")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("scenario", help="scenario JSON file")
    return parser


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (2^20 bytes).

    `ru_maxrss` is in bytes on macOS and in KiB on Linux and the BSDs.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


_parser = None  # built by the first `main` call of a process


def main(argv=None) -> int:
    global _parser
    rss_at_start = _peak_rss_mb()
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.resolution_scale < 1:
        print("error: --resolution-scale must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    start = time.perf_counter()
    try:
        scenario = load_scenario(args.scenario)
        out, meta = _prepare_out(args.out, scenario, args)
    except ScenarioError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "fields":
            code = cmd_fields(scenario, out, args.resolution_scale)
        elif args.command == "charges":
            code = cmd_charges(scenario, out, args.resolution_scale)
        elif args.command == "verify":
            code = cmd_verify(scenario, out, args.resolution_scale)
        elif args.command == "simulate":
            code = cmd_simulate(scenario, out, args.resolution_scale)
        else:
            raise RuntimeError(f"unhandled command {args.command}")
    except ScenarioError as err:
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - map to documented exit code
        print(f"runtime error: {err}", file=sys.stderr)
        code = EXIT_RUNTIME
    # meta.json is written once, here, which every run that got past
    # _prepare_out reaches; a run's cost varies between reruns, so it goes
    # in meta.json only
    meta["wallSeconds"] = time.perf_counter() - start
    meta["peakRssMb"] = _peak_rss_mb()
    meta["peakRssMbAtStart"] = rss_at_start
    _json_dump(out / "meta.json", meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
