"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line. Tolerances are fixed
here and match the project contract; grids stay at desk scale (at most
128 x 128 x 32 cells, every scenario well under a minute).
"""

from math import erf, sqrt
from pathlib import Path

import numpy as np

import defectgeom as dg
from defectgeom.cli import main as cli_main
from defectgeom.dynamics import (
    CROSS_PRODUCT,
    DERIVATION_CONSISTENT,
    DisclinationField,
    DisclinationSource,
    DislocationLine,
    DynamicsParams,
    magnus_force,
    solve_velocity,
)
from defectgeom.forms import GridSpec
from defectgeom.geometry import Box, Circle, Disk
from defectgeom.network import (
    charge_ledger,
    curvature_screened_flux,
    detect_and_reconnect,
    reconnect,
)

from conftest import EPS, EXTENTS, run_steps, tilted_coframe
from test_field_theory import generic_fields

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, passed, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_01_screw_burgers_charge(screw_fields):
    """Screw b = 1, eps = 0.05 on the 128 x 128 transverse grid: the torsion
    flux through a radius-1 disk lands in [0.999, 1.001] and the transverse
    components stay below 1e-6."""
    _, _, _, t = screw_fields
    b = dg.burgers_vector(t, Disk((0, 0, 0), 1.0), resolution=512)
    ok = 0.999 <= b[2] <= 1.001 and abs(b[0]) < 1e-6 and abs(b[1]) < 1e-6
    report(1, ok, f"disk flux {b[2]:.6f}, transverse ({b[0]:.1e}, {b[1]:.1e})")


def test_criterion_02_loop_holonomy(screw_fields):
    """Coframe holonomy around the screw equals b to 1e-6 at radii 0.3, 0.6
    and 0.9, demonstrating radius independence."""
    _, e, _, _ = screw_fields
    devs = []
    for radius in (0.3, 0.6, 0.9):
        h = dg.integrate_loop(e, Circle((0, 0, 0), radius))
        devs.append(abs(h[2] - 1.0))
    ok = max(devs) < 1e-6
    report(2, ok, "holonomy deviations " + ", ".join(f"{d:.1e}" for d in devs))


def test_criterion_03_frank_charge(wedge_fields):
    """Wedge Theta = 0.1: curvature flux through a centered disk within one
    part in a thousand of 2 pi Theta."""
    _, _, _, r = wedge_fields
    axial = dg.axial_vector(dg.frank_angles(r, Disk((0, 0, 0), 1.0),
                                            resolution=512))
    target = 2 * np.pi * 0.1
    ok = 0.999 * target <= axial[2] <= 1.001 * target
    report(3, ok, f"curvature flux {axial[2]:.6f} vs {target:.6f}")


def test_criterion_04_distributional_identity(grid128):
    """The screened circulation obeys the distributional identity: its
    derivative integrates to 2 pi over a disk (1e-3 relative) and its loop
    integral is radius independent to 1e-6 beyond five core radii."""
    X, Y, _ = grid128.meshgrid()
    cx, cy = dg.screened_circulation(X, Y, EPS)
    theta = dg.FormField(grid128, 1, dg.SCALAR,
                         np.stack([cx, cy, np.zeros(grid128.resolution)]))
    disk_val = dg.integrate_surface(dg.exterior_derivative(theta),
                                    Disk((0, 0, 0), 1.0), resolution=512)
    disk_ok = abs(disk_val - 2 * np.pi) / (2 * np.pi) < 1e-3
    loops = [dg.integrate_loop(theta, Circle((0, 0, 0), r))
             for r in (6 * EPS, 0.6, 0.9, 1.2)]
    spread = (max(loops) - min(loops)) / (2 * np.pi)
    loop_ok = spread < 1e-6
    report(4, disk_ok and loop_ok,
           f"disk integral {disk_val:.6f} vs 2 pi, loop spread {spread:.1e}")


def test_criterion_05_edge_charges(edge_fields):
    """Edge b = 1 along x: extraction returns (1, 0, 0) to 1e-3 relative and
    the curvature vanishes identically."""
    _, _, om, t = edge_fields
    b = dg.burgers_vector(t, Disk((0, 0, 0), 1.0), resolution=512)
    r = dg.curvature(om)
    ok = (abs(b[0] - 1.0) < 1e-3 and abs(b[1]) < 1e-3 and abs(b[2]) < 1e-3
          and r.max_abs() == 0.0)
    report(5, ok, f"burgers ({b[0]:.6f}, {b[1]:.1e}, {b[2]:.1e}), "
                  f"max |R| = {r.max_abs():.1e}")


def test_criterion_06_bianchi_convergence():
    """Conservation-law residuals for the wedge+screw superposition under
    grid doubling. The scheme conserves both identities bit-exactly for
    z-aligned lines (0 -> 0, stronger than the required fourfold drop); the
    fourfold drop itself is demonstrated on a generic smooth configuration
    where the residuals are nonzero."""
    norms = {}
    for factor in (1, 2):
        grid = GridSpec(EXTENTS, [64 * factor, 64 * factor, 8 * factor])
        cfg = dg.DefectConfiguration(
            grid, [dg.DefectSpec("screw", (-0.5, 0), 1.0, EPS),
                   dg.DefectSpec("wedge", (0.5, 0), 0.1, EPS)])
        f = dg.CartanFields(dg.build_coframe(cfg), dg.build_connection(cfg))
        dr, dte = dg.bianchi_residuals(
            f, boundary_margin=[0.15, 0.15, 0.3],
            exclude_tubes=[(-0.5, 0, 5 * EPS), (0.5, 0, 5 * EPS)])
        norms[factor] = (dr.l2, dte.l2)
    canonical_exact = all(v < 1e-10 for pair in norms.values() for v in pair)

    gnorms = {}
    for n in (32, 64):
        dr, dte = dg.bianchi_residuals(generic_fields(n),
                                       boundary_margin=0.3)
        gnorms[n] = (dr.l2, dte.l2)
    r_dr = gnorms[32][0] / gnorms[64][0]
    r_dt = gnorms[32][1] / gnorms[64][1]
    generic_ok = 3.0 <= r_dr <= 5.0 and 3.0 <= r_dt <= 5.0

    report(6, canonical_exact and generic_ok,
           f"wedge+screw residuals exactly conserved "
           f"({norms[1][0]:.1e}, {norms[1][1]:.1e} -> "
           f"{norms[2][0]:.1e}, {norms[2][1]:.1e}); generic ratios "
           f"DR {r_dr:.2f}, DT-Re {r_dt:.2f} in [3, 5]")


def test_criterion_07_magnus_transversality():
    """|F . v| / (|F| |v|) < 1e-12 over 64 velocity directions and every
    node of a driven trajectory, plus the exact cross-product example."""
    f = magnus_force([0, 0, 0.1], [1, 0, 0], [0.5, 0, 0], 1.0, CROSS_PRODUCT)
    example_ok = np.array_equal(f, np.array([0.0, 0.0, -0.05]))

    theta = np.array([0.0, 0.0, 0.05])
    b = np.array([1.0, 0.0, 0.0])
    defects = []
    for law in (CROSS_PRODUCT, DERIVATION_CONSISTENT):
        for k in range(64):
            phi = 2 * np.pi * k / 64
            v = np.array([np.cos(phi), np.sin(phi), 0.0])
            fm = magnus_force(theta, b, v, 2.0, law, np.array([0., 0., 1.]))
            num = abs(np.dot(fm, v))
            den = np.linalg.norm(fm) * np.linalg.norm(v)
            if den > 0:
                defects.append(num / den)

    line = DislocationLine(
        np.stack([np.full(4, -0.2), np.zeros(4),
                  np.linspace(-0.3, 0.3, 4)], -1),
        np.array([1.0, 0.0, 0.0]), id="L")
    disc = DisclinationField([DisclinationSource((0.1, 0.0), 0.2, 0.15)])
    params = DynamicsParams(Gamma=2.0, time_step=0.02, steps=50,
                            external_force=np.array([0.4, 0.0, 0.0]))
    _, node_steps, _ = run_steps([line], disc, params, EXTENTS)
    for s in node_steps:
        defects.extend(s.transversality.tolist())

    worst = max(defects)
    ok = example_ok and worst < 1e-12
    report(7, ok, f"cross example exact: {example_ok}, "
                  f"worst defect {worst:.1e} over "
                  f"{len(defects)} samples")


def test_criterion_08_velocity_solve():
    """1000 random draws: the implicit solve back-substitutes below 1e-12
    and the speed bound |v| <= M |F_ext| is never violated."""
    rng = np.random.default_rng(20240809)
    worst_res, violations = 0.0, 0
    for _ in range(1000):
        f_ext = rng.normal(size=3)
        theta = rng.normal(size=3) * rng.uniform(0, 0.5)
        b = rng.normal(size=3)
        Gamma = rng.uniform(0.0, 3.0)
        M = rng.uniform(0.1, 2.0)
        v = solve_velocity(f_ext, theta, b, Gamma, M)
        res = np.linalg.norm(
            v - M * (f_ext + magnus_force(theta, b, v, Gamma)))
        worst_res = max(worst_res, res)
        if np.linalg.norm(v) > M * np.linalg.norm(f_ext):
            violations += 1
    ok = worst_res < 1e-12 and violations == 0
    report(8, ok, f"worst residual {worst_res:.1e}, "
                  f"speed-bound violations {violations}")


def test_criterion_09_reconnection_algebra(grid64):
    """Exact merge algebra on 1000 random triples, ledger conservation
    across a three-event cascade, and annihilation of an antiparallel
    pair."""
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(1000):
        b1, b2, db = rng.normal(size=(3, 3))
        bf, _ = reconnect(b1, b2, db)
        exact &= np.array_equal(bf, b1 + b2 + db)

    lines = [DislocationLine(np.array([[0.1 * i, 0.0, -0.2],
                                       [0.1 * i, 0.0, 0.2]]),
                             rng.normal(size=3), id=f"l{i}")
             for i in range(4)]
    events = []
    total0 = charge_ledger(lines, events)
    for _ in range(3):
        bf, ev = reconnect(lines[0].burgers, lines[1].burgers,
                           rng.normal(size=3) * 0.1)
        events.append(ev)
        lines = [DislocationLine(lines[0].nodes, bf, id="m")] + lines[2:]
    drift = float(np.max(np.abs(charge_ledger(lines, events) - total0)))

    r0 = dg.FormField.zeros(grid64, 2, dg.ANTISYM)
    e0 = dg.identity_coframe(grid64)
    z = np.linspace(-0.3, 0.3, 5)
    pair = [DislocationLine(np.stack([np.full(5, -0.005), np.zeros(5), z], -1),
                            np.array([0.0, 0.0, 1.0]), id="p"),
            DislocationLine(np.stack([np.full(5, 0.005), np.zeros(5), z], -1),
                            np.array([0.0, 0.0, -1.0]), id="m")]
    out, evs = detect_and_reconnect(pair, 0.02, r0, e0)

    ok = exact and drift < 1e-12 and out == [] and len(evs) == 1
    report(9, ok, f"algebra exact: {exact}, cascade drift {drift:.1e}, "
                  f"annihilation leaves {len(out)} lines")


def test_criterion_10_curvature_screened_exchange(grid128):
    """The exchanged Burgers charge over a tube around a wedge core matches
    the pre-computed analytic value of the regularized integral to 1e-3, and
    vanishes below 1e-6 for curvature-free volumes."""
    cfg = dg.DefectConfiguration(grid128, [dg.DefectSpec("wedge", (0, 0),
                                                         0.1, EPS)])
    r = dg.curvature(dg.build_connection(cfg))
    e = tilted_coframe(grid128, tilt=0.3)
    theta, c, w, z0, z1 = 0.1, 0.3, 0.5, -0.3, 0.2
    oracle = -2 * np.pi * theta * c * (z1 - z0) * erf(w / (sqrt(2) * EPS)) ** 2
    db = curvature_screened_flux(r, e, Box((-w, -w, z0), (w, w, z1)))
    rel = abs(db[0] - oracle) / abs(oracle)
    far = curvature_screened_flux(r, e, Box((0.8, 0.8, -0.2), (1.2, 1.2, 0.2)))
    far_mag = float(np.max(np.abs(far)))
    ok = rel < 1e-3 and far_mag < 1e-6
    report(10, ok, f"tube flux {db[0]:.6f} vs oracle {oracle:.6f} "
                   f"(rel {rel:.1e}), curvature-free magnitude {far_mag:.1e}")


def test_criterion_11_u1_sources(screw_fields):
    """Screw-tube volume integral of J1 equals kappa b L to 1e-3; the source
    is exactly closed on this grid (0 -> 0 under refinement, subsuming the
    fourfold drop); J2 is reported identically zero in three dimensions."""
    _, e, om, _ = screw_fields
    kappa = 1.5
    couplings = dg.Couplings(1, 1, 1, kappa_u1=kappa, lambda_u1=1.0)
    src = dg.u1_sources(dg.CartanFields(e, om), couplings)
    val = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, -0.4), (0.6, 0.6, 0.4)))
    target = kappa * 1.0 * 0.8
    tube_ok = abs(val - target) / target < 1e-3

    dj_norms = []
    for factor in (1, 2):
        grid = GridSpec(EXTENTS, [48 * factor, 48 * factor, 4 * factor])
        cfg = dg.DefectConfiguration(grid, [dg.DefectSpec("screw", (0, 0),
                                                          1.0, 0.1)])
        f4 = dg.embed_static_4d(
            dg.CartanFields(dg.build_coframe(cfg), dg.build_connection(cfg)))
        s4 = dg.u1_sources(f4, couplings,
                           boundary_margin=(0.2, 0.2, 0.2, 0.0))
        dj_norms.append(s4.dj1.l2)
    closed_ok = all(n < 1e-12 for n in dj_norms) or \
        (dj_norms[1] > 0 and 3.0 <= dj_norms[0] / dj_norms[1] <= 5.0)

    j2_ok = src.j2_identically_zero and src.j2 is None
    ok = tube_ok and closed_ok and j2_ok
    report(11, ok, f"tube integral {val:.6f} vs {target:.6f}, "
                   f"dJ1 norms {dj_norms[0]:.1e} -> {dj_norms[1]:.1e} "
                   f"(exactly closed), J2 identically zero: {j2_ok}")


def test_criterion_12_determinism(tmp_path):
    """Two runs of the same scenario produce bit-identical data files; only
    the metadata sidecar carries a timestamp."""
    matched = True
    compared = 0
    for command, scenario in (("simulate", "magnus.json"),
                              ("charges", "screw.json")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main(["--out", str(out), command,
                             str(SCENARIOS / scenario)])
            assert code == 0
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            if name == "meta.json":
                continue
            compared += 1
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                matched = False
    report(12, matched and compared > 0,
           f"{compared} data files byte-identical across reruns")
