#!/usr/bin/env python3
"""Edge dislocation and wedge disclination: in-plane Burgers charge with the
classic 1/r displacement decay, and curvature flux carrying the Frank
rotation."""

import numpy as np

import defectgeom as dg
from defectgeom.forms import GridSpec, identity_coframe
from defectgeom.geometry import Disk

grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
eps = 0.05

# --- edge dislocation, Burgers along x ---
edge = dg.DefectConfiguration(
    grid, [dg.DefectSpec("edge", (0, 0), 1.0, eps,
                         burgers_direction=(1.0, 0.0))])
e = dg.build_coframe(edge)
omega = dg.build_connection(edge)
t = dg.torsion(e, omega)
flux = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))
print("edge Burgers flux:", np.round(flux, 6))
print("edge curvature max:", dg.curvature(omega).max_abs(), "(pure torsion)")

perturbation = e - identity_coframe(grid)
radii = np.linspace(0.2, 1.2, 6)
pts = np.stack([radii, np.zeros_like(radii), np.zeros_like(radii)], -1)
vals = perturbation.sample(pts, order=5)
mags = np.sqrt(np.sum(vals ** 2, axis=(0, 1)))
print("\n1/r decay of the displacement-gradient perturbation along +x:")
for r, m in zip(radii, mags):
    print(f"  r = {r:.2f}: |e - I| = {m:.4f},  r * |e - I| = {r * m:.4f}")

# --- wedge disclination ---
wedge = dg.DefectConfiguration(grid,
                               [dg.DefectSpec("wedge", (0, 0), 0.1, eps)])
omega_w = dg.build_connection(wedge)
r_w = dg.curvature(omega_w)
frank = dg.axial_vector(dg.frank_angles(r_w, Disk((0, 0, 0), 1.0)))
print(f"\nwedge Theta = 0.1: Frank axial vector = {np.round(frank, 6)}"
      f"  (2 pi Theta = {2 * np.pi * 0.1:.6f})")

# the connection circulates around the core like the screw's coframe does
pt = np.array([[0.5, 0.0, 0.0]])
om_vals = omega_w.sample(pt, order=5)[:, :, 0]
print("connection at (0.5, 0, 0): omega^2_1 dy-coefficient =",
      f"{om_vals[0, 1]:.6f} (analytic {-0.1 / 0.5:.6f})")

# torsion generated by the wedge integrates to zero over centered disks
t_w = dg.torsion(dg.build_coframe(wedge), omega_w)
b_w = dg.burgers_vector(t_w, Disk((0, 0, 0), 1.0))
print("wedge net Burgers flux (parity-protected zero):", np.round(b_w, 9))
