#!/usr/bin/env python3
"""Screw dislocation: torsion flux and holonomy both recover the Burgers
vector, independent of how the measuring contour is drawn."""

import numpy as np

import defectgeom as dg
from defectgeom.forms import GridSpec
from defectgeom.geometry import Circle, Disk

b, eps = 1.0, 0.05
grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
config = dg.DefectConfiguration(grid, [dg.DefectSpec("screw", (0, 0), b, eps)])

e = dg.build_coframe(config)
omega = dg.build_connection(config)
t = dg.torsion(e, omega)
print(f"screw b = {b}, core radius eps = {eps}")
print(f"torsion peak density: {t.max_abs():.2f} "
      f"(Gaussian core height b/(2 pi eps^2) = {b / (2 * np.pi * eps**2):.2f})")

print("\nBurgers vector from the torsion flux through transverse disks:")
for radius in (0.5, 1.0):
    flux = dg.burgers_vector(t, Disk((0, 0, 0), radius))
    print(f"  radius {radius}: ({flux[0]:.2e}, {flux[1]:.2e}, {flux[2]:.6f})")

print("\nBurgers vector from coframe holonomy (radius independent):")
for radius in (0.3, 0.6, 0.9):
    hol = dg.integrate_loop(e, Circle((0, 0, 0), radius))
    print(f"  radius {radius}: e^3 circuit = {hol[2]:.9f}")

# the measuring surface may be deformed freely while its boundary stays put
from defectgeom.geometry import ParametricSurface

def cap(amp, radius=1.0):
    def point(u, w):
        ang = 2 * np.pi * w
        return np.stack([radius * u * np.cos(ang), radius * u * np.sin(ang),
                         amp * (1 - u ** 2)], -1)
    def tan_u(u, w):
        ang = 2 * np.pi * w
        return np.stack([radius * np.cos(ang), radius * np.sin(ang),
                         -2 * amp * u], -1)
    def tan_w(u, w):
        ang = 2 * np.pi * w
        return np.stack([-2 * np.pi * radius * u * np.sin(ang),
                         2 * np.pi * radius * u * np.cos(ang),
                         np.zeros_like(u)], -1)
    return ParametricSurface(point, tan_u, tan_w)

flat = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))[2]
bulged = dg.burgers_vector(t, cap(0.25))[2]
print(f"\nflat disk flux {flat:.9f} vs bulged cap {bulged:.9f} "
      f"(difference {abs(flat - bulged):.1e})")
