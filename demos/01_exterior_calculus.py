#!/usr/bin/env python3
"""Tour of the exterior-calculus kernel.

Builds k-form fields on a regular grid and walks through the wedge product,
exterior derivative, Hodge dual, interior product and the loop/surface
quadratures used for charge extraction. The disk integral uses the default
surface rule: 64 Gauss-Legendre nodes in the radius by 128 periodic-midpoint
angles, which converges geometrically on a disk; the loop integrals use the
periodic midpoint rule with 512 points.
"""

import numpy as np

import defectgeom as dg
from defectgeom.forms import FormField, GridSpec
from defectgeom.geometry import Circle, Disk

grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
X, Y, Z = grid.meshgrid()
print(f"grid: dim={grid.dim}, resolution={grid.resolution}, "
      f"spacing={tuple(round(h, 4) for h in grid.spacing)}")

# constant basis forms
dx = FormField(grid, 1, dg.SCALAR, np.stack([np.ones(grid.resolution),
                                             np.zeros(grid.resolution),
                                             np.zeros(grid.resolution)]))
dy = FormField(grid, 1, dg.SCALAR, np.stack([np.zeros(grid.resolution),
                                             np.ones(grid.resolution),
                                             np.zeros(grid.resolution)]))

w = dg.wedge(dx, dy)
print("\ndx ^ dy components:", dict(zip(w.components, w.coeffs[:, 0, 0, 0])))
w_flip = dg.wedge(dy, dx)
print("antisymmetry, bit-exact:",
      np.array_equal(w.coeffs, -w_flip.coeffs))

star = dg.hodge_star(dx)
print("*(dx) components:", dict(zip(star.components, star.coeffs[:, 0, 0, 0])))
twice = dg.hodge_star(star)
print("**(dx) == dx exactly:", np.array_equal(twice.coeffs, dx.coeffs))

f = FormField(grid, 0, dg.SCALAR, (np.sin(X) * np.cos(Y))[None])
df = dg.exterior_derivative(f)
interior = (slice(2, -2), slice(2, -2), slice(2, -2))
err = np.abs(df.coeffs[0][interior] - (np.cos(X) * np.cos(Y))[interior]).max()
print(f"\nd(sin x cos y): max interior error vs cos x cos y = {err:.2e}")

dd = dg.exterior_derivative(df)
print(f"d(d f) stays at rounding level: max |ddf| = {dd.max_abs():.2e}")

v = np.array([1.0, 2.0, 0.0])
lhs = dg.interior_product(v, w)
rhs = dg.wedge(dg.interior_product(v, dx), dy) - \
    dg.wedge(dx, dg.interior_product(v, dy))
print("interior-product antiderivation, bit-exact:",
      np.array_equal(lhs.coeffs, rhs.coeffs))

# the screened circulation: the font of every defect charge in the package
eps = 0.05
cx, cy = dg.screened_circulation(X, Y, eps)
theta = FormField(grid, 1, dg.SCALAR,
                  np.stack([cx, cy, np.zeros(grid.resolution)]))
print("\nloop integrals of the screened circulation (2 pi expected):")
for radius in (0.3, 0.6, 1.2):
    val = dg.integrate_loop(theta, Circle((0, 0, 0), radius))
    print(f"  radius {radius:.1f}: {val:.9f}  (dev {val - 2 * np.pi:+.1e})")

d_theta = dg.exterior_derivative(theta)
disk = dg.integrate_surface(d_theta, Disk((0, 0, 0), 1.0))
print(f"Stokes check, disk integral of d(circulation): {disk:.9f}")
