#!/usr/bin/env python3
"""Field-equation diagnostics: action breakdown, force and spin balance
residuals on the thin 4D embedding, and conservation-law convergence."""

import numpy as np

import defectgeom as dg
from defectgeom.forms import GridSpec

couplings = dg.Couplings(alpha=1.0, beta=1.0, gamma=0.5)
print(f"couplings: Gamma = gamma/alpha = {couplings.Gamma}, "
      f"kappa = gamma/(2 beta) = {couplings.kappa_el}")

grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
screw = dg.DefectConfiguration(grid,
                               [dg.DefectSpec("screw", (0, 0), 1.0, 0.1)])
fields = dg.CartanFields(dg.build_coframe(screw), dg.build_connection(screw))

act = dg.action_density(fields, couplings)
self_energy = 1.0 / (4 * np.pi * 0.1 ** 2) * 0.8
print(f"\nscrew action: torsion term {act.torsion_integral:.4f} "
      f"(analytic core self-energy {self_energy:.4f})")
print(f"curvature term {act.curvature_integral:.4f}, "
      f"mixed term {act.mixed_integral} "
      f"(identically zero in 3D: {act.mixed_identically_zero})")

# the balance laws need degree-consistent 4-forms: embed and evaluate
fields4 = dg.embed_static_4d(fields)
kw = dict(boundary_margin=(0.3, 0.3, 0.3, 0.0), exclude_tubes=[(0, 0, 0.5)])
res_force = dg.el_coframe_residual(fields4, couplings, **kw)
res_spin = dg.el_connection_residual(fields4, couplings, **kw)
print(f"\nforce balance residual (interior rms): {res_force.l2:.3e}")
print(f"spin balance residual  (interior rms): {res_spin.l2:.3e}")

empty = dg.DefectConfiguration(grid, [])
empty4 = dg.embed_static_4d(
    dg.CartanFields(dg.build_coframe(empty), dg.build_connection(empty)))
z_force = dg.el_coframe_residual(empty4, couplings)
print(f"defect-free force balance residual: {z_force.l2} (exact zero)")

print("\nconservation laws for the wedge+screw superposition:")
for factor in (1, 2):
    g = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)],
                 [64 * factor, 64 * factor, 8 * factor])
    cfg = dg.DefectConfiguration(
        g, [dg.DefectSpec("screw", (-0.5, 0), 1.0, 0.05),
            dg.DefectSpec("wedge", (0.5, 0), 0.1, 0.05)])
    dr, dte = dg.bianchi_residuals(
        dg.CartanFields(dg.build_coframe(cfg), dg.build_connection(cfg)),
        boundary_margin=[0.15, 0.15, 0.3],
        exclude_tubes=[(-0.5, 0, 0.25), (0.5, 0, 0.25)])
    print(f"  resolution x{factor}: |D R| = {dr.l2}, "
          f"|D T - R^e| = {dte.l2}  (conserved exactly)")

print("\nnonzero residuals appear for generic smooth fields and drop "
      "fourfold under refinement;\nsee tests/test_field_theory.py for the "
      "measured ratios.")
