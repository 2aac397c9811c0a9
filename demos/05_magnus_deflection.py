#!/usr/bin/env python3
"""Curvature-induced transverse force on a moving dislocation.

A driven line passing a disclination core deflects sideways; the force never
does work, so the deflection is strictly transverse at every node and step.
"""

import numpy as np

from defectgeom.dynamics import (
    CROSS_PRODUCT,
    DERIVATION_CONSISTENT,
    DisclinationField,
    DisclinationSource,
    DislocationLine,
    DynamicsParams,
    magnus_force,
    step_lines,
)

EXTENTS = [(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)]


def run(lines, disc, params):
    """params.steps Euler steps: the final lines and each step's NodeStep."""
    node_steps = []
    for step in range(params.steps):
        lines, node_step, _ = step_lines(lines, disc, params, EXTENTS, step)
        node_steps.append(node_step)
    return lines, node_steps


print("force-law comparison for Theta || b (screw through a coaxial wedge):")
theta, b, v = np.array([0, 0, 0.1]), np.array([0, 0, 1.0]), np.array([0.5, 0, 0])
zhat = np.array([0.0, 0.0, 1.0])
f_cross = magnus_force(theta, b, v, 2.0, CROSS_PRODUCT)
f_proj = magnus_force(theta, b, v, 2.0, DERIVATION_CONSISTENT, zhat)
print(f"  cross-product law: F = {f_cross} (parallel vectors annihilate)")
print(f"  projected law:     F = {np.round(f_proj, 4)} "
      f"(|F| = Gamma Theta b v = {2.0 * 0.1 * 1.0 * 0.5})")

# edge-like line driven past an off-axis wedge core, cross-product law
line = DislocationLine(
    np.stack([np.full(4, -0.3), np.zeros(4), np.linspace(-0.3, 0.3, 4)], -1),
    np.array([1.0, 0.0, 0.0]), id="edge")
disc = DisclinationField([DisclinationSource((0.1, 0.0), 0.2, 0.15)])
params = DynamicsParams(Gamma=2.0, time_step=0.02, steps=60,
                        external_force=np.array([0.4, 0.0, 0.0]))
out, node_steps = run([line], disc, params)

start, end = line.nodes[0], out[0].nodes[0]
print(f"\ntrajectory of node 0: {np.round(start, 3)} -> {np.round(end, 3)}")
print(f"transverse deflection accumulated: {end[2] - start[2]:+.4f} along z")
worst = max(s.transversality.max() for s in node_steps)
print(f"worst transversality defect over {sum(map(len, node_steps))} "
      f"node-steps: {worst:.1e}")

gamma0 = DynamicsParams(Gamma=0.0, time_step=0.02, steps=60,
                        external_force=np.array([0.4, 0.0, 0.0]))
straight, _ = run([line], disc, gamma0)
print(f"control run with Gamma = 0 ends at {np.round(straight[0].nodes[0], 3)}"
      " (no deflection)")

print("\n|F . v| over the slip-plane velocity directions "
      "(uniformly zero to rounding):")
phis = 2 * np.pi * np.array([0, 8, 16, 24]) / 64
vs = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(4)])
# one call evaluates the law for all four velocities
fs = magnus_force(np.array([0, 0, 0.05]), np.array([1.0, 0, 0]), vs, 2.0,
                  CROSS_PRODUCT)
for phi, f, vv in zip(phis, fs, vs):
    print(f"  phi = {phi:.2f}: |F . v| = {abs(np.dot(f, vv)):.1e}, "
          f"|F| = {np.linalg.norm(f):.3f}")
