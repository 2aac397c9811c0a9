import numpy as np
import pytest

import defectgeom as dg

EPS = 0.05
EXTENTS = [(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)]


@pytest.fixture(scope="session")
def grid128():
    return dg.GridSpec(EXTENTS, [128, 128, 8])


@pytest.fixture(scope="session")
def grid64():
    return dg.GridSpec(EXTENTS, [64, 64, 8])


@pytest.fixture(scope="session")
def screw_fields(grid128):
    """(config, coframe, connection, torsion) for the canonical screw b=1."""
    cfg = dg.DefectConfiguration(
        grid128, [dg.DefectSpec("screw", (0.0, 0.0), 1.0, EPS)])
    e = dg.build_coframe(cfg)
    om = dg.build_connection(cfg)
    t = dg.torsion(e, om)
    return cfg, e, om, t


@pytest.fixture(scope="session")
def edge_fields(grid128):
    cfg = dg.DefectConfiguration(
        grid128, [dg.DefectSpec("edge", (0.0, 0.0), 1.0, EPS,
                                burgers_direction=(1.0, 0.0))])
    e = dg.build_coframe(cfg)
    om = dg.build_connection(cfg)
    t = dg.torsion(e, om)
    return cfg, e, om, t


@pytest.fixture(scope="session")
def wedge_fields(grid128):
    cfg = dg.DefectConfiguration(
        grid128, [dg.DefectSpec("wedge", (0.0, 0.0), 0.1, EPS)])
    e = dg.build_coframe(cfg)
    om = dg.build_connection(cfg)
    r = dg.curvature(om)
    return cfg, e, om, r


def tilted_coframe(grid, tilt=0.3):
    """Identity coframe with e^2 acquiring a constant dz component."""
    coeffs = np.array(dg.identity_coframe(grid).coeffs)
    coeffs[1, 2] += tilt
    return dg.FormField(grid, 1, dg.VECTOR, coeffs)


def run_steps(lines, disclinations, params, extents=None):
    """params.steps calls of step_lines: (final lines, NodeSteps, clips)."""
    node_steps, clips = [], []
    for step in range(params.steps):
        lines, node_step, step_clips = dg.step_lines(
            lines, disclinations, params, extents, step)
        node_steps.append(node_step)
        clips.extend(step_clips)
    return lines, node_steps, clips
