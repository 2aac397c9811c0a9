import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import _coeff_shape

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


ROW_SHAPES = ["full", "xy", "x", "const", "mixed"]
_VARYING = {"full": (1, 1, 1), "xy": (1, 1, 0), "x": (1, 0, 0),
            "const": (0, 0, 0)}


def field_with_row_shapes(grid, degree, value_type, kind, rng):
    """A 3D field of random rows that vary only along the axes `kind` names
    (a random pick of those per row for "mixed"), so each row is stored at
    that shape: full, (nx, ny, 1), (nx, 1, 1) or (1, 1, 1)."""
    coeffs = np.empty(_coeff_shape(grid, degree, value_type))
    for row in coeffs.reshape((-1,) + grid.resolution):
        varying = _VARYING[rng.choice(list(_VARYING)) if kind == "mixed"
                           else kind]
        row[...] = rng.standard_normal(
            [n if v else 1 for n, v in zip(grid.resolution, varying)])
    field = dg.FormField(grid, degree, value_type, coeffs)
    if kind != "mixed":
        shape = tuple(n if v else 1
                      for n, v in zip(grid.resolution, _VARYING[kind]))
        assert {row.shape for row in field._rows} == {shape}
    return field


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


def assert_same_lines(got, want):
    """Exact text equality that names the first differing line. A plain ==
    on thousands of lines sends pytest into a diff that runs for minutes."""
    got, want = got.split("\n"), want.split("\n")
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad + 1}: got {got[bad]!r}, want {want[bad]!r}"
    # the texts share every line, so equal counts make them equal, down to
    # the trailing newline
    assert len(got) == len(want), f"{len(got)} lines, want {len(want)}"
