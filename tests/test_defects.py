"""Canonical defect fields and topological charge extraction."""

import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import FormField, GridSpec, identity_coframe
from defectgeom.geometry import Circle, Disk, ParametricSurface

from conftest import EPS, EXTENTS


def test_spec_validation():
    with pytest.raises(ValueError):
        dg.DefectSpec("vortex", (0, 0), 1.0, 0.05)
    with pytest.raises(ValueError):
        dg.DefectSpec("screw", (0, 0), 1.0, -0.05)
    with pytest.raises(ValueError):
        dg.DefectSpec("edge", (0, 0), 1.0, 0.05)            # missing direction
    with pytest.raises(ValueError):
        dg.DefectSpec("edge", (0, 0), 1.0, 0.05, burgers_direction=(2, 0))
    with pytest.raises(ValueError):
        dg.DefectSpec("screw", (0, 0), 1.0, 0.05, burgers_direction=(1, 0))
    with pytest.raises(ValueError, match="Burgers direction"):
        dg.DefectSpec("edge", (0, 0), 1.0, 0.05,
                      burgers_direction=(np.nan, 0))


def test_core_margin_validation(grid64):
    # cores must stay 5 eps inside the transverse boundary
    with pytest.raises(ValueError, match="5\\*eps"):
        dg.DefectConfiguration(grid64, [dg.DefectSpec("screw", (1.45, 0.0),
                                                      1.0, EPS)])
    dg.DefectConfiguration(grid64, [dg.DefectSpec("screw", (1.3, 0.0),
                                                  1.0, EPS)])


def test_empty_configuration_is_identity(grid64):
    cfg = dg.DefectConfiguration(grid64, [])
    e = dg.build_coframe(cfg)
    assert np.array_equal(e.coeffs, identity_coframe(grid64).coeffs)
    om = dg.build_connection(cfg)
    assert np.array_equal(om.coeffs, dg.zero_connection(grid64).coeffs)


def test_screw_coframe_sample_value(grid64):
    """e^3 at (1, 0): dz plus the screened circulation, which at r = 1 with
    eps = 0.05 carries the full 1/(2 pi) dy weight (deficit exp(-200))."""
    cfg = dg.DefectConfiguration(grid64,
                                 [dg.DefectSpec("screw", (0, 0), 1.0, EPS)])
    e = dg.build_coframe(cfg)
    pt = np.array([[1.0, 0.0, 0.0]])
    vals = e.sample(pt, order=5)[:, :, 0]
    expected_dy = (1.0 / (2 * np.pi)) * -np.expm1(-1.0 / (2 * EPS ** 2))
    assert abs(vals[2, 1] - expected_dy) < 1e-6
    assert abs(vals[2, 2] - 1.0) < 1e-12
    assert abs(vals[2, 0]) < 1e-9          # -y factor vanishes on the x-axis
    assert abs(vals[0, 0] - 1.0) < 1e-12 and abs(vals[1, 1] - 1.0) < 1e-12


def test_edge_coframe_e3_is_dz_exactly(grid64):
    cfg = dg.DefectConfiguration(
        grid64, [dg.DefectSpec("edge", (0, 0), 1.0, EPS,
                               burgers_direction=(1, 0))])
    e = dg.build_coframe(cfg)
    ident = identity_coframe(grid64)
    assert np.array_equal(e.coeffs[2], ident.coeffs[2])


def test_wedge_connection_sample_value(grid64):
    cfg = dg.DefectConfiguration(grid64,
                                 [dg.DefectSpec("wedge", (0, 0), 0.1, EPS)])
    om = dg.build_connection(cfg)
    pt = np.array([[1.0, 0.0, 0.0]])
    vals = om.sample(pt, order=5)[:, :, 0]   # pair slots x components
    # stored slot 0 holds omega^2_1 = -Theta dtheta_eps
    expected_dy = -0.1 * -np.expm1(-1.0 / (2 * EPS ** 2))
    assert abs(vals[0, 1] - expected_dy) < 1e-7
    assert abs(vals[1]).max() < 1e-12 and abs(vals[2]).max() < 1e-12


def test_dislocation_only_connection_zero(grid64):
    cfg = dg.DefectConfiguration(
        grid64, [dg.DefectSpec("screw", (0, 0), 1.0, EPS),
                 dg.DefectSpec("edge", (0.5, 0), 0.5, EPS,
                               burgers_direction=(0, 1))])
    om = dg.build_connection(cfg)
    assert om.max_abs() == 0.0


def test_superposition_is_linear(grid64):
    d1 = dg.DefectSpec("screw", (-0.5, 0), 1.0, EPS)
    d2 = dg.DefectSpec("wedge", (0.5, 0), 0.1, EPS)
    both = dg.DefectConfiguration(grid64, [d1, d2])
    only1 = dg.DefectConfiguration(grid64, [d1])
    only2 = dg.DefectConfiguration(grid64, [d2])
    ident = identity_coframe(grid64)
    lhs = dg.build_coframe(both).coeffs
    rhs = (dg.build_coframe(only1) + dg.build_coframe(only2) - ident).coeffs
    assert np.allclose(lhs, rhs, atol=1e-15)
    lhs_om = dg.build_connection(both).coeffs
    rhs_om = (dg.build_connection(only1) + dg.build_connection(only2)).coeffs
    assert np.array_equal(lhs_om, rhs_om)


# ---------------------------------------------------------------------------
# torsion / curvature structure
# ---------------------------------------------------------------------------

def test_screw_torsion_charge(screw_fields):
    _, _, _, t = screw_fields
    b = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))
    assert abs(b[2] - 1.0) < 1e-3
    # T^1 and T^2 are finite-difference derivatives of constant arrays
    assert b[0] == 0.0 and b[1] == 0.0


def test_screw_charge_converges_geometrically_in_the_radius(screw_fields):
    """The Gauss-Legendre radial rule: the screw charge error falls strictly
    from 16 to 32 to 64 radial nodes and is below 1e-6 at the default."""
    _, _, _, t = screw_fields
    disk = Disk((0, 0, 0), 1.0)
    errors = [abs(dg.burgers_vector(t, disk, resolution=n)[2] - 1.0)
              for n in (16, 32, 64)]
    assert errors[0] > errors[1] > errors[2]
    assert abs(dg.burgers_vector(t, disk)[2] - 1.0) < 1e-6


def test_screw_t1_t2_identically_zero(screw_fields):
    _, _, _, t = screw_fields
    assert np.abs(t.coeffs[0]).max() == 0.0
    assert np.abs(t.coeffs[1]).max() == 0.0


def test_edge_torsion_charge(edge_fields):
    _, _, _, t = edge_fields
    b = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))
    assert abs(b[0] - 1.0) < 1e-3
    assert abs(b[1]) < 1e-6 and b[2] == 0.0


def test_edge_curvature_identically_zero(edge_fields):
    _, _, om, _ = edge_fields
    r = dg.curvature(om)
    assert r.max_abs() == 0.0


def test_wedge_frank_charge(wedge_fields):
    _, _, _, r = wedge_fields
    mat = dg.frank_angles(r, Disk((0, 0, 0), 1.0))
    axial = dg.axial_vector(mat)
    expected = 2 * np.pi * 0.1
    assert abs(axial[2] - expected) / expected < 1e-3
    assert abs(axial[0]) < 1e-9 and abs(axial[1]) < 1e-9
    assert np.array_equal(mat, -mat.T)


def test_wedge_omega_wedge_omega_vanishes(wedge_fields):
    """Single in-plane block: the quadratic connection term is identically
    zero, so the curvature reduces to d omega."""
    _, _, om, r = wedge_fields
    from defectgeom.forms import antisym_matmul, exterior_derivative
    quad = antisym_matmul(om, om)
    assert quad.max_abs() == 0.0
    assert np.array_equal(r.coeffs, exterior_derivative(om).coeffs)


def test_wedge_torsion_centered_flux_vanishes(wedge_fields):
    """Wedge torsion omega ^ e integrates to zero over centered disks: the
    integrand is odd under the core's point reflection."""
    _, e, om, _ = wedge_fields
    t = dg.torsion(e, om)
    assert t.max_abs() > 0.0
    b = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))
    assert np.max(np.abs(b)) < 1e-6


def test_screw_loop_holonomy(screw_fields):
    _, e, _, _ = screw_fields
    for radius in (0.3, 0.6, 0.9):
        h = dg.integrate_loop(e, Circle((0, 0, 0), radius))
        assert abs(h[2] - 1.0) < 1e-6
        assert abs(h[0]) < 1e-9 and abs(h[1]) < 1e-9


def test_nonenclosing_surface_zero_charge():
    """Flux through a surface clear of the core vanishes. The leftover is the
    stencil truncation of the 1/r tail, so this check runs on a fine grid
    where that sits below 1e-6."""
    grid = GridSpec(EXTENTS, [384, 384, 4])
    disk = Disk((1.0, 1.0, 0), 0.2)
    cfg = dg.DefectConfiguration(grid, [dg.DefectSpec("screw", (0, 0),
                                                      1.0, EPS)])
    t = dg.torsion(dg.build_coframe(cfg), dg.build_connection(cfg))
    assert np.max(np.abs(dg.burgers_vector(t, disk, resolution=512))) < 1e-6
    cfgw = dg.DefectConfiguration(grid, [dg.DefectSpec("wedge", (0, 0),
                                                       0.1, EPS)])
    r = dg.curvature(dg.build_connection(cfgw))
    f = dg.axial_vector(dg.frank_angles(r, disk, resolution=512))
    assert np.max(np.abs(f)) < 1e-6


def test_two_wedges_cancel(grid128):
    cfg = dg.DefectConfiguration(
        grid128, [dg.DefectSpec("wedge", (-0.5, 0), 0.1, EPS),
                  dg.DefectSpec("wedge", (0.5, 0), -0.1, EPS)])
    r = dg.curvature(dg.build_connection(cfg))
    axial = dg.axial_vector(dg.frank_angles(r, Disk((0, 0, 0), 1.4)))
    assert np.max(np.abs(axial)) < 1e-6


def test_charge_superposition(grid128):
    """Multi-defect charges equal the sums of single-defect charges measured
    on the same surface. The screw-wedge coupling term omega ^ e is exactly
    additive here because wedges only touch in-plane frame components and
    screws only perturb e^3."""
    d1 = dg.DefectSpec("screw", (-0.5, 0), 1.0, EPS)
    d2 = dg.DefectSpec("screw", (0.5, 0), 0.7, EPS)
    d3 = dg.DefectSpec("wedge", (0, 0.5), 0.1, EPS)
    disk = Disk((0, 0, 0), 1.4)
    singles = []
    for d in (d1, d2, d3):
        cfg = dg.DefectConfiguration(grid128, [d])
        t = dg.torsion(dg.build_coframe(cfg), dg.build_connection(cfg))
        singles.append(dg.burgers_vector(t, disk))
    cfg = dg.DefectConfiguration(grid128, [d1, d2, d3])
    t = dg.torsion(dg.build_coframe(cfg), dg.build_connection(cfg))
    combined = dg.burgers_vector(t, disk)
    total = singles[0] + singles[1] + singles[2]
    assert np.max(np.abs(combined - total)) < 1e-4 * 1.7
    assert abs(combined[2] - 1.7) < 1e-3 * 1.7


def test_charge_surface_deformation_invariance(screw_fields):
    """Charge is invariant under measuring-surface deformation: bulging the
    disk out of plane (fixed boundary) and changing the radius under the
    same default rule both leave the flux unchanged to 1e-6."""
    _, _, _, t = screw_fields

    def cap(amp):
        def point(u, w):
            ang = 2 * np.pi * w
            return np.stack([u * np.cos(ang), u * np.sin(ang),
                             amp * (1 - u ** 2)], -1)

        def tan_u(u, w):
            ang = 2 * np.pi * w
            return np.stack([np.cos(ang), np.sin(ang), -2 * amp * u], -1)

        def tan_w(u, w):
            ang = 2 * np.pi * w
            return np.stack([-2 * np.pi * u * np.sin(ang),
                             2 * np.pi * u * np.cos(ang),
                             np.zeros_like(u)], -1)

        return ParametricSurface(point, tan_u, tan_w)

    flat = dg.burgers_vector(t, Disk((0, 0, 0), 1.0))
    bulged = dg.burgers_vector(t, cap(0.25))
    assert np.max(np.abs(flat - bulged)) < 1e-9

    vals = [dg.burgers_vector(t, Disk((0, 0, 0), radius))[2]
            for radius in (0.5, 0.75, 1.0)]
    assert max(vals) - min(vals) < 1e-6


def test_eps_convergence_of_charge(grid128):
    """At a fixed disk radius the measured charge converges monotonically to
    b as the core shrinks: the Gaussian deficit exp(-R^2/2 eps^2) dominates
    the error until it drops below the numeric floor."""
    errors = []
    for eps in (0.2, 0.1, 0.05):
        cfg = dg.DefectConfiguration(grid128,
                                     [dg.DefectSpec("screw", (0, 0), 1.0, eps)])
        t = dg.torsion(dg.build_coframe(cfg), dg.build_connection(cfg))
        b = dg.burgers_vector(t, Disk((0, 0, 0), 0.35))
        errors.append(abs(b[2] - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-4


def test_axial_vector_requires_3x3():
    with pytest.raises(ValueError):
        dg.axial_vector(np.zeros((2, 2)))
    mat = np.array([[0.0, 3.0, -2.0], [-3.0, 0.0, 1.0], [2.0, -1.0, 0.0]])
    assert np.array_equal(dg.axial_vector(mat), [1.0, 2.0, 3.0])


def test_burgers_rejects_wrong_field(wedge_fields):
    _, _, _, r = wedge_fields
    with pytest.raises(ValueError):
        dg.burgers_vector(r, Disk((0, 0, 0), 0.5))
    with pytest.raises(ValueError):
        dg.frank_angles(FormField.zeros(r.grid, 2, "vector"),
                        Disk((0, 0, 0), 0.5))
