"""Action terms, Euler-Lagrange and conservation-law residuals, U(1) sources."""

import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import ANTISYM, VECTOR, FormField, GridSpec, _coeff_shape
from defectgeom.geometry import Box

from conftest import EPS, EXTENTS
from test_framed_contractions import (
    assert_rows_are_invariant_slices,
    zero_products_counted,
)


def test_couplings_validation():
    with pytest.raises(ValueError):
        dg.Couplings(alpha=0.0, beta=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        dg.Couplings(alpha=1.0, beta=-2.0, gamma=1.0)
    c = dg.Couplings(alpha=2.0, beta=4.0, gamma=1.0)
    assert c.Gamma == 0.5
    assert c.kappa_el == 0.125


def make_config(grid, *defects):
    cfg = dg.DefectConfiguration(grid, list(defects))
    return dg.CartanFields(dg.build_coframe(cfg), dg.build_connection(cfg))


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_action_defect_free_zero(grid64):
    f = make_config(grid64)
    act = dg.action_density(f, dg.Couplings(1, 1, 1))
    assert act.torsion_integral == 0.0
    assert act.curvature_integral == 0.0
    assert act.mixed_integral == 0.0
    assert act.mixed_identically_zero
    assert act.total == 0.0


def test_screw_core_self_energy(grid128):
    """Torsion term integral against the closed-form Gaussian self-energy
    alpha b^2/(4 pi eps^2) per unit line length."""
    lz = 0.8
    vals = {}
    for eps in (0.1, 0.2):
        f = make_config(grid128, dg.DefectSpec("screw", (0, 0), 1.0, eps))
        act = dg.action_density(f, dg.Couplings(1, 1, 1))
        oracle = 1.0 / (4 * np.pi * eps ** 2) * lz
        assert abs(act.torsion_integral - oracle) / oracle < 0.02
        assert act.mixed_identically_zero
        vals[eps] = act.torsion_integral
    # self-energy scales like 1/eps^2
    assert 3.8 < vals[0.1] / vals[0.2] < 4.2


def test_torsion_term_quadratic_in_charge(grid64):
    out = {}
    for b in (1.0, 2.0):
        f = make_config(grid64, dg.DefectSpec("screw", (0, 0), b, 0.1))
        out[b] = dg.action_density(f, dg.Couplings(1, 1, 1))
    ratio = out[2.0].torsion_integral / out[1.0].torsion_integral
    assert abs(ratio - 4.0) < 1e-6


def test_action_4d_mixed_term_evaluates():
    grid = GridSpec(EXTENTS, [24, 24, 4])
    f4 = dg.embed_static_4d(
        make_config(grid, dg.DefectSpec("wedge", (0, 0), 0.1, 0.2)))
    act = dg.action_density(f4, dg.Couplings(1, 1, 1))
    assert not act.mixed_identically_zero
    # curvature only populates the in-plane block against in-plane coframe
    # legs, so even in 4D the canonical wedge mixed density vanishes
    assert act.mixed_term.max_abs() == 0.0


def test_action_integrals_are_whole_grid_cell_sums(grid64):
    """Each action integral is the cell sum of its density times the cell
    volume, for a screw+wedge in 3D and in its static 4D embedding."""
    f3 = make_config(grid64, dg.DefectSpec("screw", (-0.4, 0.1), 1.0, 0.1),
                     dg.DefectSpec("wedge", (0.4, -0.2), 0.1, 0.1))
    for f in (f3, dg.embed_static_4d(f3)):
        act = dg.action_density(f, dg.Couplings(1.0, 2.0, 0.5))
        assert act.torsion_integral != 0 and act.curvature_integral != 0
        volume = np.prod(f.e.grid.spacing)
        for term, integral in ((act.torsion_term, act.torsion_integral),
                               (act.curvature_term, act.curvature_integral),
                               (act.mixed_term, act.mixed_integral)):
            want = np.sum(term.coeffs[0]) * volume
            assert abs(integral - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def test_el_requires_4d(grid64):
    f = make_config(grid64)
    c = dg.Couplings(1, 1, 1)
    with pytest.raises(ValueError, match="4D"):
        dg.el_coframe_residual(f, c)
    with pytest.raises(ValueError, match="4D"):
        dg.el_connection_residual(f, c)


def test_el_defect_free_exactly_zero(grid64):
    f4 = dg.embed_static_4d(make_config(grid64))
    c = dg.Couplings(1, 2, 0.7)
    r1 = dg.el_coframe_residual(f4, c)
    r2 = dg.el_connection_residual(f4, c)
    assert r1.l2 == 0.0 and r1.linf == 0.0
    assert r2.l2 == 0.0 and r2.linf == 0.0


@pytest.mark.parametrize("defects", [
    (),
    (dg.DefectSpec("screw", (-0.5, 0), 1.0, EPS),
     dg.DefectSpec("wedge", (0.5, 0), 0.1, EPS)),
], ids=["defect_free", "screw_wedge"])
def test_residuals_compute_no_product_with_a_zero_row(grid64, defects):
    """The force and spin balances and both Bianchi residuals of an
    embedded bundle multiply no exact-zero row. Without defects T, R and
    omega have only such rows, so every framed term is dropped whole and
    the scalar wedge is never called."""
    f4 = dg.embed_static_4d(make_config(grid64, *defects))
    c = dg.Couplings(1, 2, 0.7)
    with zero_products_counted() as counts:
        dg.el_coframe_residual(f4, c)
        dg.el_connection_residual(f4, c)
        dg.bianchi_residuals(f4)
    assert counts["zero_reads"] == 0
    if defects:
        assert 0 < counts["skipped"] < counts["products"]
    else:
        assert counts["calls"] == 0


def elres_pair(factor, kind, charge=1.0):
    grid = GridSpec(EXTENTS, [32 * factor, 32 * factor, 4 * factor])
    spec = dg.DefectSpec(kind, (0, 0), charge, 0.1)
    f4 = dg.embed_static_4d(make_config(grid, spec))
    c = dg.Couplings(1, 1, 0.5)
    kw = dict(boundary_margin=(0.3, 0.3, 0.3, 0.0),
              exclude_tubes=[(0, 0, 0.5)])
    return (dg.el_coframe_residual(f4, c, **kw),
            dg.el_connection_residual(f4, c, **kw))


def test_el_screw_interior_second_order():
    coarse = elres_pair(1, "screw")
    fine = elres_pair(2, "screw")
    for a, b in zip(coarse, fine):
        assert 3.0 <= a.l2 / b.l2 <= 5.0


def test_el_connection_linear_in_burgers():
    n1 = elres_pair(1, "screw", 1.0)[1].l2
    n2 = elres_pair(1, "screw", 2.0)[1].l2
    assert n2 / n1 == 2.0


def test_el_wedge_residual_comes_from_torsion_term():
    """The canonical wedge has R_ab ^ e^b identically zero by index
    structure; its force-balance residual is carried entirely by D(*T) of
    the connection-induced torsion."""
    grid = GridSpec(EXTENTS, [48, 48, 4])
    f4 = dg.embed_static_4d(
        make_config(grid, dg.DefectSpec("wedge", (0, 0), 0.1, 0.1)))
    c = dg.Couplings(1, 1, 0.5)
    re_term = dg.wedge(f4.r, f4.e)
    assert re_term.max_abs() == 0.0
    res = dg.el_coframe_residual(f4, c,
                                 boundary_margin=(0.2, 0.2, 0.2, 0.0))
    assert res.l2 > 0.0


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def test_bianchi_canonical_exactly_conserved(grid64):
    """Static z-aligned configurations keep both identities bit-exactly:
    every term is killed by transverse degree saturation or exact
    z-independence of the stencils."""
    f = make_config(grid64,
                    dg.DefectSpec("screw", (-0.5, 0), 1.0, EPS),
                    dg.DefectSpec("wedge", (0.5, 0), 0.1, EPS))
    dr, dte = dg.bianchi_residuals(f)
    assert dr.l2 == 0.0 and dr.linf == 0.0
    assert dte.l2 == 0.0 and dte.linf == 0.0


def generic_fields(n):
    """Smooth synthetic coframe and multi-block connection with z variation;
    every Bianchi term is active and the residuals are pure discrete
    Leibniz defects of second order."""
    grid = GridSpec([(0, 2.0)] * 3, [n] * 3)
    X, Y, Z = grid.meshgrid()
    ec = np.zeros(_coeff_shape(grid, 1, VECTOR))
    for a in range(3):
        ec[a, a] = 1.0
    ec[0, 1] = 0.1 * np.sin(X) * np.cos(Z)
    ec[1, 2] = 0.1 * np.cos(Y) * np.sin(Z)
    ec[2, 0] = 0.1 * np.sin(X + Y) * np.cos(Z)
    oc = np.zeros(_coeff_shape(grid, 1, ANTISYM))
    oc[0, 0] = 0.2 * np.sin(Y) * np.cos(Z)
    oc[0, 2] = 0.1 * np.cos(X)
    oc[1, 1] = 0.2 * np.sin(Z) * np.cos(X)
    oc[1, 0] = 0.1 * np.sin(Y + Z)
    oc[2, 2] = 0.2 * np.cos(X + Z)
    oc[2, 1] = 0.1 * np.sin(X) * np.sin(Z)
    return dg.CartanFields(FormField(grid, 1, VECTOR, ec),
                           FormField(grid, 1, ANTISYM, oc))


def test_bianchi_generic_second_order():
    norms = {}
    for n in (32, 64):
        dr, dte = dg.bianchi_residuals(generic_fields(n),
                                       boundary_margin=0.3)
        norms[n] = (dr.l2, dte.l2)
    assert 3.0 <= norms[32][0] / norms[64][0] <= 5.0
    assert 3.0 <= norms[32][1] / norms[64][1] <= 5.0


# ---------------------------------------------------------------------------
# U(1) sources
# ---------------------------------------------------------------------------

def test_u1_defect_free(grid64):
    src = dg.u1_sources(make_config(grid64),
                        dg.Couplings(1, 1, 1, kappa_u1=2.0))
    assert src.j1.max_abs() == 0.0
    assert src.j2 is None and src.j2_identically_zero


def test_u1_screw_tube_charge(screw_fields):
    _, e, om, _ = screw_fields
    kappa = 2.0
    src = dg.u1_sources(dg.CartanFields(e, om),
                        dg.Couplings(1, 1, 1, kappa_u1=kappa))
    assert src.j1.degree == 3 and src.j2_identically_zero
    assert src.dj1.l2 == 0.0    # top degree in 3D
    full = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, -0.4), (0.6, 0.6, 0.4)))
    assert abs(full - kappa * 1.0 * 0.8) / (kappa * 0.8) < 1e-3
    half = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, 0.0), (0.6, 0.6, 0.4)))
    assert abs(half - kappa * 0.4) / (kappa * 0.4) < 1e-3
    # far from the core the analytic density is Gaussian-dead; what remains
    # is the stencil truncation of the circulation tail, h^2-small
    empty = dg.u1_flux_balance(src.j1, Box((0.9, 0.9, -0.2), (1.3, 1.3, 0.2)))
    assert abs(empty) < 1e-5


def test_u1_empty_configuration_box_is_exactly_zero(grid64):
    src = dg.u1_sources(make_config(grid64),
                        dg.Couplings(1, 1, 1, kappa_u1=3.0))
    val = dg.u1_flux_balance(src.j1, Box((-0.5, -0.5, -0.2), (0.5, 0.5, 0.2)))
    assert val == 0.0


def test_u1_additivity_over_disjoint_volumes(screw_fields):
    _, e, om, _ = screw_fields
    src = dg.u1_sources(dg.CartanFields(e, om),
                        dg.Couplings(1, 1, 1, kappa_u1=1.0))
    lo = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, -0.4), (0.6, 0.6, -0.1)))
    hi = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, -0.1), (0.6, 0.6, 0.4)))
    full = dg.u1_flux_balance(src.j1, Box((-0.6, -0.6, -0.4), (0.6, 0.6, 0.4)))
    assert abs((lo + hi) - full) <= 1e-9 * abs(full)


def test_u1_static_4d_closedness_is_exact(screw_fields):
    """In the 4D embedding the screw J1 keeps only the dx^dy^dz component
    with no z or w dependence, so its exterior derivative vanishes to
    rounding at every resolution."""
    _, e, om, _ = screw_fields
    f4 = dg.embed_static_4d(dg.CartanFields(e, om))
    src = dg.u1_sources(f4, dg.Couplings(1, 1, 1, kappa_u1=1.0),
                        boundary_margin=(0.2, 0.2, 0.2, 0.0))
    assert src.dj1 is not None
    assert src.dj1.l2 < 1e-12
    assert src.j2 is not None and src.j2.degree == 4


def rotated_screw_fields(n, alpha=0.5, b=1.0, eps=0.12):
    """Screw dislocation whose line is tilted in the xz-plane.

    The source 3-form stays analytically closed, but none of the canonical
    component cancellations apply on the grid axes, so the discrete d J1 is
    a genuine second-order defect.
    """
    grid = GridSpec([(-1.6, 1.6)] * 3, [n, n, n])
    X, Y, Z = grid.meshgrid()
    ca, sa = np.cos(alpha), np.sin(alpha)
    xp = ca * X - sa * Z                       # rotated transverse coordinate
    cxp, cy = dg.screened_circulation(xp, Y, eps)
    pref = b / (2 * np.pi)
    ec = np.zeros(_coeff_shape(grid, 1, VECTOR))
    ec[0, 0], ec[0, 2] = ca, -sa               # e^1 = dx'
    ec[1, 1] = 1.0
    # e^3 = dz' + pref * (cxp dx' + cy dy)
    ec[2, 0] = sa + pref * cxp * ca
    ec[2, 2] = ca + pref * cxp * (-sa)
    ec[2, 1] = pref * cy
    return dg.CartanFields(FormField(grid, 1, VECTOR, ec),
                           dg.zero_connection(grid))


def test_u1_closedness_exact_even_off_axis():
    """Discrete source closedness is exact, not merely convergent: even for
    a tilted screw line, d J1 combines a commuting-stencil d(d e) with a
    pointwise self-wedge of a spatial 2-form, and both vanish identically."""
    c = dg.Couplings(1, 1, 1, kappa_u1=1.0)
    f4 = dg.embed_static_4d(rotated_screw_fields(64))
    src = dg.u1_sources(f4, c, boundary_margin=(0.3, 0.3, 0.3, 0.0))
    assert src.dj1.l2 < 1e-12
    assert src.j1.max_abs() > 0.0


def test_u1_flux_balance_volume_checks(screw_fields):
    _, e, om, _ = screw_fields
    src = dg.u1_sources(dg.CartanFields(e, om),
                        dg.Couplings(1, 1, 1, kappa_u1=1.0))
    with pytest.raises(ValueError, match="exits"):
        dg.u1_flux_balance(src.j1, Box((-2.0, 0, 0), (0.5, 0.5, 0.3)))
    with pytest.raises(ValueError):
        dg.u1_flux_balance(e, Box((0, 0, 0), (0.5, 0.5, 0.3)))


def _signed_zero_rows(rng, grid, value_type):
    """Normal values with one row all +0.0, one all -0.0 and one mixed."""
    c = rng.normal(size=_coeff_shape(grid, 1, value_type))
    rows = c.reshape((-1,) + grid.resolution)
    rows[0] = 0.0
    rows[1] = -0.0
    rows[-1] = np.where(rng.random(grid.resolution) < 0.5, 0.0, -0.0)
    return FormField(grid, 1, value_type, c)


def test_embedding_copies_every_row_but_plus_zero_ones():
    """Every 3D row is repeated along w: it is stored once, as a view of the
    3D row with a length-1 w axis, and the new rows are +0.0 or e^4 = dw."""
    rng = np.random.default_rng(17)
    grid = GridSpec([(-1.0, 1.0)] * 3, [6, 5, 4])
    e, om = (_signed_zero_rows(rng, grid, t) for t in (VECTOR, ANTISYM))
    f4 = dg.embed_static_4d(dg.CartanFields(e, om))
    g4 = f4.e.grid
    want_e = np.zeros(_coeff_shape(g4, 1, VECTOR))
    want_e[:3, :3] = e.coeffs[..., None]
    want_e[3, 3] = 1.0
    want_om = np.zeros(_coeff_shape(g4, 1, ANTISYM))
    want_om[:3, :3] = om.coeffs[..., None]     # pairs (1,0), (2,0), (2,1)
    for got, want in ((f4.e, want_e), (f4.omega, want_om)):
        assert got.coeffs.tobytes() == want.tobytes()
        assert_rows_are_invariant_slices(got)
    for got, src in ((f4.e, e), (f4.omega, om)):
        for s in range(3):
            for c in range(3):
                assert np.shares_memory(got._rows[4 * s + c], src._rows[3 * s + c])


def test_norms_skip_zero_rows_bit_exactly():
    rng = np.random.default_rng(18)
    f = _signed_zero_rows(rng, GridSpec([(-1.0, 1.0)] * 3, [6, 5, 4]), VECTOR)
    sq = np.zeros(f.grid.resolution)
    for row in f.coeffs.reshape((-1,) + f.grid.resolution):
        sq += row * row
    assert dg.field_norms(f) == (float(np.sqrt(np.mean(sq))),
                                 float(np.sqrt(np.max(sq))))


# ---------------------------------------------------------------------------
# residual norms plumbing
# ---------------------------------------------------------------------------

def test_interior_mask_and_norms(grid64):
    t = make_config(grid64, dg.DefectSpec("screw", (0, 0), 1.0, EPS)).t
    full = dg.field_norms(t)
    masked = dg.field_norms(t, boundary_margin=0.2,
                            exclude_tubes=[(0, 0, 0.5)])
    assert masked[1] < full[1]   # core excluded, max drops
    with pytest.raises(ValueError, match="excludes every cell"):
        dg.field_norms(t, boundary_margin=10.0)
