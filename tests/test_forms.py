"""Exterior-calculus kernel: algebra, derivative, Hodge, contraction,
integration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    antisym_pairs,
    basis_indices,
    exterior_derivative,
    hodge_star,
    identity_coframe,
    integrate_loop,
    integrate_surface,
    interior_product,
    wedge,
)
from defectgeom.geometry import Box, Circle, Disk, box_integral

from conftest import ROW_SHAPES, field_with_row_shapes


def frame_slot(f, a, b):
    """All basis components of antisym frame slot (a, b), sign-reflected
    from the stored lower triangle."""
    index, sign = f._frame_slot((a, b))
    if sign == 0:
        return np.zeros((len(f.components),) + f.grid.resolution)
    return sign * f.coeffs[index]


def const_form(grid, degree, values):
    """Scalar form with constant coefficient per basis component."""
    ncomp = len(basis_indices(grid.dim, degree))
    coeffs = np.zeros((ncomp,) + grid.resolution)
    for i, v in enumerate(values):
        coeffs[i] = v
    return FormField(grid, degree, SCALAR, coeffs)


@pytest.fixture(scope="module")
def g3():
    return GridSpec([(0, 1.0), (0, 1.0), (0, 1.0)], [12, 12, 12])


@pytest.fixture(scope="module")
def g4():
    return GridSpec([(0, 1.0)] * 4, [6, 6, 6, 6])


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec([(0, 1)], [8])                      # dim 1
    with pytest.raises(ValueError):
        GridSpec([(0, 1)] * 5, [8] * 5)              # dim 5
    with pytest.raises(ValueError):
        GridSpec([(0, 1), (0, 1)], [8, 3])           # resolution < 4
    with pytest.raises(ValueError):
        GridSpec([(0, 1), (1, 1)], [8, 8])           # empty extent
    with pytest.raises(ValueError, match="finite positive length"):
        GridSpec([(-1e308, 1e308), (0, 1)], [8, 8])  # hi - lo overflows
    with pytest.raises(ValueError, match="zero spacing"):
        GridSpec([(0, 1e-323), (0, 1)], [8, 8])      # (hi - lo) / 8 underflows
    g = GridSpec([(0, 2), (0, 1)], [8, 4])
    assert g.spacing == (0.25, 0.25)
    assert np.allclose(g.axis_centers(0)[:2], [0.125, 0.375])
    g = GridSpec([(0, 1e-300), (-1e307, 1e307)], [8, 8])
    assert all(np.isfinite(h) and h > 0 for h in g.spacing)


def test_field_validation(g3):
    with pytest.raises(ValueError):
        FormField(g3, 4, SCALAR, np.zeros((1,) + g3.resolution))
    with pytest.raises(ValueError):
        FormField(g3, 1, SCALAR, np.zeros((2,) + g3.resolution))
    bad = np.zeros((3,) + g3.resolution)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        FormField(g3, 1, SCALAR, bad)
    f = FormField.zeros(g3, 1, VECTOR)
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0, 0, 0] = 1.0  # immutable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(g3, bad):
    """A check of only the row minima would miss +inf, one of only the
    maxima -inf; NaN must fail whatever the rest of its row holds."""
    for value_type, lead in ((SCALAR, (3,)), (VECTOR, (3, 3))):
        for fill in (0.0, -1.0, 1.0):
            coeffs = np.full(lead + g3.resolution, fill)
            coeffs.reshape(-1)[-1] = bad
            with pytest.raises(ValueError, match="^non-finite coefficients$"):
                FormField(g3, 1, value_type, coeffs)


def test_untouched_zero_rows_are_one_shared_read_only_row(g3):
    """The zero fields, the d of constant rows and a wedge whose products
    all have a zero factor store one shared +0.0 row per dimension, flagged
    as a zero; writing to it raises."""
    from defectgeom.forms import _zero_row, zero_connection
    zero = _zero_row(3)
    assert zero is not _zero_row(2)
    assert zero.shape == (1, 1, 1) and zero.tobytes() == bytes(8)
    omega = zero_connection(g3)
    fields = [FormField.zeros(g3, 2, VECTOR), omega,
              exterior_derivative(identity_coframe(g3)),
              wedge(omega, identity_coframe(g3))]
    for f in fields:
        assert all(row is zero for row in f._rows)
        assert all(f._zero)
    with pytest.raises(ValueError, match="read-only"):
        zero[...] = 1.0
    assert zero.tobytes() == bytes(8)


def test_antisym_storage_reflection(g3):
    coeffs = np.zeros((3, 3) + g3.resolution)
    coeffs[antisym_pairs(3).index((1, 0)), 0] = 2.0
    f = FormField(g3, 1, ANTISYM, coeffs)
    assert f._frame_slot((1, 0)) == (0, 1)
    assert f._frame_slot((0, 1)) == (0, -1)
    assert f._frame_slot((2, 2)) == (None, 0)
    assert np.array_equal(frame_slot(f, 1, 0), coeffs[0])
    assert np.array_equal(frame_slot(f, 0, 1), -coeffs[0])
    assert np.array_equal(frame_slot(f, 2, 2), np.zeros((3,) + g3.resolution))
    v = FormField(g3, 1, VECTOR, np.broadcast_to(
        np.arange(9.0).reshape(3, 3, 1, 1, 1), (3, 3) + g3.resolution))
    assert v._frame_slot(2) == (2, 1)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_basis(g3):
    dx = const_form(g3, 1, [1, 0, 0])
    dy = const_form(g3, 1, [0, 1, 0])
    w = wedge(dx, dy)
    assert w.degree == 2
    # single +1 on the (x, y) component
    assert np.array_equal(w.coeffs[0], np.ones(g3.resolution))
    assert np.array_equal(w.coeffs[1], np.zeros(g3.resolution))
    assert np.array_equal(w.coeffs[2], np.zeros(g3.resolution))


def test_wedge_antisymmetry_and_nilpotency(g3):
    dx = const_form(g3, 1, [1, 0, 0])
    dy = const_form(g3, 1, [0, 1, 0])
    assert np.array_equal(wedge(dx, dy).coeffs, (-1) * wedge(dy, dx).coeffs)
    s = const_form(g3, 1, [1, 1, 0])      # dx + dy
    assert np.array_equal(wedge(s, dy).coeffs, wedge(dx, dy).coeffs)


def test_wedge_graded_commutativity_random(g3):
    rng = np.random.default_rng(7)
    for ka, kb in [(1, 1), (1, 2), (2, 1), (0, 2)]:
        if ka + kb > 3:
            continue
        a = FormField(g3, ka, SCALAR,
                      rng.normal(size=(len(basis_indices(3, ka)),)
                                 + g3.resolution))
        b = FormField(g3, kb, SCALAR,
                      rng.normal(size=(len(basis_indices(3, kb)),)
                                 + g3.resolution))
        sign = (-1) ** (ka * kb)
        assert np.array_equal(wedge(a, b).coeffs,
                              sign * wedge(b, a).coeffs)


def test_wedge_errors(g3):
    other = GridSpec([(0, 1.0)] * 3, [8, 8, 8])
    a = const_form(g3, 2, [1, 0, 0])
    with pytest.raises(ValueError, match="grid"):
        wedge(a, const_form(other, 1, [1, 0, 0]))
    with pytest.raises(ValueError, match="degree"):
        wedge(a, const_form(g3, 2, [1, 0, 0]))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_of_coordinate(g3):
    X, _, _ = g3.meshgrid()
    f = FormField(g3, 0, SCALAR, X[None])
    df = exterior_derivative(f)
    assert np.allclose(df.coeffs[0], 1.0, atol=1e-13)
    assert np.array_equal(df.coeffs[1], np.zeros(g3.resolution))
    assert np.array_equal(df.coeffs[2], np.zeros(g3.resolution))


def test_d_exact_for_quadratics_interior():
    g = GridSpec([(0, 1.0), (0, 1.0)], [16, 16])
    X, Y = g.meshgrid()
    f = FormField(g, 0, SCALAR, (3 * X ** 2 - 2 * X * Y + Y ** 2)[None])
    df = exterior_derivative(f)
    inner = (slice(1, -1), slice(1, -1))
    assert np.allclose(df.coeffs[0][inner], (6 * X - 2 * Y)[inner], atol=1e-12)
    assert np.allclose(df.coeffs[1][inner], (-2 * X + 2 * Y)[inner],
                       atol=1e-12)


def test_d_top_degree_is_misuse(g3):
    top = const_form(g3, 3, [1])
    with pytest.raises(ValueError):
        exterior_derivative(top)


def test_dd_machine_zero_per_axis_commutation():
    """Tensor-product stencils commute exactly, so d(d f) sits at rounding
    level (far below truncation order) at every resolution."""
    for n in (24, 48):
        g = GridSpec([(0, 2.0)] * 3, [n] * 3)
        X, Y, Z = g.meshgrid()
        f = FormField(g, 0, SCALAR, (np.sin(X) * np.cos(Y) + Z * Y)[None])
        dd = exterior_derivative(exterior_derivative(f))
        h2 = min(g.spacing) ** 2
        assert dd.max_abs() < 1e3 * np.finfo(float).eps / h2


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_hodge_examples(g3, g4):
    dx3 = const_form(g3, 1, [1, 0, 0])
    star = hodge_star(dx3)
    # *(dx) = dy^dz
    assert star.components == ((0, 1), (0, 2), (1, 2))
    assert star.coeffs[2][0, 0, 0] == 1.0 and abs(star.coeffs[0]).max() == 0
    dxdy4 = const_form(g4, 2, [1, 0, 0, 0, 0, 0])
    star4 = hodge_star(dxdy4)
    # *(dx^dy) = dz^dw in 4D
    idx = basis_indices(4, 2).index((2, 3))
    assert star4.coeffs[idx][0, 0, 0, 0] == 1.0
    total = np.abs(star4.coeffs).sum()
    assert total == np.prod(g4.resolution)


@pytest.mark.parametrize("dim,degree", [(2, 0), (2, 1), (3, 0), (3, 1),
                                        (3, 2), (4, 1), (4, 2), (4, 3)])
def test_hodge_involution_exact(dim, degree):
    g = GridSpec([(0, 1.0)] * dim, [5] * dim)
    rng = np.random.default_rng(degree + 10 * dim)
    a = FormField(g, degree, SCALAR,
                  rng.normal(size=(len(basis_indices(dim, degree)),)
                             + g.resolution))
    twice = hodge_star(hodge_star(a))
    sign = (-1) ** (degree * (dim - degree))
    assert np.array_equal(twice.coeffs, sign * a.coeffs)


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------

def test_interior_product_basics(g3):
    dx = const_form(g3, 1, [1, 0, 0])
    dxdy = const_form(g3, 2, [1, 0, 0])
    xhat = np.array([1.0, 0.0, 0.0])
    c = interior_product(xhat, dx)
    assert c.degree == 0 and np.array_equal(c.coeffs[0],
                                            np.ones(g3.resolution))
    iv = interior_product(xhat, dxdy)
    assert np.array_equal(iv.coeffs[1], np.ones(g3.resolution))  # dy
    assert abs(iv.coeffs[0]).max() == 0 and abs(iv.coeffs[2]).max() == 0
    with pytest.raises(ValueError):
        interior_product(xhat, c)


def test_interior_product_leibniz_exact(g3):
    # i_v(dx^dy) == (i_v dx)^dy - dx^(i_v dy) for v = (1, 2, 0)
    dx = const_form(g3, 1, [1, 0, 0])
    dy = const_form(g3, 1, [0, 1, 0])
    v = np.array([1.0, 2.0, 0.0])
    lhs = interior_product(v, wedge(dx, dy))
    rhs = wedge(interior_product(v, dx), dy) - wedge(dx,
                                                     interior_product(v, dy))
    assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_interior_product_antiderivation_smooth():
    g = GridSpec([(0, 2.0)] * 3, [32] * 3)
    X, Y, Z = g.meshgrid()
    rng = np.random.default_rng(3)
    a = FormField(g, 1, SCALAR, np.stack([np.sin(X) * Y, np.cos(Z), X * Z]))
    b = FormField(g, 1, SCALAR, np.stack([Y * Z, np.sin(Y), np.cos(X)]))
    vfield = np.stack([np.cos(Y), np.sin(Z) + 0.5, np.cos(X) * 0.3])
    lhs = interior_product(vfield, wedge(a, b))
    rhs = wedge(interior_product(vfield, a), b) \
        - wedge(a, interior_product(vfield, b))
    # pointwise algebra, no derivatives: exact to rounding
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-14


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------

def test_covariant_reduces_to_d(g3):
    e = identity_coframe(g3)
    om = dg.zero_connection(g3)
    lhs = dg.covariant_exterior_derivative(e, om)
    rhs = exterior_derivative(e)
    assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_covariant_scalar_rejected(g3):
    f = const_form(g3, 1, [1, 0, 0])
    with pytest.raises(ValueError, match="frame"):
        dg.covariant_exterior_derivative(f, dg.zero_connection(g3))


def test_commutator_antisymmetry_even_degree():
    g = GridSpec([(0, 2.0)] * 3, [8] * 3)
    X, Y, Z = g.meshgrid()
    oc = np.zeros((3, 3) + g.resolution)
    oc[0, 0] = np.sin(X)
    oc[1, 1] = np.cos(Y) * Z
    oc[2, 2] = X * Y
    om = FormField(g, 1, ANTISYM, oc)
    rc = np.zeros((3, 3) + g.resolution)
    rc[0, 0] = Y
    rc[1, 2] = np.sin(Z)
    rr = FormField(g, 2, ANTISYM, rc)
    out = dg.covariant_exterior_derivative(rr, om)
    # reconstruct the (a, b) and (b, a) reads; reflection must hold exactly
    for a in range(3):
        for b in range(3):
            assert np.array_equal(frame_slot(out, a, b),
                                  -frame_slot(out, b, a))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_surface_integral_constant(g3):
    dxdy = const_form(g3, 2, [1, 0, 0])
    disk = Disk((0.5, 0.5, 0.5), 0.45)
    val = integrate_surface(dxdy, disk, resolution=64)
    assert abs(val - np.pi * 0.45 ** 2) < 1e-12
    zero = FormField.zeros(g3, 2, SCALAR)
    assert integrate_surface(zero, disk) == 0.0


def _box_reference(a, box):
    """box_integral on the full coefficient array."""
    grid = a.grid
    acc = a.coeffs[0]
    for i in range(grid.dim):
        h = grid.spacing[i]
        c0 = grid.extents[i][0] + np.arange(grid.resolution[i]) * h
        ov = np.clip(np.minimum(box.hi[i], c0 + h)
                     - np.maximum(box.lo[i], c0), 0.0, None)
        shape = [1] * grid.dim
        shape[i] = -1
        acc = acc * ov.reshape(shape)
    return float(np.sum(acc))


@pytest.mark.parametrize("kind", ROW_SHAPES)
def test_box_integral_matches_full_array_reference(kind):
    """box_integral weights the stored row. Every weight has full length on
    its axis, so the product reaches full shape with the full array's
    values, and its sum has the same bits, on boxes that cut partial cells."""
    grid = GridSpec([(-1.0, 1.0), (0.0, 2.0), (-0.5, 0.5)], [9, 7, 6])
    rng = np.random.default_rng(17)
    a = field_with_row_shapes(grid, 3, SCALAR, kind, rng)
    lo, hi = np.array(grid.extents).T
    boxes = [Box(tuple(lo), tuple(hi))]
    for _ in range(25):
        corners = np.sort(rng.uniform(lo, hi, size=(2, 3)), axis=0)
        boxes.append(Box(tuple(corners[0]), tuple(corners[1])))
    for box in boxes:
        assert box_integral(a, box).hex() == _box_reference(a, box).hex()


def test_surface_integral_errors(g3):
    dxdy = const_form(g3, 2, [1, 0, 0])
    with pytest.raises(ValueError, match="exits"):
        integrate_surface(dxdy, Disk((0.5, 0.5, 0.5), 2.0))
    with pytest.raises(ValueError, match="2-form"):
        integrate_surface(const_form(g3, 1, [1, 0, 0]),
                          Disk((0.5, 0.5, 0.5), 0.2))
    with pytest.raises(ValueError, match="degenerate"):
        Disk((0.5, 0.5, 0.5), 0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: Box((0, 0, np.nan), (1, 1, 1)), "hi > lo"),
    (lambda: Disk((0, 0, 0), np.nan), "radius must be positive"),
    (lambda: Circle((0, 0, 0), np.nan), "radius must be positive"),
    (lambda: Disk((0, 0, 0), np.inf), "radius must be positive and finite"),
    (lambda: Circle((0, 0, 0), np.inf), "radius must be positive and finite"),
    (lambda: Disk((0, np.nan, 0), 0.3), "disk center must be finite"),
    (lambda: Circle((np.nan, 0, 0), 0.3), "circle center must be finite"),
    (lambda: Circle((0, 0, 0), 0.3, axes=((1, 0, 0), (1, 1, 0))),
     "orthogonal"),
], ids=["box-nan-lo", "disk-nan-radius", "circle-nan-radius",
        "disk-inf-radius", "circle-inf-radius", "disk-nan-center",
        "circle-nan-center", "circle-skewed-axes"])
def test_measuring_geometry_rejects_nan_and_skewed_axes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("resolution", [0, -3, 2.5])
def test_quadrature_rejects_bad_resolution(g3, resolution):
    with pytest.raises(ValueError, match="resolution must be an integer"):
        integrate_surface(const_form(g3, 2, [1, 0, 0]),
                          Disk((0.5, 0.5, 0.5), 0.2), resolution=resolution)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        integrate_loop(const_form(g3, 1, [1, 0, 0]),
                       Circle((0.5, 0.5, 0.5), 0.2), resolution=resolution)


def test_loop_integral_exact_form(g3):
    dx = const_form(g3, 1, [1, 0, 0])
    circle = Circle((0.5, 0.5, 0.5), 0.3)
    assert abs(integrate_loop(dx, circle)) < 1e-14


def test_loop_integral_errors(g3):
    dx = const_form(g3, 1, [1, 0, 0])

    class Segment:
        """The open segment from (0.5, 0.5, 0.5) to (0.6, 0.5, 0.5)."""

        def is_closed(self):
            return False

        def points_and_velocity(self, t):
            return (np.stack([0.5 + 0.1 * t, 0.5 + 0 * t, 0.5 + 0 * t], -1),
                    np.stack([0.1 + 0 * t, 0 * t, 0 * t], -1))

    with pytest.raises(ValueError, match="closed"):
        integrate_loop(dx, Segment())
    with pytest.raises(ValueError, match="1-form"):
        integrate_loop(const_form(g3, 2, [1, 0, 0]),
                       Circle((0.5, 0.5, 0.5), 0.2))


def test_loop_winding_of_circulation():
    """Loop integral of the screened circulation around its core is 2 pi, and
    is loop-radius independent beyond five core radii (1e-6 relative)."""
    grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
    X, Y, _ = grid.meshgrid()
    eps = 0.05
    cx, cy = dg.screened_circulation(X, Y, eps)
    theta = FormField(grid, 1, SCALAR,
                      np.stack([cx, cy, np.zeros(grid.resolution)]))
    vals = [integrate_loop(theta, Circle((0, 0, 0), r))
            for r in (6 * eps, 12 * eps, 0.9, 1.2)]
    for v in vals:
        assert abs(v - 2 * np.pi) / (2 * np.pi) < 1e-6
    assert (max(vals) - min(vals)) / (2 * np.pi) < 1e-6


def test_winding_disk_integral_matches_loop():
    """Stokes route: integrating d of the circulation over a disk gives the
    loop value 2 pi to 1e-3 relative, despite the concentrated core."""
    grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [128, 128, 8])
    X, Y, _ = grid.meshgrid()
    cx, cy = dg.screened_circulation(X, Y, 0.05)
    theta = FormField(grid, 1, SCALAR,
                      np.stack([cx, cy, np.zeros(grid.resolution)]))
    d_theta = exterior_derivative(theta)
    val = integrate_surface(d_theta, Disk((0, 0, 0), 1.0), resolution=512)
    assert abs(val - 2 * np.pi) / (2 * np.pi) < 1e-3


def _smooth_vector_form(grid, degree, seed):
    """Frame-vector form whose every component is a distinct smooth field."""
    X, Y, Z = grid.meshgrid()
    rng = np.random.default_rng(seed)
    ncomp = len(basis_indices(grid.dim, degree))
    k = rng.uniform(0.5, 2.0, size=(grid.dim, ncomp, 3))
    coeffs = np.sin(k[..., 0, None, None, None] * X + 1.0) \
        * np.cos(k[..., 1, None, None, None] * Y - 0.3) \
        + k[..., 2, None, None, None] * Z
    return FormField(grid, degree, VECTOR, coeffs)


def _full_reference(a, points, weights, count=1, order=5):
    """Quadrature sampling every component, zero weight or not."""
    ncomp = weights.shape[0]
    vals = a.sample(points, order=order).reshape(-1, ncomp, points.shape[0])
    return np.einsum("...cp,cp->...p", vals, weights).sum(axis=-1) / count


def _disk_weights(disk, comps, resolution):
    """Disk points and Jacobians times the Gauss-Legendre (radius) by
    periodic midpoint (angle) weights of a resolution x 2*resolution rule."""
    x, wx = np.polynomial.legendre.leggauss(resolution)
    w = (np.arange(2 * resolution) + 0.5) / (2 * resolution)
    U, W = np.meshgrid((x + 1) / 2, w, indexing="ij")
    weight = np.repeat(wx / 2 / (2 * resolution), 2 * resolution)
    points, tu, tw = disk.points_and_tangents(U.ravel(), W.ravel())
    jac = np.array([(tu[:, i] * tw[:, j] - tu[:, j] * tw[:, i]) * weight
                    for i, j in comps])
    return points, jac


def test_quadrature_skipping_zero_weights_is_bit_exact(g3):
    """On a z-normal disk and circle the dz components carry exactly zero
    weight; leaving them out changes no bit of the integral."""
    t = _smooth_vector_form(g3, 2, seed=3)
    disk = Disk((0.5, 0.45, 0.5), 0.35)
    points, jac = _disk_weights(disk, t.components, 64)
    assert not np.any(jac[1:])
    ref = _full_reference(t, points, jac)
    assert np.array_equal(integrate_surface(t, disk, resolution=64), ref)

    e = _smooth_vector_form(g3, 1, seed=4)
    circle = Circle((0.5, 0.5, 0.45), 0.3)
    points, vel = circle.points_and_velocity((np.arange(512) + 0.5) / 512)
    assert not np.any(vel[:, 2])
    ref = _full_reference(e, points, vel.T, 512)
    assert np.array_equal(integrate_loop(e, circle), ref)


def test_quadrature_samples_only_weighted_components(g3, monkeypatch):
    """A z-normal disk samples the dx^dy component of each frame slot; a
    tilted disk has weight on every component and samples all of them."""
    from defectgeom import forms
    rows = []
    real = forms.ndimage.map_coordinates
    monkeypatch.setattr(forms.ndimage, "map_coordinates",
                        lambda splines, *a: rows.extend(splines)
                        or real(splines, *a))
    t = _smooth_vector_form(g3, 2, seed=5)
    integrate_surface(t, Disk((0.5, 0.5, 0.5), 0.3), resolution=32)
    assert len(rows) == 3

    rows.clear()
    tilt = (np.array([1.0, 0.0, 0.4]), np.array([0.0, 1.0, 0.3]))
    tilt = (tilt[0], tilt[1] - tilt[1] @ tilt[0] / (tilt[0] @ tilt[0]) * tilt[0])
    tilted = Disk((0.5, 0.5, 0.5), 0.3, axes=tilt)
    points, jac = _disk_weights(tilted, t.components, 32)
    assert np.all(np.any(jac != 0, axis=1))
    val = integrate_surface(t, tilted, resolution=32)
    assert len(rows) == 9
    np.testing.assert_allclose(val, _full_reference(t, points, jac),
                               rtol=1e-13, atol=1e-15)


def test_spline_calls_go_through_forms_ndimage(g3, monkeypatch):
    """Both spline calls look up the `ndimage` name of `forms` when they run,
    so a stand-in bound to that name sees every prefilter and every sample:
    one prefilter per row, and one evaluation of the rows that share their
    axes. The values are the kernel's own."""
    from defectgeom import forms
    kernel = forms.ndimage
    calls = []

    class CountingNdimage:
        def spline_filter(self, *args, **kwargs):
            calls.append("spline_filter")
            return kernel.spline_filter(*args, **kwargs)

        def map_coordinates(self, *args, **kwargs):
            calls.append(("map_coordinates", len(args[0])))
            return kernel.map_coordinates(*args, **kwargs)

    t = _smooth_vector_form(g3, 2, seed=6)
    points = np.array([[0.4, 0.5, 0.6], [0.21, 0.73, 0.35]])
    ref = FormField(g3, 2, VECTOR, t.coeffs).sample(points)
    monkeypatch.setattr(forms, "ndimage", CountingNdimage())
    vals = t.sample(points)
    assert calls == ["spline_filter"] * 9 + [("map_coordinates", 9)]
    assert np.array_equal(vals, ref)


def test_sample_needs_order_3_or_5_and_finite_points(g3):
    f = _smooth_vector_form(g3, 1, seed=7)
    for order in (1, 4, 6):
        with pytest.raises(ValueError, match="order must be 3 or 5"):
            f.sample(np.array([[0.5, 0.5, 0.5]]), order=order)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="points must be finite"):
            f.sample(np.array([[0.5, 0.5, 0.5], [0.5, bad, 0.5]]))
    assert f.sample(np.zeros((0, 3))).shape == (3, 3, 0)


# The sha256 of prefilters of a 256^2 and a 64^2 x 8 array (dense path) and
# of a 480 x 40 array (recursive along its long axis), printed by a fresh
# interpreter so that the BLAS thread count is read at numpy's import.
PREFILTER_DIGEST = """
import hashlib
import numpy as np
from defectgeom import forms
rng = np.random.default_rng(5)
h = hashlib.sha256()
for shape, order in (((256, 256), 5), ((64, 64, 8), 3), ((480, 40), 5)):
    h.update(forms.ndimage.spline_filter(rng.normal(size=shape), order))
print(h.hexdigest())
"""


def test_prefilter_bits_do_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", PREFILTER_DIGEST],
                              env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_surface_rules_broadcast_like_flat_rules(g3):
    """Handed a column of u and a row of w, each surface gives the arrays it
    gives for the flattened meshgrid, bit for bit and in the same order."""
    u = (np.arange(24) + 0.5) / 24
    U, W = np.meshgrid(u, u, indexing="ij")
    tilt = ((1.0, 0.0, 0.4), (-0.4 * 0.3, 1.16, 0.3))
    surfaces = [Disk((0.5, 0.45, 0.5), 0.35), Disk((0.5, 0.5, 0.5), 0.3, tilt),
                dg.ParametricSurface(
                    lambda u, w: np.stack([u, w, u * w], -1),
                    lambda u, w: np.stack([1 + 0 * u, 0 * u, w], -1),
                    lambda u, w: np.stack([0 * u, 1 + 0 * u, u], -1))]
    for surface in surfaces:
        flat = surface.points_and_tangents(U.ravel(), W.ravel())
        grid = surface.points_and_tangents(u[:, None], u[None, :])
        for f, b in zip(flat, grid):
            assert f.shape == (24 * 24, 3)
            assert np.array_equal(np.reshape(b, (-1, 3)), f)
