"""Measuring geometry: the disks, circles and boxes the charges, holonomies
and reconnection exchange are measured on.

`Disk` and `ParametricSurface` map the unit parameter square to physical
space and expose analytic tangents; `Circle` maps the unit interval. The
quadratures in `forms` consume them: Gauss-Legendre in u by the periodic
midpoint rule in w on surfaces, the periodic midpoint rule on loops.
`box_integral` weights grid cells by their overlap with a `Box`.

A surface's `points_and_tangents(u, w)` takes parameter arrays that broadcast
together, such as a column of u and a row of w, and returns the points and
both tangents with the vector axis last; a tangent may be a read-only
broadcast view. `ParametricSurface` flattens u and w first, so its callables
see 1-D arrays and return (m, dim). A loop's `points_and_velocity(t)` takes
a 1-D t, and its `is_closed()` is checked by `integrate_loop`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _unit(v):
    v = np.asarray(v, float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero-length axis vector")
    return v / n


@dataclass(frozen=True)
class Disk:
    """Planar disk, radial parametrization r = u * radius, angle 2*pi*w.

    axes: two orthonormal vectors spanning the disk plane. For the default
    z-normal disk in 3D these are x-hat and y-hat.
    """

    center: tuple
    radius: float
    axes: tuple = None

    def __post_init__(self):
        center = np.asarray(self.center, float)
        if not np.all(np.isfinite(center)):
            raise ValueError("disk center must be finite")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("degenerate surface: radius must be positive "
                             "and finite")
        if self.axes is None:
            if center.shape[0] < 3:
                raise ValueError("default disk axes need dim >= 3")
            e1 = np.zeros(center.shape[0]); e1[0] = 1.0
            e2 = np.zeros(center.shape[0]); e2[1] = 1.0
        else:
            e1, e2 = (_unit(v) for v in self.axes)
            if abs(np.dot(e1, e2)) > 1e-12:
                raise ValueError("disk axes must be orthogonal")
        object.__setattr__(self, "center", tuple(center))
        object.__setattr__(self, "axes", (tuple(e1), tuple(e2)))

    def points_and_tangents(self, u, w):
        c = np.asarray(self.center)
        e1 = np.asarray(self.axes[0])
        e2 = np.asarray(self.axes[1])
        r = (u * self.radius)[..., None]
        ang = 2 * np.pi * w
        cos, sin = np.cos(ang)[..., None], np.sin(ang)[..., None]
        radial = cos * e1 + sin * e2
        points = c + r * radial
        tu = np.broadcast_to(self.radius * radial, points.shape)
        tw = 2 * np.pi * r * (-sin * e1 + cos * e2)
        return points, tu, tw


@dataclass(frozen=True)
class ParametricSurface:
    """Generic surface from callables point(u, w) -> (m, dim) and tangents."""

    point_fn: callable
    tangent_u_fn: callable
    tangent_w_fn: callable

    def points_and_tangents(self, u, w):
        u, w = (np.ravel(x) for x in np.broadcast_arrays(u, w))
        return (np.asarray(self.point_fn(u, w), float),
                np.asarray(self.tangent_u_fn(u, w), float),
                np.asarray(self.tangent_w_fn(u, w), float))


@dataclass(frozen=True)
class Circle:
    """Closed circular loop of given radius in the plane of `axes`."""

    center: tuple
    radius: float
    axes: tuple = None

    def __post_init__(self):
        center = np.asarray(self.center, float)
        if not np.all(np.isfinite(center)):
            raise ValueError("circle center must be finite")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("degenerate loop: radius must be positive and "
                             "finite")
        if self.axes is None:
            e1 = np.zeros(center.shape[0]); e1[0] = 1.0
            e2 = np.zeros(center.shape[0]); e2[1] = 1.0
        else:
            e1, e2 = (_unit(v) for v in self.axes)
            if abs(np.dot(e1, e2)) > 1e-12:
                raise ValueError("loop axes must be orthogonal")
        object.__setattr__(self, "center", tuple(center))
        object.__setattr__(self, "axes", (tuple(e1), tuple(e2)))

    def is_closed(self):
        return True

    def points_and_velocity(self, t):
        c = np.asarray(self.center)
        e1 = np.asarray(self.axes[0])
        e2 = np.asarray(self.axes[1])
        ang = 2 * np.pi * t
        cos, sin = np.cos(ang), np.sin(ang)
        points = c + self.radius * (np.outer(cos, e1) + np.outer(sin, e2))
        vel = 2 * np.pi * self.radius * (np.outer(-sin, e1) + np.outer(cos, e2))
        return points, vel


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] used for volume integrals."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, float)
        hi = np.asarray(self.hi, float)
        if lo.shape != hi.shape or not np.all(hi > lo):
            raise ValueError("box must satisfy hi > lo on every axis")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))

    def inside(self, grid):
        """True if the box lies within the grid extents, up to 1e-12."""
        for i, (lo, hi) in enumerate(grid.extents):
            if self.lo[i] < lo - 1e-12 or self.hi[i] > hi + 1e-12:
                return False
        return True


def box_integral(a, box: Box) -> float:
    """Integral of a scalar top-degree form over a box, cell-overlap weighted.

    Partial boundary cells contribute in proportion to the per-axis overlap
    of the box with the cell, which is exact for fields constant across the
    cut direction and second-order accurate otherwise.
    """
    grid = a.grid
    if a.degree != grid.dim or a.value_type != "scalar":
        raise ValueError("box_integral needs a scalar top-degree form")
    if len(box.lo) != grid.dim:
        raise ValueError("box dimension mismatch")
    if not box.inside(grid):
        raise ValueError("volume exits grid extents")
    weights = []
    for i in range(grid.dim):
        lo, _ = grid.extents[i]
        h = grid.spacing[i]
        c0 = lo + np.arange(grid.resolution[i]) * h
        ov = np.clip(np.minimum(box.hi[i], c0 + h) - np.maximum(box.lo[i], c0),
                     0.0, None)
        weights.append(ov)
    # every weight has full length on its axis, so the product of the stored
    # row reaches full shape with the full array's values and bits
    acc = a._rows[0]
    for i, wt in enumerate(weights):
        shape = [1] * grid.dim
        shape[i] = -1
        acc = acc * wt.reshape(shape)
    return float(np.sum(acc))
