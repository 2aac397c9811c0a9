"""Canonical defect configurations on 3D grids.

Screw and edge dislocations perturb the trivial coframe by a regularized
circulation 1-form; wedge disclinations populate the in-plane block of the
spin connection. All defect lines run along the z axis through a transverse
core position.

Core regularization. The singular circulation dtheta = (-y dx + x dy)/r^2 is
screened by a Gaussian envelope,

    dtheta_eps = (1 - exp(-r^2 / 2 eps^2)) * (-y dx + x dy) / r^2,

which is smooth at the core and makes

    d(dtheta_eps) = exp(-r^2 / 2 eps^2) / eps^2  dx^dy = 2 pi g_eps(r) dx^dy

exactly the normalized Gaussian replacement of the delta-function core,
g_eps = exp(-r^2/2 eps^2) / (2 pi eps^2). Loop integrals of dtheta_eps around
the core converge to 2 pi with an exponentially small deficit, so measured
charges are independent of the measuring radius once it exceeds a few eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .forms import (
    ANTISYM,
    SURFACE_RESOLUTION,
    VECTOR,
    FormField,
    GridSpec,
    antisym_pairs,
    covariant_exterior_derivative,
    exterior_derivative,
    antisym_matmul,
    identity_coframe,
    integrate_surface,
    require_coframe,
    require_connection,
    zero_connection,
)

SCREW = "screw"
EDGE = "edge"
WEDGE = "wedge"


def screened_circulation(x, y, eps):
    """Coefficients (c_x, c_y) of dtheta_eps at transverse offsets (x, y)."""
    r2 = x * x + y * y
    t = r2 / (2.0 * eps * eps)
    small = t < 1e-8
    safe_t = np.where(small, 1.0, t)
    safe_r2 = np.where(small, 1.0, r2)
    u = np.where(small,
                 (1.0 - t / 2.0 + t * t / 6.0) / (2.0 * eps * eps),
                 -np.expm1(-safe_t) / safe_r2)
    return -y * u, x * u


@dataclass(frozen=True)
class DefectSpec:
    """One canonical defect: kind, transverse core position, charge, core size.

    charge is the Burgers magnitude b for screw/edge lines, which must be
    nonzero, and the Frank angle Theta for wedge lines. Edge defects carry an
    in-plane unit Burgers direction.
    """

    kind: str
    position: tuple
    charge: float
    core_radius: float
    burgers_direction: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (SCREW, EDGE, WEDGE):
            raise ValueError(f"unknown defect kind {self.kind!r}")
        pos = np.asarray(self.position, float)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite 2D transverse point")
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")
        if self.kind in (SCREW, EDGE) and self.charge == 0:
            raise ValueError(f"charge must be nonzero for a {self.kind} "
                             "dislocation")
        if not (self.core_radius > 0 and np.isfinite(self.core_radius)):
            raise ValueError("core radius must be positive")
        object.__setattr__(self, "position", (float(pos[0]), float(pos[1])))
        object.__setattr__(self, "charge", float(self.charge))
        object.__setattr__(self, "core_radius", float(self.core_radius))
        if self.kind == EDGE:
            if self.burgers_direction is None:
                raise ValueError("edge defect needs a Burgers direction")
            d = np.asarray(self.burgers_direction, float)
            if d.shape != (2,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
                raise ValueError("Burgers direction must be a unit 2D vector")
            object.__setattr__(self, "burgers_direction", (float(d[0]), float(d[1])))
        elif self.burgers_direction is not None:
            raise ValueError("only edge defects take a Burgers direction")


@dataclass(frozen=True)
class DefectConfiguration:
    """A set of defects on one grid, cores at least 5 eps inside the boundary."""

    grid: GridSpec
    defects: tuple

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("canonical defect configurations are 3D")
        defects = tuple(self.defects)
        object.__setattr__(self, "defects", defects)
        for k, d in enumerate(defects):
            margin = 5.0 * d.core_radius
            for i in range(2):
                lo, hi = self.grid.extents[i]
                if not (lo + margin <= d.position[i] <= hi - margin):
                    raise ValueError(
                        f"defect {k} core at {d.position} closer than 5*eps "
                        f"to the boundary of axis {i}")


def build_coframe(config: DefectConfiguration) -> FormField:
    """Coframe e^a = dx^a plus the summed dislocation circulation terms.

    A screw of Burgers magnitude b adds (b / 2 pi) dtheta_eps to e^3; an edge
    with in-plane direction d adds (b d_i / 2 pi) dtheta_eps to e^i. Wedge
    disclinations leave the coframe trivial. With no dislocations the result
    is the identity coframe exactly.
    """
    grid = config.grid
    X, Y = _transverse_centers(grid)
    rows = list(identity_coframe(grid)._rows)  # row 3 a + i holds e^a_i
    for d in config.defects:
        if d.kind == WEDGE:
            continue
        cx, cy = screened_circulation(X - d.position[0], Y - d.position[1],
                                      d.core_radius)
        pref = d.charge / (2.0 * np.pi)
        if d.kind == SCREW:
            rows[6] = rows[6] + pref * cx
            rows[7] = rows[7] + pref * cy
        else:
            dx, dy = d.burgers_direction
            rows[0] = rows[0] + pref * dx * cx
            rows[1] = rows[1] + pref * dx * cy
            rows[3] = rows[3] + pref * dy * cx
            rows[4] = rows[4] + pref * dy * cy
    return FormField._from_rows(grid, 1, VECTOR, rows)


def build_connection(config: DefectConfiguration) -> FormField:
    """Spin connection with omega^1_2 = Theta dtheta_eps summed over wedges.

    Dislocation-only configurations return the zero connection.
    """
    grid = config.grid
    wedges = [d for d in config.defects if d.kind == WEDGE]
    if not wedges:
        return zero_connection(grid)
    X, Y = _transverse_centers(grid)
    rows = list(zero_connection(grid)._rows)
    slot = antisym_pairs(grid.dim).index((1, 0))  # stores omega^2_1 = -omega^1_2
    for d in wedges:
        cx, cy = screened_circulation(X - d.position[0], Y - d.position[1],
                                      d.core_radius)
        rows[3 * slot] = rows[3 * slot] - d.charge * cx
        rows[3 * slot + 1] = rows[3 * slot + 1] - d.charge * cy
    return FormField._from_rows(grid, 1, ANTISYM, rows)


def _transverse_centers(grid: GridSpec) -> tuple:
    """Cell-centre x and y, shaped to broadcast over one z plane."""
    return grid.axis_centers(0)[:, None, None], grid.axis_centers(1)[None, :, None]


def torsion(e: FormField, omega: FormField) -> FormField:
    """Torsion 2-form T = D e = d e + omega ^ e."""
    require_coframe(e)
    require_connection(omega)
    if e.grid != omega.grid:
        raise ValueError("grid mismatch")
    return covariant_exterior_derivative(e, omega)


def curvature(omega: FormField) -> FormField:
    """Curvature 2-form R = d omega + omega ^ omega."""
    require_connection(omega)
    return exterior_derivative(omega) + antisym_matmul(omega, omega)


@dataclass(frozen=True)
class CartanFields:
    """A coframe and connection with the torsion t = D e and curvature
    r = d omega + omega ^ omega they determine, each built once."""

    e: FormField
    omega: FormField
    t: FormField = field(init=False)
    r: FormField = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "t", torsion(self.e, self.omega))
        object.__setattr__(self, "r", curvature(self.omega))


def burgers_vector(t: FormField, surface,
                   resolution: int = SURFACE_RESOLUTION) -> np.ndarray:
    """Burgers vector of the torsion flux through a surface, one value per
    frame index."""
    if t.degree != 2 or t.value_type != VECTOR:
        raise ValueError("Burgers extraction needs a frame-vector 2-form")
    return integrate_surface(t, surface, resolution=resolution)


def frank_angles(r: FormField, surface,
                 resolution: int = SURFACE_RESOLUTION) -> np.ndarray:
    """Frank rotation matrix of the curvature flux through a surface."""
    if r.degree != 2 or r.value_type != ANTISYM:
        raise ValueError("Frank extraction needs a matrix-valued 2-form")
    return integrate_surface(r, surface, resolution=resolution)


def axial_vector(mat: np.ndarray) -> np.ndarray:
    """Axial vector (M_23, M_31, M_12) of a 3x3 antisymmetric matrix."""
    mat = np.asarray(mat, float)
    if mat.shape != (3, 3):
        raise ValueError("axial vector is defined for 3x3 matrices")
    return np.array([mat[1, 2], mat[2, 0], mat[0, 1]])
