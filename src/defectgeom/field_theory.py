"""Action terms, field-equation residuals, conservation-law diagnostics.

Everything here evaluates closed-form configurations; nothing is solved as a
PDE. Every diagnostic takes a `CartanFields` bundle, so the torsion and
curvature of a grid are built once and shared. The two Euler-Lagrange
residuals need top degree four for consistent form degrees, so static 3D
bundles are embedded as w-independent fields on a thin 4D grid first (see
`embed_static_4d`), which builds the 4D torsion and curvature once for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    antisym_pairs,
    covariant_exterior_derivative,
    exterior_derivative,
    hodge_star,
    wedge,
    _frame_sum,
)
from .defects import CartanFields
from .geometry import Box, box_integral


@dataclass(frozen=True)
class Couplings:
    """Action moduli. alpha, beta, gamma must be strictly positive."""

    alpha: float
    beta: float
    gamma: float
    kappa_u1: float = 0.0
    lambda_u1: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be strictly positive")
        object.__setattr__(self, "kappa_u1", float(self.kappa_u1))
        object.__setattr__(self, "lambda_u1", float(self.lambda_u1))

    @property
    def Gamma(self) -> float:
        """Curvature-force coupling gamma / alpha."""
        return self.gamma / self.alpha

    @property
    def kappa_el(self) -> float:
        """Spin-balance coupling gamma / (2 beta)."""
        return self.gamma / (2.0 * self.beta)


@dataclass(frozen=True)
class Residual:
    """A residual field together with its interior norms."""

    field: Optional[FormField]
    l2: float
    linf: float
    interior_only: bool = True
    note: str = ""

    def as_record(self, term: str) -> dict:
        return {"term": term, "l2Norm": self.l2, "maxNorm": self.linf,
                "interiorOnly": self.interior_only, "note": self.note}


def interior_mask(grid: GridSpec, boundary_margin: float = 0.0,
                  exclude_tubes=()) -> np.ndarray:
    """Cell mask excluding a physical boundary margin and z-aligned core tubes.

    boundary_margin: one margin for every axis, or one per axis. Cell centres
    lie strictly inside the extents, so a margin of 0 keeps every cell along
    its axis. A 4D embedding takes (m, m, m, 0.0): its thin w axis carries
    exactly w-independent fields, so the one-sided stencils there are exact
    and need no margin.
    exclude_tubes: iterables of (x, y, radius) in transverse coordinates.
    """
    return _mask_product(_mask_factors(grid, boundary_margin, exclude_tubes))


def _mask_factors(grid: GridSpec, boundary_margin, exclude_tubes) -> list:
    """`interior_mask` as broadcastable factors whose product is the mask:
    the (x, y) factor, holding the x and y margins and the tubes, then one
    factor per further axis. The mask is empty exactly when some factor is.
    """
    margins = (list(boundary_margin) if np.ndim(boundary_margin) > 0
               else [boundary_margin] * grid.dim)
    keeps = []
    for i in range(grid.dim):
        c = grid.axis_centers(i)
        lo, hi = grid.extents[i]
        keeps.append((c >= lo + margins[i]) & (c <= hi - margins[i]))
    transverse = keeps[0][:, None] & keeps[1][None, :]
    X = grid.axis_centers(0)[:, None]
    Y = grid.axis_centers(1)[None, :]
    for (cx, cy, rad) in exclude_tubes:
        transverse &= (X - cx) ** 2 + (Y - cy) ** 2 > rad * rad
    factors = [transverse.reshape(transverse.shape + (1,) * (grid.dim - 2))]
    for i in range(2, grid.dim):
        shape = [1] * grid.dim
        shape[i] = -1
        factors.append(keeps[i].reshape(shape))
    return factors


def _mask_product(factors) -> np.ndarray:
    """The full-grid mask of `_mask_factors`. The trailing factors go
    first, so the one full-grid step runs along a long contiguous tail
    rather than along the thin w axis alone."""
    mask = factors[-1]
    for factor in factors[-2::-1]:
        mask = mask & factor
    return mask


def field_norms(f: FormField, boundary_margin: float = 0.0,
                exclude_tubes=()) -> tuple:
    """(rms, max) of the pointwise component-Euclidean norm over masked cells.

    A field whose rows are all exact zeros (`FormField._zero`) has norms
    (0.0, 0.0), and no full-grid array is built for it.
    """
    factors = _mask_factors(f.grid, boundary_margin, exclude_tubes)
    if not all(factor.any() for factor in factors):
        raise ValueError("norm mask excludes every cell")
    if all(f._zero):
        return 0.0, 0.0
    sq = np.zeros((1,) * f.grid.dim)
    for row in f._rows:
        sq = sq + row * row
    # masked on the full grid, so np.mean adds the values in grid order
    sel = np.broadcast_to(sq, f.grid.resolution)[_mask_product(factors)]
    return float(np.sqrt(np.mean(sel))), float(np.sqrt(np.max(sel)))


def make_residual(f: FormField, boundary_margin: float = 0.0,
                  exclude_tubes=(), note: str = "") -> Residual:
    l2, linf = field_norms(f, boundary_margin, exclude_tubes)
    return Residual(field=f, l2=l2, linf=linf,
                    interior_only=bool(np.any(np.asarray(boundary_margin) > 0)
                                       or exclude_tubes),
                    note=note)


# ---------------------------------------------------------------------------
# 4D embedding of static configurations
# ---------------------------------------------------------------------------

def embed_static_4d(fields: CartanFields) -> CartanFields:
    """Extend a static 3D bundle to a thin 4D grid of four w cells.

    Fields become w-independent, e^4 = dw and all new connection blocks
    vanish, so 4D diagnostics see the same geometry with consistent degrees.
    Each 3D row gains a length-1 w axis without a copy. The 4D torsion and
    curvature are built once, by the returned bundle.
    """
    e, omega = fields.e, fields.omega
    g3 = e.grid
    if g3.dim != 3:
        raise ValueError("embedding expects 3D input fields")
    hw = min(g3.spacing)
    g4 = GridSpec(tuple(g3.extents) + ((0.0, 4 * hw),),
                  tuple(g3.resolution) + (4,))
    zero = np.zeros((1,) * 4)
    e4, om4 = [zero] * 16, [zero] * 24
    e4[15] = np.ones((1,) * 4)
    # frame slots 0-2 and the pairs (1,0), (2,0), (2,1) keep their index
    # in 4D; 3D component c is 4D component c, and every dw component is 0
    for s in range(3):
        for c in range(3):
            e4[4 * s + c] = e._rows[3 * s + c][..., None]
            om4[4 * s + c] = omega._rows[3 * s + c][..., None]
    return CartanFields(FormField._from_rows(g4, 1, VECTOR, e4),
                        FormField._from_rows(g4, 1, ANTISYM, om4))


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionBreakdown:
    torsion_term: FormField
    curvature_term: FormField
    mixed_term: FormField
    torsion_integral: float
    curvature_integral: float
    mixed_integral: float
    mixed_identically_zero: bool

    @property
    def total(self) -> float:
        return self.torsion_integral + self.curvature_integral + self.mixed_integral


def action_density(fields: CartanFields, c: Couplings) -> ActionBreakdown:
    """Top-degree densities of the three action terms and their integrals.

    In three dimensions the mixed coframe-curvature term is a 4-form and
    vanishes identically; it is reported as an exactly zero density there.
    """
    e, t, r = fields.e, fields.t, fields.r
    grid = e.grid
    term_t = c.alpha * wedge(t, hodge_star(t))
    term_r = c.beta * wedge(r, hodge_star(r))
    if grid.dim >= 4:
        term_m = c.gamma * wedge(e, wedge(r, e))
        mixed_zero = False
    else:
        term_m = FormField.zeros(grid, grid.dim, SCALAR)
        mixed_zero = True
    whole = Box(*zip(*grid.extents))
    return ActionBreakdown(
        torsion_term=term_t,
        curvature_term=term_r,
        mixed_term=term_m,
        torsion_integral=box_integral(term_t, whole),
        curvature_integral=box_integral(term_r, whole),
        mixed_integral=box_integral(term_m, whole),
        mixed_identically_zero=mixed_zero,
    )


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals (degree-consistent in 4D)
# ---------------------------------------------------------------------------

def el_coframe_residual(fields: CartanFields, c: Couplings,
                        boundary_margin: float = 0.0,
                        exclude_tubes=()) -> Residual:
    """Residual of the force balance D(*T_a) + Gamma R_ab ^ e^b."""
    e, omega, t, r = fields.e, fields.omega, fields.t, fields.r
    if e.grid.dim != 4:
        raise ValueError("coframe balance residual needs a 4D configuration; "
                         "embed static 3D fields first")
    res = covariant_exterior_derivative(hodge_star(t), omega) \
        + c.Gamma * wedge(r, e)
    return make_residual(res, boundary_margin, exclude_tubes,
                         note="D(*T) + Gamma R^e")


def el_connection_residual(fields: CartanFields, c: Couplings,
                           boundary_margin: float = 0.0,
                           exclude_tubes=()) -> Residual:
    """Residual of the spin balance D(*R_ab) + kappa (e^a ^ *T_b - e^b ^ *T_a)."""
    e, omega = fields.e, fields.omega
    if e.grid.dim != 4:
        raise ValueError("spin balance residual needs a 4D configuration; "
                         "embed static 3D fields first")
    dstar = covariant_exterior_derivative(hodge_star(fields.r), omega)
    st = hodge_star(fields.t)
    anti = _frame_sum(e.grid, 1 + st.degree, ANTISYM,
                      [term for p, (fa, fb) in enumerate(antisym_pairs(e.grid.dim))
                       for term in ((p, 1, e, fa, st, fb), (p, -1, e, fb, st, fa))])
    res = dstar + c.kappa_el * anti
    return make_residual(res, boundary_margin, exclude_tubes,
                         note="D(*R) + kappa (e^*T - e^*T)")


def bianchi_residuals(fields: CartanFields, boundary_margin: float = 0.0,
                      exclude_tubes=()) -> tuple:
    """(D R, D T - R ^ e) residuals; both vanish identically in the continuum."""
    e, omega, t, r = fields.e, fields.omega, fields.t, fields.r
    dr = covariant_exterior_derivative(r, omega)
    dt = covariant_exterior_derivative(t, omega)
    second = dt - wedge(r, e)
    return (make_residual(dr, boundary_margin, exclude_tubes, note="D R"),
            make_residual(second, boundary_margin, exclude_tubes,
                          note="D T - R^e"))


# ---------------------------------------------------------------------------
# U(1) source forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class U1Sources:
    j1: FormField
    j2: Optional[FormField]
    dj1: Optional[Residual]
    j2_identically_zero: bool


def u1_sources(fields: CartanFields, c: Couplings,
               boundary_margin: float = 0.0, exclude_tubes=()) -> U1Sources:
    """Geometric U(1) sources J1 = kappa T^a ^ e_a and J2 = lambda e^R^e.

    J1 is a 3-form; J2 is a 4-form that vanishes identically in three
    dimensions and is reported as such. dJ1 is computed where the degree
    allows (in 4D); J2 has top degree, so dJ2 vanishes identically.
    """
    e = fields.e
    grid = e.grid
    j1 = c.kappa_u1 * wedge(fields.t, e)
    if j1.degree < grid.dim:
        dj1 = make_residual(exterior_derivative(j1), boundary_margin,
                            exclude_tubes, note="d J1")
    else:
        dj1 = Residual(field=None, l2=0.0, linf=0.0, interior_only=False,
                       note="J1 has top degree; d J1 vanishes identically")
    if grid.dim >= 4:
        j2 = c.lambda_u1 * wedge(e, wedge(fields.r, e))
        return U1Sources(j1, j2, dj1, j2_identically_zero=False)
    return U1Sources(j1, None, dj1, j2_identically_zero=True)


def u1_flux_balance(j1: FormField, volume: Box) -> float:
    """Net U(1) charge sourced inside a box: the volume integral of J1."""
    if j1.degree != j1.grid.dim or j1.value_type != SCALAR:
        raise ValueError("flux balance needs the top-degree source form")
    return box_integral(j1, volume)
