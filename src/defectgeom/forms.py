"""Exterior calculus on regular grids.

k-form fields live on cell-centered regular grids in dimension 2, 3 or 4.
Coefficients may be plain scalars, frame-vector valued (one set per frame
index a = 1..n) or antisymmetric-frame-matrix valued (stored lower triangle,
reflected on read, so c[a][b] == -c[b][a] holds exactly).

All fields are immutable after construction; every operation returns a new
field and is safe to evaluate concurrently.

Conventions:
  * basis components in lexicographic multi-index order
    (dx^dy before dx^dz before dy^dz, ...), frame index outermost
  * orientation is right-handed with positive volume form dx^dy^dz(^dw)
  * exterior derivative: centered second-order differences in the interior,
    first-order one-sided on boundary faces
  * Hodge star: Euclidean flat metric
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

SCALAR = "scalar"
VECTOR = "vector"
ANTISYM = "antisym"

AXIS_NAMES = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# B-splines
# ---------------------------------------------------------------------------

# An axis of n <= _DENSE_AXIS samples, in an array of n m <= _DENSE_SAMPLES
# samples (m along the other axes), is prefiltered by its dense inverse
# collocation matrix, at n multiply-adds a sample; any other axis by the
# recursive filter, at 4 numpy calls per pole and step along the axis, each
# over the m other samples.
# Per axis on one core, dense against recursive: 0.13 against 0.66 ms for
# n = 128, m = 256; 0.86 against 0.97 ms for 128 by 1024; 4.0 against 2.4 ms
# for 256 by 1024; 4.6 against 3.3 ms for 128 by 4096.
_DENSE_AXIS = 256
_DENSE_SAMPLES = 1 << 17
# numpy's wheels link OpenBLAS, which runs a dgemm of m n k <= 2^18 on one
# thread; with n <= _DENSE_AXIS a block has at least 4 columns, so it is a
# dgemm, not a dgemv. On a 2-core machine whose other core was busy, a
# threaded 128 x 128 product took 12-16 ms, against 0.07 ms on one thread.
# Other BLAS libraries may thread these blocks.
_ONE_THREAD_GEMM = 1 << 18
# (tap, point) pairs per block of points in _map_coordinates
_SPLINE_BLOCK = 1 << 15


def _mirror(x, n: int):
    """x reflected into [0, n - 1] about the first and last sample, which
    are not repeated: the extension has period 2n - 2."""
    period = 2 * n - 2
    x = np.abs(x) % period
    return np.where(x > n - 1, period - x, x)


def _bspline_weights(x: np.ndarray, order: int):
    """(floor(x), weights): the B-spline weights, shape (order + 1, len(x)),
    of the taps floor(x) - order // 2 + k, k = 0..order.

    Each weight is a polynomial in t = x - floor(x), evaluated by Horner's
    rule from its highest power.
    """
    if order == 3:
        powers = ((-1, 3, -3, 1), (3, -6, 3, 0), (-3, 0, 3, 0),
                  (1, 4, 1, 0))
        scale = 6.0
    else:
        powers = ((-1, 5, -10, 10, -5, 1), (5, -20, 30, -20, 5, 0),
                  (-10, 20, 0, -20, 10, 0), (10, 20, -60, 20, 10, 0),
                  (-5, -50, 0, 50, 5, 0), (1, 26, 66, 26, 1, 0))
        scale = 120.0
    base = np.floor(x)
    t = x - base
    coeffs = np.array(powers)[:, :, None] / scale
    w = t * coeffs[0]
    for c in coeffs[1:-1]:
        w += c
        w *= t
    w += coeffs[-1]
    return base.astype(np.intp), w


@lru_cache(maxsize=None)
def _prefilter_matrix(n: int, order: int) -> np.ndarray:
    """The inverse of the n x n mirror-boundary collocation matrix of the
    B-spline of `order`, read-only: it maps n samples to the spline's
    coefficients.

    Row i of the collocation matrix holds the spline's values at sample i
    of the coefficients j, folded onto [0, n) by `_mirror` (Unser, Aldroubi
    and Eden, IEEE Trans. Signal Process. 41 (1993) 821; boundary as in
    Thevenaz, Blu and Unser, IEEE Trans. Med. Imaging 19 (2000) 739).
    """
    r = order // 2
    _, knots = _bspline_weights(np.zeros(1), order)  # the values at -r..r
    i = np.arange(n)
    colloc = np.zeros((n, n))
    for d, b in enumerate(knots[:-1, 0], -r):
        np.add.at(colloc, (i, _mirror(i + d, n)), b)
    inv = np.linalg.inv(colloc)
    inv.setflags(write=False)
    return inv


def _spline_poles(order: int) -> tuple:
    """The poles z, |z| < 1, of the mirror B-spline prefilter of `order`:
    for each root u of the spline's symmetric polynomial in z + 1/z, the
    small root of z^2 - u z + 1, in a form without cancellation."""
    if order == 3:
        us = (-4.0,)
    else:
        us = (math.sqrt(105.0) - 13.0, -math.sqrt(105.0) - 13.0)
    return tuple(2.0 / (u - math.sqrt(u * u - 4.0)) for u in us)


def _recursive_filter(c: np.ndarray, order: int) -> None:
    """Prefilter axis 0 of c (n, m) in place by the causal and anticausal
    recursion of each pole (Unser, Aldroubi and Eden 1993), from the exact
    mirror-boundary initial values that scipy.ndimage also uses.

    The work is a few operations a sample, and no BLAS call, whatever n is.
    """
    n = len(c)
    k = np.arange(n)
    rows = list(c)
    tmp = np.empty(c.shape[1:])
    for z in _spline_poles(order):
        # the causal sum over the mirror extension, of period 2n - 2
        zn = z ** (n - 1)
        fold = z ** k + zn * z ** (n - 1 - k)
        fold[0], fold[-1] = 1.0, zn
        c[0] = np.einsum("k,km->m", fold, c) / (1.0 - zn * zn)
        for prev, row in zip(rows, rows[1:]):
            np.multiply(prev, z, out=tmp)
            np.add(row, tmp, out=row)
        c[-1] = (c[-1] + z * c[-2]) * (z / (z * z - 1.0))
        for nxt, row in zip(rows[:0:-1], rows[-2::-1]):
            np.subtract(nxt, row, out=tmp)
            np.multiply(tmp, z, out=row)
    # the gain last, so that no partial sum overflows where the
    # coefficients do not
    c *= 6.0 if order == 3 else 120.0


def _spline_filter(row: np.ndarray, order: int) -> np.ndarray:
    """Mirror-boundary B-spline coefficients of `order` (3 or 5) of an array
    of 1 to 4 axes of at least 2 samples, with the margins of mirrored
    coefficients that `_map_coordinates` reads: order // 2 before the
    samples and order // 2 + 1 after them on each axis.

    A short axis of a small array is multiplied by its cached inverse
    collocation matrix, in column blocks small enough for OpenBLAS to run on
    one thread; any other axis is filtered by `_recursive_filter`.
    """
    r = order // 2
    coeffs = np.asarray(row, float)
    for ax, n in enumerate(coeffs.shape):
        data = np.moveaxis(coeffs, ax, 0)
        out = np.empty((n + order,) + data.shape[1:])
        cols = out.reshape(n + order, -1)
        if n <= _DENSE_AXIS and coeffs.size <= _DENSE_SAMPLES:
            inv = _prefilter_matrix(n, order)
            flat = data.reshape(n, -1)
            step = _ONE_THREAD_GEMM // inv.size
            for s in range(0, cols.shape[1], step):
                np.matmul(inv, flat[:, s:s + step],
                          out=cols[r:r + n, s:s + step])
        else:
            cols[r:r + n] = data.reshape(n, -1)
            _recursive_filter(cols[r:r + n], order)
        margins = np.r_[:r, r + n:n + order]
        cols[margins] = cols[_mirror(margins - r, n) + r]
        coeffs = np.moveaxis(out, 0, ax)
    return np.ascontiguousarray(coeffs)


def _map_coordinates(splines, coords: np.ndarray, order: int) -> np.ndarray:
    """Values (len(splines), points) at finite index coordinates
    coords (D, points) of splines of one shape from `_spline_filter`.

    A coordinate off its axis is reflected onto it, as the samples are.
    The tap indices and weights are computed once for all the splines, and
    their tensor products a block of points at a time, tap-major so that
    numpy's inner loops run over points; each spline then takes one gather
    and one dot product per point.
    """
    shape = np.shape(splines[0])
    npts = coords.shape[1]
    start = np.zeros(npts, np.intp)
    offsets = np.zeros(1, np.intp)
    weights = []
    for x, n, stride in zip(coords, shape,
                            np.cumprod((1,) + shape[:0:-1])[::-1]):
        n -= order
        if npts and not (x.min() >= 0 and x.max() <= n - 1):
            x = _mirror(x, n)
        base, w = _bspline_weights(x, order)
        start += stride * base
        offsets = (offsets[:, None] + stride * np.arange(order + 1)).ravel()
        weights.append(w)
    flats = [np.ravel(s) for s in splines]
    out = np.empty((len(splines), npts))
    step = max(1, _SPLINE_BLOCK // len(offsets))
    for s in range(0, npts, step):
        weight = weights[0][:, s:s + step]
        for w in weights[1:]:
            w = w[:, s:s + step]
            weight = (weight[:, None] * w).reshape(-1, w.shape[1])
        taps = offsets[:, None] + start[s:s + step]
        for row, coeffs in zip(out, flats):
            np.einsum("kp,kp->p", coeffs.take(taps), weight,
                      out=row[s:s + step])
    return out


# The spline kernel, looked up by name when it runs, so that a stand-in
# bound to `ndimage` in this module sees every prefilter and evaluation.
ndimage = SimpleNamespace(spline_filter=_spline_filter,
                          map_coordinates=_map_coordinates)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Cell-centered regular grid: per-axis [min, max] extents and cell counts."""

    extents: tuple
    resolution: tuple

    def __post_init__(self):
        extents = tuple((float(lo), float(hi)) for lo, hi in self.extents)
        resolution = tuple(int(n) for n in self.resolution)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "resolution", resolution)
        if len(extents) != len(resolution):
            raise ValueError("extents and resolution must have equal length")
        if self.dim not in (2, 3, 4):
            raise ValueError(f"dimension must be 2, 3 or 4, got {self.dim}")
        for (lo, hi), n in zip(extents, resolution):
            if not (np.isfinite(hi - lo) and hi > lo):
                raise ValueError(f"extent [{lo}, {hi}] must have a finite "
                                 "positive length")
            if n < 4:
                raise ValueError(f"resolution {n} < 4")
            if (hi - lo) / n == 0:
                raise ValueError(f"extent [{lo}, {hi}] over {n} cells has "
                                 "zero spacing")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extents, self.resolution))

    def axis_centers(self, i: int) -> np.ndarray:
        lo, hi = self.extents[i]
        h = (hi - lo) / self.resolution[i]
        return lo + (np.arange(self.resolution[i]) + 0.5) * h

    def meshgrid(self) -> tuple:
        axes = [self.axis_centers(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying inside the extents, up to 1e-12."""
        points = np.asarray(points, float)
        ok = np.ones(points.shape[:-1], bool)
        for i, (lo, hi) in enumerate(self.extents):
            ok &= (points[..., i] >= lo - 1e-12) & (points[..., i] <= hi + 1e-12)
        return ok

    def refined(self, factor: int) -> "GridSpec":
        return GridSpec(self.extents, tuple(n * factor for n in self.resolution))


# ---------------------------------------------------------------------------
# multi-index tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def basis_indices(dim: int, degree: int) -> tuple:
    """Sorted multi-indices of the k-form basis, lexicographic order."""
    return tuple(itertools.combinations(range(dim), degree))

@lru_cache(maxsize=None)
def antisym_pairs(n: int) -> tuple:
    """Lower-triangle frame index pairs (a, b) with a > b, row-lex order."""
    return tuple((a, b) for a in range(n) for b in range(a))


def _merge_sign(I: tuple, J: tuple):
    """Sign of sorting the concatenation of two disjoint sorted multi-indices."""
    inv = sum(1 for i in I for j in J if i > j)
    return tuple(sorted(I + J)), (-1) ** inv

@lru_cache(maxsize=None)
def _wedge_plan(dim: int, ka: int, kb: int) -> tuple:
    """Accumulation plan for the scalar wedge of a k_a and a k_b form.

    Contributions are ordered by a key intrinsic to the component pair (not
    to operand position), and mirrored pairs of equal-degree operands are
    fused into a single floating-point expression. That makes graded
    commutativity wedge(a, b) == (-1)^(ka kb) wedge(b, a) hold bit-exactly.
    """
    aidx = basis_indices(dim, ka)
    bidx = basis_indices(dim, kb)
    out = {K: i for i, K in enumerate(basis_indices(dim, ka + kb))}
    if ka == kb:
        rows = []
        for ia, I in enumerate(aidx):
            for ib, J in enumerate(bidx):
                if ib < ia or (set(I) & set(J)):
                    continue
                K, s1 = _merge_sign(I, J)
                s2 = s1 * (-1) ** (ka * kb)
                rows.append((ia, ib, out[K], s1, s2))
        rows.sort(key=lambda t: (t[2], t[0], t[1]))
        return ("sym", tuple(rows))
    rows = []
    for ia, I in enumerate(aidx):
        for ib, J in enumerate(bidx):
            if set(I) & set(J):
                continue
            K, sign = _merge_sign(I, J)
            low = ia if ka < kb else ib
            rows.append((ia, ib, out[K], sign, low))
    rows.sort(key=lambda t: (t[2], t[4]))
    return ("gen", tuple((ia, ib, io, s) for ia, ib, io, s, _ in rows))

@lru_cache(maxsize=None)
def _hodge_table(dim: int, degree: int) -> tuple:
    """(iout, sign) for each input component: *dx^I = sign dx^(complement I)."""
    out = {K: i for i, K in enumerate(basis_indices(dim, dim - degree))}
    table = []
    for I in basis_indices(dim, degree):
        J = tuple(i for i in range(dim) if i not in I)
        _, sign = _merge_sign(I, J)
        table.append((out[J], sign))
    return tuple(table)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class FormField:
    """A k-form field over a GridSpec.

    coefficients layout (C-order float64, frame index outermost):
      scalar  -> (ncomp, *resolution)
      vector  -> (n, ncomp, *resolution)
      antisym -> (n(n-1)/2, ncomp, *resolution), lower-triangle pairs
    with ncomp = C(dim, k).

    Each (frame slot, component) row is stored once, as its invariant slice
    (`_invariant_slice`): length 1 along every axis along which its float64
    bits never change. Every operation works on these rows with numpy
    broadcasting, which gives each grid cell the value the full arrays would
    give. `coeffs` builds the full array.

    `_zero` flags each stored row that is an exact zero: length 1 on every
    axis, with the bits of +0.0 or -0.0. The wedge sums (`_scalar_wedge`,
    `_frame_sum`) compute no product with such a row, as
    `exterior_derivative` differentiates no constant row, and
    `field_theory.field_norms` of a field of only such rows reads no grid.
    That is exact: those accumulators start at +0.0, so in round-to-nearest
    they never hold -0.0, x + (+-0) is x for every x other than -0.0, and a
    stored row is finite, so a product with a zero factor is +-0.
    """

    __slots__ = ("grid", "degree", "value_type", "_rows", "_zero",
                 "_spline_cache")

    def __init__(self, grid: GridSpec, degree: int, value_type: str, coeffs: np.ndarray):
        _check_kind(grid, degree, value_type)
        shape = _coeff_shape(grid, degree, value_type)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != shape:
            raise ValueError(f"coefficient shape {coeffs.shape} != expected {shape}")
        self._set(grid, degree, value_type,
                  coeffs.reshape((-1,) + grid.resolution), copy=True)

    @classmethod
    def _from_rows(cls, grid, degree, value_type, rows) -> "FormField":
        """A field from one array per (frame slot, component) row, each of
        grid.dim axes of full length or 1.

        The rows are fresh results or rows of other fields, so a row that
        is already its own invariant slice is stored without a copy.
        """
        _check_kind(grid, degree, value_type)
        field = cls.__new__(cls)
        field._set(grid, degree, value_type, rows, copy=False)
        return field

    def _set(self, grid, degree, value_type, rows, copy):
        lead = _coeff_shape(grid, degree, value_type)[:-grid.dim]
        if len(rows) != math.prod(lead):
            raise ValueError(f"{len(rows)} rows != expected {lead}")
        shared = _zero_row(grid.dim)
        stored = []
        zero = []
        for row in rows:
            if row is shared:
                stored.append(row)
                zero.append(True)
                continue
            part = _invariant_slice(row)
            if copy or part.size < row.size:
                part = part.copy()
            if part.size == 1:
                value = part.item()
                finite = math.isfinite(value)
                zero.append(value == 0.0)
            else:
                finite = np.isfinite(part).all()
                zero.append(False)
            if not finite:
                raise ValueError("non-finite coefficients")
            part.setflags(write=False)
            stored.append(part)
        self.grid = grid
        self.degree = degree
        self.value_type = value_type
        self._rows = tuple(stored)
        self._zero = tuple(zero)
        self._spline_cache = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec, degree: int, value_type: str = SCALAR) -> "FormField":
        lead = _coeff_shape(grid, degree, value_type)[:-grid.dim]
        return cls._from_rows(grid, degree, value_type,
                              [_zero_row(grid.dim)] * math.prod(lead))

    # -- component access ---------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """The full C-order coefficient array, built from the rows on each
        read; it is read-only."""
        out = np.empty(_coeff_shape(self.grid, self.degree, self.value_type))
        for dst, row in zip(out.reshape((-1,) + self.grid.resolution),
                            self._rows):
            dst[...] = row
        out.setflags(write=False)
        return out

    @property
    def n_frame(self) -> int:
        return self.grid.dim

    @property
    def components(self) -> tuple:
        return basis_indices(self.grid.dim, self.degree)

    def _block(self, index: int) -> tuple:
        """The rows of stored frame slot `index` (0 for a scalar field)."""
        ncomp = len(self.components)
        return self._rows[index * ncomp:(index + 1) * ncomp]

    def _block_zero(self, index: int) -> tuple:
        """The `_zero` flags of the rows of stored frame slot `index`."""
        ncomp = len(self.components)
        return self._zero[index * ncomp:(index + 1) * ncomp]

    def _frame_slot(self, frame):
        """(stored block index, sign) of frame slot a (vector) or (a, b)
        (antisym).

        The slot is sign times stored block `index`; an antisym diagonal has
        sign 0 and no index. Only the lower triangle a > b is stored.
        """
        if self.value_type == VECTOR:
            return int(frame), 1
        a, b = frame
        if a == b:
            return None, 0
        if a > b:
            return a * (a - 1) // 2 + b, 1
        return b * (b - 1) // 2 + a, -1

    # -- arithmetic (pure, grid/degree/type must match) ----------------------

    def _like(self, rows) -> "FormField":
        return FormField._from_rows(self.grid, self.degree, self.value_type,
                                    rows)

    def __add__(self, other: "FormField") -> "FormField":
        self._check_same(other)
        return self._like([x + y for x, y in zip(self._rows, other._rows)])

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_same(other)
        return self._like([x - y for x, y in zip(self._rows, other._rows)])

    def __mul__(self, scalar: float) -> "FormField":
        scalar = float(scalar)
        return self._like([x * scalar for x in self._rows])

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return self._like([-x for x in self._rows])

    def _check_same(self, other):
        if not isinstance(other, FormField):
            raise TypeError("expected FormField")
        if other.grid != self.grid or other.degree != self.degree \
                or other.value_type != self.value_type:
            raise ValueError("field mismatch (grid/degree/value type)")

    # -- point sampling ------------------------------------------------------

    def sample(self, points: np.ndarray, order: int = 5) -> np.ndarray:
        """Spline-interpolated coefficients at physical points.

        Returns an array of shape coeffs.shape[:-dim] + points.shape[:-1].
        The B-spline order is 3 or 5, with mirror boundary, and the points
        must be finite. Order 5 needs at least 6 cells per axis; it falls
        back to 3 below that.
        A coefficient row that is exactly invariant along some axes, such as
        every row of a straight line defect along z, is splined in the lower
        dimension of the other axes: the same values up to rounding, from
        6^2 instead of 6^3 quintic coefficients per point.
        """
        lead = _coeff_shape(self.grid, self.degree, self.value_type)[:-self.grid.dim]
        out = self._sample_rows(points, range(len(self._rows)), order)
        return out.reshape(lead + np.shape(points)[:-1])

    def _sample_rows(self, points, rows, order: int) -> np.ndarray:
        """Spline values of the flattened (frame slot, component) coefficient
        rows `rows` at physical points, shape (len(rows),) + points.shape[:-1].

        Each row is prefiltered on first use and cached per (order, row), so
        rows that are never sampled are never filtered. A row of only +-0
        reads +0.0 without a spline, as the spline of +-0 data gives. A row
        is splined over the axes along which it is stored at full length,
        which is the full spline up to rounding; a constant row reads its
        value. The rows splined over the same axes are evaluated in one
        call, which gives each row the bits of a call of its own.
        """
        if order not in (3, 5):
            raise ValueError(f"spline order must be 3 or 5, got {order!r}")
        points = np.asarray(points, float)
        if points.shape[-1] != self.grid.dim:
            raise ValueError("point dimension mismatch")
        if order > 3 and min(self.grid.resolution) < order + 1:
            order = 3
        idx = np.empty((self.grid.dim, math.prod(points.shape[:-1])))
        for i, h in enumerate(self.grid.spacing):
            idx[i] = ((points[..., i] - self.grid.extents[i][0]) / h
                      - 0.5).ravel()
        if not np.isfinite(idx).all():
            raise ValueError("sample points must be finite")
        out = np.zeros((len(rows), idx.shape[1]))
        groups = {}
        for i, m in enumerate(rows):
            key = (order, m)
            if key not in self._spline_cache:
                row = self._rows[m]
                if not row.any():
                    continue
                axes, row = _varying_axes(row)
                if axes:
                    row = ndimage.spline_filter(row, order)
                self._spline_cache[key] = (axes, row)
            axes, spline = self._spline_cache[key]
            if axes:
                group = groups.setdefault(tuple(axes), ([], []))
                group[0].append(i)
                group[1].append(spline)
            else:
                out[i] = spline
        for axes, (where, splines) in groups.items():
            out[where] = ndimage.map_coordinates(splines, idx[list(axes)],
                                                 order)
        return out.reshape((len(rows),) + points.shape[:-1])

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(x))) for x in self._rows), default=0.0)


def _check_kind(grid: GridSpec, degree: int, value_type: str):
    if not 0 <= degree <= grid.dim:
        raise ValueError(f"degree {degree} out of range for dim {grid.dim}")
    if value_type not in (SCALAR, VECTOR, ANTISYM):
        raise ValueError(f"unknown value type {value_type!r}")


def _coeff_shape(grid: GridSpec, degree: int, value_type: str) -> tuple:
    ncomp = len(basis_indices(grid.dim, degree))
    if value_type == SCALAR:
        lead = (ncomp,)
    elif value_type == VECTOR:
        lead = (grid.dim, ncomp)
    else:
        lead = (grid.dim * (grid.dim - 1) // 2, ncomp)
    return lead + grid.resolution


@lru_cache(maxsize=None)
def _zero_row(dim: int) -> np.ndarray:
    """The read-only +0.0 row of length 1 on every axis, one per dimension.

    `FormField._set` stores this object as a flagged zero by identity, so
    the untouched rows of the accumulators cost no per-row check.
    """
    row = np.zeros((1,) * dim)
    row.setflags(write=False)
    return row


def _invariant_slice(row: np.ndarray) -> np.ndarray:
    """The array sliced to 0:1 along every axis along which it is invariant.

    An axis is sliced only if the float64 bits along it all equal those of
    its first slice, so the array is the slice broadcast back bit for bit;
    +0.0 and -0.0 differ. Most varying axes already differ in their first
    two entries, which are compared before the slices. A row of one value
    is its own slice.
    """
    if row.size == 1:
        return row[...]
    part = row.view(np.uint64)
    for ax in range(row.ndim):
        if part.shape[ax] > 1 and \
                part.item(0) == part.item(math.prod(part.shape[ax + 1:])):
            first = part[(slice(None),) * ax + (slice(0, 1),)]
            if (part == first).all():
                part = first
    return row[tuple(slice(0, n) for n in part.shape)]


def _varying_axes(row: np.ndarray):
    """(axes, values) of a stored row: the axes it is stored at full length
    along, and the row without its other, length-1 axes."""
    axes = [ax for ax, n in enumerate(row.shape) if n > 1]
    return axes, row.reshape([row.shape[ax] for ax in axes])


def identity_coframe(grid: GridSpec) -> FormField:
    """The trivial coframe e^a = dx^a."""
    rows = [np.full((1,) * grid.dim, float(a == c))
            for a in range(grid.dim) for c in range(grid.dim)]
    return FormField._from_rows(grid, 1, VECTOR, rows)


def zero_connection(grid: GridSpec) -> FormField:
    """Vanishing so(n)-valued connection 1-form."""
    return FormField.zeros(grid, 1, ANTISYM)


def require_connection(omega: FormField) -> FormField:
    if omega.degree != 1 or omega.value_type != ANTISYM:
        raise ValueError("connection must be an antisymmetric-matrix-valued 1-form")
    return omega


def require_coframe(e: FormField) -> FormField:
    if e.degree != 1 or e.value_type != VECTOR:
        raise ValueError("coframe must be a frame-vector-valued 1-form")
    return e


# ---------------------------------------------------------------------------
# algebraic operations
# ---------------------------------------------------------------------------

def _scalar_wedge(grid, ka, kb, A, B, za, zb) -> list:
    """Wedge of plain component rows A (C(dim, ka) of them) and B; one row
    per output component, each accumulated from +0.0.

    za and zb flag the exact-zero rows of A and B (`FormField._zero`). A
    product with a flagged factor is not computed: it is +-0 and adds
    nothing to an accumulator, and a fused pair with one such product is
    the other product, by the same argument.
    """
    out = [_zero_row(grid.dim)] * len(basis_indices(grid.dim, ka + kb))
    kind, rows = _wedge_plan(grid.dim, ka, kb)
    if kind == "sym":
        for ia, ib, io, s1, s2 in rows:
            first = not (za[ia] or zb[ib])
            second = ia != ib and not (za[ib] or zb[ia])
            if first and second:
                out[io] = out[io] + (s1 * (A[ia] * B[ib])
                                     + s2 * (A[ib] * B[ia]))
            elif first:
                out[io] = out[io] + s1 * (A[ia] * B[ib])
            elif second:
                out[io] = out[io] + s2 * (A[ib] * B[ia])
    else:
        for ia, ib, io, sign in rows:
            if za[ia] or zb[ib]:
                continue
            if sign == 1:
                out[io] = out[io] + A[ia] * B[ib]
            else:
                out[io] = out[io] - A[ia] * B[ib]
    return out


def _frame_sum(grid, degree: int, value_type: str, terms) -> FormField:
    """Framed wedge: sum of signed scalar wedges between frame slots.

    Each term (row, sign, x, x_slot, y, y_slot) adds
    sign * (x[x_slot] ^ y[y_slot]) to output frame row `row` (row 0 of a
    scalar result), in term order. Slot reflection signs fold into the term
    sign instead of negating a copy; negation is exact, so the bits equal
    those of wedging the reflected blocks. A term whose slot is an antisym
    diagonal, or one of whose blocks has only exact-zero rows, is skipped:
    its wedge is +0.0 (see `_scalar_wedge`).
    """
    lead = _coeff_shape(grid, degree, value_type)[:-grid.dim]
    ncomp = lead[-1]
    out = [[_zero_row(grid.dim)] * ncomp for _ in range(math.prod(lead[:-1]))]
    for row, sign, x, x_slot, y, y_slot in terms:
        xi, xs = x._frame_slot(x_slot)
        yi, ys = y._frame_slot(y_slot)
        sign *= xs * ys
        if sign == 0:
            continue
        zx, zy = x._block_zero(xi), y._block_zero(yi)
        if all(zx) or all(zy):
            continue
        prod = _scalar_wedge(grid, x.degree, y.degree, x._block(xi),
                             y._block(yi), zx, zy)
        out[row] = [acc + p if sign > 0 else acc - p
                    for acc, p in zip(out[row], prod)]
    return FormField._from_rows(grid, degree, value_type,
                                [r for rows in out for r in rows])


def wedge(a: FormField, b: FormField) -> FormField:
    """Pointwise wedge product; the operands' value types fix the frame sum.

      scalar with anything -> plain graded product, valued like the other
      (matrix, vector) -> vector : sum_b M_ab ^ v_b
      (vector, matrix) -> vector : sum_a v_a ^ M_ab
      (vector, vector) -> scalar : sum_a v_a ^ w_a
      (matrix, matrix) -> scalar : sum_ab M_ab ^ N_ba
    The matrix product of two matrices is `antisym_matmul`.
    """
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    grid = a.grid
    k = a.degree + b.degree
    if k > grid.dim:
        raise ValueError(f"wedge degree {k} exceeds dimension {grid.dim}")

    if a.value_type == SCALAR or b.value_type == SCALAR:
        framed = b if a.value_type == SCALAR else a
        nslots = len(framed._rows) // len(framed.components)
        slots = [(0 if a is not framed else m, 0 if b is not framed else m)
                 for m in range(nslots)]
        return FormField._from_rows(grid, k, framed.value_type, [
            r for ma, mb in slots
            for r in _scalar_wedge(grid, a.degree, b.degree, a._block(ma),
                                   b._block(mb), a._block_zero(ma),
                                   b._block_zero(mb))])

    frames = range(grid.dim)
    if a.value_type == ANTISYM and b.value_type == VECTOR:
        return _frame_sum(grid, k, VECTOR, [(fa, 1, a, (fa, fb), b, fb)
                                            for fa in frames for fb in frames])
    if a.value_type == VECTOR and b.value_type == ANTISYM:
        return _frame_sum(grid, k, VECTOR, [(fb, 1, a, fa, b, (fa, fb))
                                            for fb in frames for fa in frames])
    if a.value_type == VECTOR:
        return _frame_sum(grid, k, SCALAR, [(0, 1, a, fa, b, fa)
                                            for fa in frames])
    return _frame_sum(grid, k, SCALAR, [(0, 1, a, (fa, fb), b, (fb, fa))
                                        for fa in frames for fb in frames])


def antisym_matmul(a: FormField, b: FormField) -> FormField:
    """(a ^ b)_ab = sum_c a_ac ^ b_cb for antisym operands, lower triangle direct.

    The result is stored as antisymmetric; that is exact for a ^ a and for
    commutator combinations, which are the only uses in this library.
    """
    if a.value_type != ANTISYM or b.value_type != ANTISYM:
        raise ValueError("antisym_matmul needs matrix-valued operands")
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    grid = a.grid
    k = a.degree + b.degree
    if k > grid.dim:
        raise ValueError("degree overflow")
    n = grid.dim
    return _frame_sum(grid, k, ANTISYM, [(p, 1, a, (fa, fc), b, (fc, fb))
                                         for p, (fa, fb) in enumerate(antisym_pairs(n))
                                         for fc in range(n)])


def exterior_derivative(a: FormField) -> FormField:
    """Finite-difference exterior derivative d.

    Exact for per-axis polynomial coefficients of degree <= 2 in the interior.
    Raising degree above the grid dimension is misuse and raises. A row
    stored at length 1 along the derivative axis is constant along it, so
    its gradient is +0.0 and adds nothing; it is not differentiated.
    """
    grid = a.grid
    if a.degree == grid.dim:
        raise ValueError("d of a top-degree form leaves the form algebra; "
                         "there is no degree dim+1")
    k = a.degree
    in_idx = {I: i for i, I in enumerate(basis_indices(grid.dim, k))}
    h = grid.spacing
    rows = []
    for s in range(len(a._rows) // len(in_idx)):
        src = a._block(s)
        for K in basis_indices(grid.dim, k + 1):
            acc = _zero_row(grid.dim)
            for pos, j in enumerate(K):
                row = src[in_idx[K[:pos] + K[pos + 1:]]]
                if row.shape[j] == 1:
                    continue
                grad = np.gradient(row, h[j], axis=j, edge_order=1)
                acc = acc + grad if pos % 2 == 0 else acc - grad
            rows.append(acc)
    return FormField._from_rows(grid, k + 1, a.value_type, rows)


def hodge_star(a: FormField) -> FormField:
    """Euclidean Hodge dual; orientation dx^dy^dz(^dw) positive."""
    grid = a.grid
    table = _hodge_table(grid.dim, a.degree)
    rows = [None] * len(a._rows)
    for s in range(0, len(rows), len(table)):
        for ii, (io, sign) in enumerate(table):
            row = a._rows[s + ii]
            rows[s + io] = row if sign > 0 else -row
    return FormField._from_rows(grid, grid.dim - a.degree, a.value_type, rows)


def interior_product(v: np.ndarray, a: FormField) -> FormField:
    """Contraction with a vector field v (constant (dim,) or (dim, *res) array).

    Each output row accumulates its signed products v_j * a_I from +0.0, row
    by row like `exterior_derivative`.
    """
    grid = a.grid
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    v = np.asarray(v, float)
    if v.shape != (grid.dim,) and v.shape != (grid.dim,) + grid.resolution:
        raise ValueError("vector field shape mismatch")
    in_idx = {I: i for i, I in enumerate(basis_indices(grid.dim, a.degree))}
    rows = []
    for s in range(len(a._rows) // len(in_idx)):
        src = a._block(s)
        for K in basis_indices(grid.dim, a.degree - 1):
            acc = _zero_row(grid.dim)
            for j in range(grid.dim):
                if j in K:
                    continue
                I, _ = _merge_sign(K, (j,))
                term = v[j] * src[in_idx[I]]
                acc = acc + term if I.index(j) % 2 == 0 else acc - term
            rows.append(acc)
    return FormField._from_rows(grid, a.degree - 1, a.value_type, rows)


def covariant_exterior_derivative(a: FormField, omega: FormField) -> FormField:
    """D a = d a + omega-action, for frame-vector or antisym-matrix fields.

    vector:  (Da)_a = da_a + sum_b omega_ab ^ a_b
    matrix:  (Da)_ab = da_ab + sum_c (omega_ac ^ a_cb - a_ac ^ omega_cb)
    """
    require_connection(omega)
    if a.grid != omega.grid:
        raise ValueError("grid mismatch")
    if a.value_type == SCALAR:
        raise ValueError("covariant derivative needs a framed field "
                         "(no frame index to act on)")
    d = exterior_derivative(a)
    if a.value_type == VECTOR:
        return d + wedge(omega, a)
    n = a.grid.dim
    # the omega-term, then the a-term, for each (pair, c): this order fixes
    # the rounding of the sum
    comm = _frame_sum(a.grid, a.degree + 1, ANTISYM,
                      [term for p, (fa, fb) in enumerate(antisym_pairs(n))
                       for fc in range(n)
                       for term in ((p, 1, omega, (fa, fc), a, (fc, fb)),
                                    (p, -1, a, (fa, fc), omega, (fc, fb)))])
    return d + comm


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

SURFACE_RESOLUTION = 64


def _check_resolution(resolution):
    if not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise ValueError(f"resolution must be an integer >= 1, got "
                         f"{resolution!r}")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order n on [0, 1], read-only.

    numpy.polynomial is not loaded by `import numpy`, so it is imported on
    the first surface integral rather than with this module.
    """
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    u, wu = (x + 1) / 2, w / 2
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def _quadrature(a: FormField, points, weights):
    """Weighted sum of a's quintic-spline components at `points`.

    weights has shape (ncomp, npts) and already holds the quadrature rule:
    the surface Jacobian of each basis 2-form or the loop velocity along each
    axis, times the weight of each point. Components whose weight is zero at
    every point add exact zeros, so they are not sampled; on a z-normal disk
    or circle that skips every dz component. The result is shaped by the
    value type, as `integrate_surface` documents.
    """
    ncomp = weights.shape[0]
    keep = np.flatnonzero(np.any(weights != 0, axis=1))
    nslots = len(a._rows) // ncomp
    rows = (np.arange(nslots)[:, None] * ncomp + keep).ravel()
    vals = a._sample_rows(points, rows, 5)
    dens = np.einsum("scp,cp->sp", vals.reshape(nslots, len(keep), -1),
                     weights[keep])
    total = dens.sum(axis=-1)
    if a.value_type == SCALAR:
        return float(total[0])
    if a.value_type == VECTOR:
        return total
    n = a.grid.dim
    mat = np.zeros((n, n))
    for p, (fa, fb) in enumerate(antisym_pairs(n)):
        mat[fa, fb] = total[p]
        mat[fb, fa] = -total[p]
    return mat


def integrate_surface(a: FormField, surface,
                      resolution: int = SURFACE_RESOLUTION):
    """Integral of a 2-form over a parametrized surface.

    The surface provides sample points and analytic tangents on the unit
    parameter square (see geometry module). The rule is Gauss-Legendre with
    `resolution` nodes in u and the periodic midpoint rule with
    2 * `resolution` angles in w: on a disk, whose integrand is analytic in
    the radius and periodic in the angle, both converge geometrically.
    Scalar fields return a float, frame-vector fields an (n,) array and
    matrix fields an (n, n) antisymmetric array.
    """
    if a.degree != 2:
        raise ValueError("surface integration needs a 2-form")
    _check_resolution(resolution)
    u, wu = _gauss_legendre(resolution)
    w = (np.arange(2 * resolution) + 0.5) / (2 * resolution)
    points, tu, tw = (np.reshape(x, (-1, np.shape(x)[-1])) for x in
                      surface.points_and_tangents(u[:, None], w[None, :]))
    if not np.all(a.grid.contains(points)):
        raise ValueError("surface exits grid extents")
    weight = np.repeat(wu / (2 * resolution), 2 * resolution)
    jac = np.array([(tu[:, i] * tw[:, j] - tu[:, j] * tw[:, i]) * weight
                    for i, j in a.components])
    return _quadrature(a, points, jac)


def integrate_loop(a: FormField, loop, resolution: int = 512):
    """Midpoint-rule integral of a 1-form over one period of a closed curve."""
    if a.degree != 1:
        raise ValueError("loop integration needs a 1-form")
    if not loop.is_closed():
        raise ValueError("curve is not closed")
    _check_resolution(resolution)
    t = (np.arange(resolution) + 0.5) / resolution
    points, vel = loop.points_and_velocity(t)
    if not np.all(a.grid.contains(points)):
        raise ValueError("loop exits grid extents")
    return _quadrature(a, points, np.asarray(vel).T) / resolution

