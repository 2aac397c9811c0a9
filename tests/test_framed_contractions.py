"""Framed contractions against the per-loop reference, byte for byte.

The framed `wedge` sums, `antisym_matmul`, the covariant
exterior derivative and the spin-balance residual all accumulate through one
signed frame-slot helper. The reference below is the explicit frame-index
loop each of them used before: wedge the sign-reflected blocks
(`_ref_block` negates a copy) and add in loop order. Results are compared
with `tobytes()`, so even the sign of a zero must agree.

A field stores each (frame slot, component) row as its invariant slice,
at length 1 along the axes its bits do not vary along. The kernels do not
differentiate a row along an axis it is constant along, compute no wedge
product with an exact-zero row (`zero_products_counted` checks that) and
read +0.0 for +-0 sample rows. The references never skip: they wedge every
full block, differentiate every full row in one stacked gradient and spline
every row over all its axes, in a spline-kernel call of its own.

Whole-field `+`, `-`, scalar `*` and `hodge_star` are compared with the
plain numpy expressions on rows that are all +0.0, all -0.0, mixed +-0 or
values, and each result row with the invariant slice of its full row.

Sample rows that are exactly invariant along some axes are splined on a
slice over the other axes. That moves values at rounding level, so those
rows are held to a bound against the full splines; a row one ulp away from
invariance takes the full spline and is compared byte for byte.
"""

import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from defectgeom import forms
from defectgeom.defects import CartanFields
from defectgeom.field_theory import Couplings, el_connection_residual
from defectgeom.forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    _coeff_shape,
    _hodge_table,
    _invariant_slice,
    _merge_sign,
    _scalar_wedge,
    _wedge_plan,
    antisym_matmul,
    antisym_pairs,
    basis_indices,
    covariant_exterior_derivative,
    exterior_derivative,
    hodge_star,
    wedge,
)


# ---------------------------------------------------------------------------
# reference: the explicit frame-index loops
# ---------------------------------------------------------------------------

def ref_exterior_derivative(a):
    """d with every source row differentiated, one gradient per component."""
    grid = a.grid
    k = a.degree
    in_idx = {I: i for i, I in enumerate(basis_indices(grid.dim, k))}
    out_components = basis_indices(grid.dim, k + 1)
    flat = a.coeffs.reshape((-1, len(in_idx)) + grid.resolution)
    out = np.zeros((flat.shape[0], len(out_components)) + grid.resolution)
    for io, K in enumerate(out_components):
        for pos, j in enumerate(K):
            grad = np.gradient(flat[:, in_idx[K[:pos] + K[pos + 1:]]],
                               grid.spacing[j], axis=1 + j, edge_order=1)
            if pos % 2 == 0:
                out[:, io] += grad
            else:
                out[:, io] -= grad
    return FormField(grid, k + 1, a.value_type,
                     out.reshape(_coeff_shape(grid, k + 1, a.value_type)))


def ref_scalar_wedge(grid, ka, kb, A, B):
    """The scalar wedge of full component stacks, as one full array; no row
    is flagged as an exact zero, so every product is computed."""
    unflagged = (False,) * len(A), (False,) * len(B)
    return np.stack([np.broadcast_to(row, grid.resolution)
                     for row in _scalar_wedge(grid, ka, kb, A, B,
                                              *unflagged)])


def _ref_block(f, a, b=None):
    """Frame slot read straight from storage, reflected antisym as a copy."""
    if f.value_type == VECTOR:
        return f.coeffs[a]
    if a == b:
        return np.zeros(f.coeffs.shape[1:])
    pairs = antisym_pairs(f.n_frame)
    if a > b:
        return f.coeffs[pairs.index((a, b))]
    return -f.coeffs[pairs.index((b, a))]


def ref_wedge(a, b):
    grid = a.grid
    n = grid.dim
    k = a.degree + b.degree
    ncomp = len(basis_indices(n, k))

    def sw(A, B):
        return ref_scalar_wedge(grid, a.degree, b.degree, A, B)

    if a.value_type == SCALAR and b.value_type == SCALAR:
        return FormField(grid, k, SCALAR, sw(a.coeffs, b.coeffs))
    if a.value_type == SCALAR:
        return FormField(grid, k, b.value_type,
                         np.stack([sw(a.coeffs, B) for B in b.coeffs]))
    if b.value_type == SCALAR:
        return FormField(grid, k, a.value_type,
                         np.stack([sw(A, b.coeffs) for A in a.coeffs]))
    if a.value_type == ANTISYM and b.value_type == VECTOR:
        out = np.zeros((n, ncomp) + grid.resolution)
        for fa in range(n):
            for fb in range(n):
                if fa == fb:
                    continue
                out[fa] += sw(_ref_block(a, fa, fb), b.coeffs[fb])
        return FormField(grid, k, VECTOR, out)
    if a.value_type == VECTOR and b.value_type == ANTISYM:
        out = np.zeros((n, ncomp) + grid.resolution)
        for fb in range(n):
            for fa in range(n):
                if fa == fb:
                    continue
                out[fb] += sw(a.coeffs[fa], _ref_block(b, fa, fb))
        return FormField(grid, k, VECTOR, out)
    out = np.zeros((ncomp,) + grid.resolution)
    if a.value_type == VECTOR:
        for fa in range(n):
            out += sw(a.coeffs[fa], b.coeffs[fa])
        return FormField(grid, k, SCALAR, out)
    for fa in range(n):
        for fb in range(n):
            if fa == fb:
                continue
            out += sw(_ref_block(a, fa, fb), _ref_block(b, fb, fa))
    return FormField(grid, k, SCALAR, out)


def ref_antisym_matmul(a, b):
    grid = a.grid
    n = grid.dim
    k = a.degree + b.degree
    out = np.zeros((n * (n - 1) // 2, len(basis_indices(n, k))) + grid.resolution)
    for p, (fa, fb) in enumerate(antisym_pairs(n)):
        for fc in range(n):
            if fc == fa or fc == fb:
                continue
            out[p] += ref_scalar_wedge(grid, a.degree, b.degree,
                                       _ref_block(a, fa, fc),
                                       _ref_block(b, fc, fb))
    return FormField(grid, k, ANTISYM, out)


def ref_covariant(a, omega):
    d = ref_exterior_derivative(a)
    if a.value_type == VECTOR:
        return d + ref_wedge(omega, a)
    grid = a.grid
    n = grid.dim
    k = a.degree + 1
    out = np.zeros((n * (n - 1) // 2, len(basis_indices(n, k))) + grid.resolution)
    for p, (fa, fb) in enumerate(antisym_pairs(n)):
        for fc in range(n):
            if fc != fa:
                out[p] += ref_scalar_wedge(grid, 1, a.degree,
                                           _ref_block(omega, fa, fc),
                                           _ref_block(a, fc, fb))
            if fc != fb:
                out[p] -= ref_scalar_wedge(grid, a.degree, 1,
                                           _ref_block(a, fa, fc),
                                           _ref_block(omega, fc, fb))
    return d + FormField(grid, k, ANTISYM, out)


def ref_spin_balance(e, omega, c):
    """Field of the spin-balance residual D(*R) + kappa (e^*T - e^*T)."""
    grid = e.grid
    t = ref_covariant(e, omega)
    r = ref_exterior_derivative(omega) + ref_antisym_matmul(omega, omega)
    dstar = ref_covariant(hodge_star(r), omega)
    st = hodge_star(t)
    n = grid.dim
    k = 1 + st.degree
    anti = np.zeros((n * (n - 1) // 2, len(basis_indices(n, k))) + grid.resolution)
    for p, (fa, fb) in enumerate(antisym_pairs(n)):
        anti[p] = ref_scalar_wedge(grid, 1, st.degree, e.coeffs[fa],
                                   st.coeffs[fb]) \
            - ref_scalar_wedge(grid, 1, st.degree, e.coeffs[fb], st.coeffs[fa])
    return dstar + c.kappa_el * FormField(grid, k, ANTISYM, anti)


# ---------------------------------------------------------------------------
# random framed fields with planted zeros
# ---------------------------------------------------------------------------

def _grid(dim):
    return GridSpec([(0.0, 1.0)] * dim, [4] * dim)


def rand_field(rng, grid, degree, value_type):
    """Normal or small-integer values (integers cancel exactly), with planted
    +0.0 and -0.0 entries and, sometimes, a whole zero frame slot."""
    shape = _coeff_shape(grid, degree, value_type)
    if rng.random() < 0.5:
        c = rng.normal(size=shape)
    else:
        c = rng.integers(-2, 3, size=shape).astype(float)
    u = rng.random(shape)
    c[u < 0.15] = 0.0
    c[(u >= 0.15) & (u < 0.3)] = -0.0
    if value_type != SCALAR and rng.random() < 0.3:
        c[rng.integers(shape[0])] = rng.choice([0.0, -0.0])
    return FormField(grid, degree, value_type, c)


def planted_field(rng, grid, degree, value_type):
    """rand_field with exact-zero rows planted, stored at length 1 on every
    axis: a whole +0.0 or -0.0 frame slot, and, among the other (frame slot,
    component) rows, one all +0.0, one all -0.0 and one of only negative
    values (nonzero, though its maximum is below 0)."""
    c = np.array(rand_field(rng, grid, degree, value_type).coeffs)
    lead = c.shape[:c.ndim - grid.dim]
    rows = c.reshape((-1,) + grid.resolution)
    order = rng.permutation(len(rows))
    if value_type != SCALAR and lead[0] > 1:
        slot = rng.integers(lead[0])
        c[slot] = rng.choice([0.0, -0.0])
        order = order[order // lead[1] != slot]
    fills = (0.0, -0.0, -0.5 - rng.random(grid.resolution))
    for m, fill in zip(order, fills):
        rows[m] = fill
    return FormField(grid, degree, value_type, c)


def _same_bytes(got, want):
    assert got.degree == want.degree and got.value_type == want.value_type
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def assert_rows_are_invariant_slices(f):
    """Each stored row is the invariant slice of its full row, in shape
    and in bytes."""
    full = f.coeffs.reshape((-1,) + f.grid.resolution)
    assert len(f._rows) == len(full)
    for row, values in zip(f._rows, full):
        want = _invariant_slice(values)
        assert row.shape == want.shape and row.tobytes() == want.tobytes()


class _ReadLog:
    """A block of rows that counts reads of its flagged exact-zero rows."""

    def __init__(self, rows, zero, counts):
        self.rows, self.zero, self.counts = rows, zero, counts

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        self.counts["zero_reads"] += self.zero[i]
        return self.rows[i]


@contextmanager
def zero_products_counted():
    """Count, while active, the wedge products with an exact-zero factor
    and check that none of them is computed.

    "calls" counts the `_scalar_wedge` calls and "products" the products of
    their wedge plans; "skipped" those with a factor flagged in `_zero`,
    which the kernel must not compute, and "zero_reads" the flagged rows it
    indexed, which must stay 0. "dropped" counts the framed terms that
    `forms._frame_sum`, called through its name in `forms`, drops whole
    because a block has only flagged rows; each such frame sum must call
    the kernel once per term it keeps.
    """
    counts = dict.fromkeys(
        ("calls", "products", "skipped", "zero_reads", "dropped"), 0)

    def counting_wedge(grid, ka, kb, A, B, za, zb):
        kind, plan = _wedge_plan(grid.dim, ka, kb)
        for ia, ib, *_ in plan:
            pairs = {(ia, ib), (ib, ia)} if kind == "sym" else {(ia, ib)}
            counts["products"] += len(pairs)
            counts["skipped"] += sum(za[i] or zb[j] for i, j in pairs)
        counts["calls"] += 1
        return scalar_wedge(grid, ka, kb, _ReadLog(A, za, counts),
                            _ReadLog(B, zb, counts), za, zb)

    def counting_frame_sum(grid, degree, value_type, terms):
        terms = list(terms)
        live = dropped = 0
        for _, sign, x, x_slot, y, y_slot in terms:
            (xi, xs), (yi, ys) = x._frame_slot(x_slot), y._frame_slot(y_slot)
            if sign * xs * ys == 0:
                continue
            if all(x._block_zero(xi)) or all(y._block_zero(yi)):
                dropped += 1
            else:
                live += 1
        calls = counts["calls"]
        out = frame_sum(grid, degree, value_type, terms)
        assert counts["calls"] - calls == live
        counts["dropped"] += dropped
        return out

    scalar_wedge, frame_sum = forms._scalar_wedge, forms._frame_sum
    with mock.patch.object(forms, "_scalar_wedge", counting_wedge), \
            mock.patch.object(forms, "_frame_sum", counting_frame_sum):
        yield counts


def _degree_pairs(dim):
    return [(ka, kb) for ka in range(dim + 1) for kb in range(dim + 1 - ka)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_framed_wedge_matches_loops(dim):
    rng = np.random.default_rng(100 + dim)
    grid = _grid(dim)
    cases = [(ANTISYM, VECTOR), (VECTOR, ANTISYM), (VECTOR, VECTOR),
             (ANTISYM, ANTISYM)]
    for ka, kb in _degree_pairs(dim):
        for ta, tb in cases:
            for _ in range(3):
                a = rand_field(rng, grid, ka, ta)
                b = rand_field(rng, grid, kb, tb)
                _same_bytes(wedge(a, b), ref_wedge(a, b))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_antisym_matmul_matches_loops(dim):
    rng = np.random.default_rng(200 + dim)
    grid = _grid(dim)
    for ka, kb in _degree_pairs(dim):
        for _ in range(3):
            a = rand_field(rng, grid, ka, ANTISYM)
            b = rand_field(rng, grid, kb, ANTISYM)
            _same_bytes(antisym_matmul(a, b), ref_antisym_matmul(a, b))
        if 2 * ka <= dim:
            _same_bytes(antisym_matmul(a, a), ref_antisym_matmul(a, a))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_covariant_derivative_matches_loops(dim):
    rng = np.random.default_rng(300 + dim)
    grid = _grid(dim)
    for degree in range(dim):
        for value_type in (VECTOR, ANTISYM):
            for _ in range(3):
                a = rand_field(rng, grid, degree, value_type)
                omega = rand_field(rng, grid, 1, ANTISYM)
                _same_bytes(covariant_exterior_derivative(a, omega),
                            ref_covariant(a, omega))


def test_spin_balance_matches_loops():
    rng = np.random.default_rng(400)
    grid = _grid(4)
    c = Couplings(alpha=1.3, beta=0.7, gamma=0.9)
    for _ in range(4):
        e = rand_field(rng, grid, 1, VECTOR)
        omega = rand_field(rng, grid, 1, ANTISYM)
        got = el_connection_residual(CartanFields(e, omega), c).field
        _same_bytes(got, ref_spin_balance(e, omega, c))


# ---------------------------------------------------------------------------
# planted zero rows against the unskipped references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_zero_block_skips_match_unskipped_references(dim):
    rng = np.random.default_rng(600 + dim)
    grid = _grid(dim)
    for ka, kb in _degree_pairs(dim):
        for ta, tb in [(ANTISYM, VECTOR), (VECTOR, ANTISYM), (VECTOR, VECTOR),
                       (ANTISYM, ANTISYM)]:
            a = planted_field(rng, grid, ka, ta)
            b = planted_field(rng, grid, kb, tb)
            for f in (a, b):
                assert_rows_are_invariant_slices(f)
                assert any(r.size == 1 and not r.any() for r in f._rows)
            _same_bytes(wedge(a, b), ref_wedge(a, b))
            if ta == tb == ANTISYM:
                _same_bytes(antisym_matmul(a, b), ref_antisym_matmul(a, b))
    for degree in range(dim):
        for value_type in (SCALAR, VECTOR, ANTISYM):
            a = planted_field(rng, grid, degree, value_type)
            _same_bytes(exterior_derivative(a), ref_exterior_derivative(a))
            if value_type != SCALAR:
                omega = planted_field(rng, grid, 1, ANTISYM)
                _same_bytes(covariant_exterior_derivative(a, omega),
                            ref_covariant(a, omega))


@pytest.mark.parametrize("order", [3, 5])
def test_zero_sample_rows_match_unskipped_splines(order):
    rng = np.random.default_rng(700 + order)
    grid = GridSpec([(0.0, 1.0), (-1.0, 0.5), (0.0, 2.0)], [7, 6, 8])
    lo = np.array([e[0] for e in grid.extents])
    hi = np.array([e[1] for e in grid.extents])
    points = np.concatenate([rng.uniform(lo, hi, size=(40, 3)), [lo, hi]])
    idx = ((points - lo) / grid.spacing - 0.5).T
    for value_type in (VECTOR, ANTISYM):
        f = planted_field(rng, grid, 2, value_type)
        flat = f.coeffs.reshape((-1,) + grid.resolution)
        want = _full_splines(flat, idx, order)
        assert_rows_are_invariant_slices(f)
        zero = np.array([not r.any() for r in f._rows])
        # splines of +-0 data read +0.0, which the skipped rows write
        assert zero.any() and not np.signbit(want[zero]).any()
        rows = np.arange(len(flat))
        assert f._sample_rows(points, rows, order).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# whole-field +, -, scalar * and Hodge star against plain numpy
# ---------------------------------------------------------------------------

ROW_KINDS = ("+0", "-0", "mixed", "values")


def row_kinds_field(rng, grid, degree, value_type, kinds):
    """Field whose (frame slot, component) row m is all +0.0, all -0.0, a
    random mix of +0.0 and -0.0, or rand_field values, by kinds[m]."""
    c = np.array(rand_field(rng, grid, degree, value_type).coeffs)
    rows = c.reshape((-1,) + grid.resolution)
    for row, kind in zip(rows, kinds):
        if kind == "+0":
            row[...] = 0.0
        elif kind == "-0":
            row[...] = -0.0
        elif kind == "mixed":
            row[...] = np.where(rng.random(grid.resolution) < 0.5, 0.0, -0.0)
    return FormField(grid, degree, value_type, c)


def ref_hodge_star(a):
    """The Hodge star with every row written, as sign * row."""
    grid = a.grid
    table = _hodge_table(grid.dim, a.degree)
    flat = a.coeffs.reshape((-1, len(table)) + grid.resolution)
    out = np.empty_like(flat)
    for ii, (io, sign) in enumerate(table):
        out[:, io] = sign * flat[:, ii]
    k = grid.dim - a.degree
    return FormField(grid, k, a.value_type,
                     out.reshape(_coeff_shape(grid, k, a.value_type)))


def ref_interior_product(v, a):
    """The contraction on full arrays: each output component accumulated
    in place from +0.0 over the whole grid and every frame slot at once."""
    grid = a.grid
    v = np.asarray(v, float)
    comps = [np.broadcast_to(v[j], grid.resolution) for j in range(grid.dim)]
    in_idx = {I: i for i, I in enumerate(basis_indices(grid.dim, a.degree))}
    out_components = basis_indices(grid.dim, a.degree - 1)
    flat = a.coeffs.reshape((-1, len(in_idx)) + grid.resolution)
    out = np.zeros((flat.shape[0], len(out_components)) + grid.resolution)
    for io, K in enumerate(out_components):
        for j in range(grid.dim):
            if j in K:
                continue
            I, _ = _merge_sign(K, (j,))
            term = comps[j] * flat[:, in_idx[I]]
            if I.index(j) % 2 == 0:
                out[:, io] += term
            else:
                out[:, io] -= term
    shape = _coeff_shape(grid, a.degree - 1, a.value_type)
    return FormField(grid, a.degree - 1, a.value_type, out.reshape(shape))


def _operand_pairs(rng, dim):
    """(a, b) pairs of every degree and value type whose rows run through
    every pair of row kinds in turn."""
    grid = _grid(dim)
    pairs = list(itertools.product(ROW_KINDS, repeat=2))
    count = 0
    for degree in range(dim + 1):
        for value_type in (SCALAR, VECTOR, ANTISYM):
            lead = _coeff_shape(grid, degree, value_type)[:-dim]
            kinds = [pairs[(count + m) % len(pairs)]
                     for m in range(int(np.prod(lead)))]
            count += len(kinds)
            yield (row_kinds_field(rng, grid, degree, value_type,
                                   [k[0] for k in kinds]),
                   row_kinds_field(rng, grid, degree, value_type,
                                   [k[1] for k in kinds]))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_add_and_sub_match_numpy(dim):
    for a, b in _operand_pairs(np.random.default_rng(900 + dim), dim):
        for got, want in ((a + b, a.coeffs + b.coeffs),
                          (a - b, a.coeffs - b.coeffs),
                          (b - a, b.coeffs - a.coeffs)):
            assert got.coeffs.tobytes() == want.tobytes()
            assert_rows_are_invariant_slices(got)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_scalar_multiple_matches_numpy(dim):
    for a, _ in _operand_pairs(np.random.default_rng(910 + dim), dim):
        for s in (0.0, -0.0, 1.0, 2.5, -1.0, -3.25, 1e-310, -1e-310):
            for got in (a * s, s * a):
                assert got.coeffs.tobytes() == (a.coeffs * s).tobytes()
                assert_rows_are_invariant_slices(got)


@pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
def test_non_finite_scalar_multiple_raises(s):
    rng = np.random.default_rng(920)
    grid = _grid(3)
    zero = [FormField.zeros(grid, 1, VECTOR),
            row_kinds_field(rng, grid, 2, ANTISYM, ["+0"] * 9)]
    for a in zero + [b for b, _ in _operand_pairs(rng, 3)]:
        with np.errstate(invalid="ignore"):     # inf * 0 is NaN
            with pytest.raises(ValueError, match="non-finite coefficients"):
                a * s
            with pytest.raises(ValueError, match="non-finite coefficients"):
                s * a


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hodge_star_matches_numpy(dim):
    for a, b in _operand_pairs(np.random.default_rng(930 + dim), dim):
        for f in (a, b, a * -1.0):
            got = hodge_star(f)
            _same_bytes(got, ref_hodge_star(f))
            assert_rows_are_invariant_slices(got)


# ---------------------------------------------------------------------------
# invariant-axis splines against the full-dimensional splines
# ---------------------------------------------------------------------------

def _spline_setup(rng):
    grid = GridSpec([(0.0, 1.0), (-1.0, 0.5), (0.0, 2.0)], [7, 6, 8])
    lo = np.array([e[0] for e in grid.extents])
    hi = np.array([e[1] for e in grid.extents])
    points = np.concatenate([rng.uniform(lo, hi, size=(40, 3)), [lo, hi]])
    idx = ((points - lo) / grid.spacing - 0.5).T
    return grid, points, idx


def _invariant_rows(rng, grid):
    """Vector 1-form rows in turn invariant along z, along x and z, and
    along every axis (a nonzero constant), with magnitudes 1e-3 to 1e3."""
    nx, ny, _ = grid.resolution
    c = np.empty(_coeff_shape(grid, 1, VECTOR))
    rows = c.reshape((-1,) + grid.resolution)
    for m in range(len(rows)):
        shape = ((nx, ny, 1), (1, ny, 1), (1, 1, 1))[m % 3]
        rows[m] = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    return c, rows


def _full_splines(rows, idx, order):
    """Every row splined over all its axes, one kernel call per row."""
    kernel = forms.ndimage
    return np.stack([kernel.map_coordinates(
        [kernel.spline_filter(row, order)], idx, order)[0] for row in rows])


@pytest.mark.parametrize("order", [3, 5])
def test_invariant_sample_rows_match_full_splines(order):
    """Rows invariant along z, or along x and z, are splined on the slice of
    their other axes and stay within 64 eps max|row| of the 3D spline."""
    rng = np.random.default_rng(800 + order)
    grid, points, idx = _spline_setup(rng)
    c, rows = _invariant_rows(rng, grid)
    f = FormField(grid, 1, VECTOR, c)
    got = f._sample_rows(points, np.arange(len(rows)), order)
    want = _full_splines(rows, idx, order)
    assert [f._spline_cache[(order, m)][0] for m in range(len(rows))] \
        == [[0, 1], [1], []] * 3
    eps = np.finfo(float).eps
    for g, w, row in zip(got, want, rows):
        assert np.max(np.abs(g - w)) <= 64 * eps * np.max(np.abs(row))


@pytest.mark.parametrize("order", [3, 5])
def test_constant_sample_row_reads_its_value(order):
    rng = np.random.default_rng(810 + order)
    grid, points, _ = _spline_setup(rng)
    c, rows = _invariant_rows(rng, grid)
    f = FormField(grid, 1, VECTOR, c)
    got = f._sample_rows(points, [2, 5, 8], order)
    assert got.tobytes() == np.repeat(rows[[2, 5, 8], 0, 0, :1],
                                      len(points), axis=1).tobytes()


@pytest.mark.parametrize("order", [3, 5])
def test_one_ulp_from_invariant_keeps_full_splines(order):
    """One z cell moved by one ulp makes a row vary along z: it is splined
    over every axis and matches the 3D spline byte for byte."""
    rng = np.random.default_rng(820 + order)
    grid, points, idx = _spline_setup(rng)
    c, rows = _invariant_rows(rng, grid)
    for row in rows:
        cell = tuple(rng.integers(grid.resolution))
        row[cell] = np.nextafter(row[cell], np.inf)
    f = FormField(grid, 1, VECTOR, c)
    got = f._sample_rows(points, np.arange(len(rows)), order)
    assert all(f._spline_cache[(order, m)][0] == [0, 1, 2]
               for m in range(len(rows)))
    assert got.tobytes() == _full_splines(rows, idx, order).tobytes()
