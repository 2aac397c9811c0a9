"""Property tests over random dimensions, degrees and values (Hypothesis).

Graded commutativity of `wedge` must hold bit for bit, for the plain product
and for every framed sum: the wedge plan fuses mirrored component pairs,
and each framed sum adds its frame terms in the same order for both operand
orders. The double Hodge star is an exact sign flip for every value type.
Whole-field +, -, scalar * and the Hodge star give the bytes of the plain
numpy expressions, and reject exactly the non-finite ones.
The finite-difference d squares to zero up to rounding and obeys the Leibniz
rule in the interior for polynomials it differentiates exactly.
A reconnection ledger is exact on dyadic charges and otherwise drifts by at
most its rounding bound. A zero boundary margin keeps every cell along its
axis.
"""

import itertools
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectgeom.field_theory import embed_static_4d, interior_mask
from defectgeom.forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    _coeff_shape,
    _hodge_table,
    antisym_matmul,
    antisym_pairs,
    covariant_exterior_derivative,
    exterior_derivative,
    hodge_star,
    interior_product,
    wedge,
)
from defectgeom.network import charge_ledger, reconnect
from test_framed_contractions import (
    assert_rows_are_invariant_slices,
    ref_antisym_matmul,
    ref_covariant,
    ref_exterior_derivative,
    ref_hodge_star,
    ref_interior_product,
    ref_wedge,
    zero_products_counted,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True, database=None)

# finite values whose pairwise products and short sums stay finite; zeros of
# both signs and subnormals included
VALUES = st.lists(st.floats(min_value=-1e100, max_value=1e100,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=6)


@st.composite
def degree_pairs(draw):
    dim = draw(st.integers(2, 4))
    ka = draw(st.integers(0, dim))
    kb = draw(st.integers(0, dim - ka))
    return dim, ka, kb


def _field(grid, degree, value_type, pool, rng):
    """Field whose entries are drawn from `pool`, 4 cells per axis."""
    shape = _coeff_shape(grid, degree, value_type)
    return FormField(grid, degree, value_type, rng.choice(pool, size=shape))


def _operands(dims, values, seed, ta, tb):
    dim, ka, kb = dims
    grid = GridSpec([(0.0, 1.0)] * dim, [4] * dim)
    rng = np.random.default_rng(seed)
    pool = np.array(values + [0.0, -0.0])
    return (_field(grid, ka, ta, pool, rng), _field(grid, kb, tb, pool, rng),
            (-1) ** (ka * kb))


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_scalar_wedge_graded_commutativity(dims, values, seed):
    a, b, sign = _operands(dims, values, seed, SCALAR, SCALAR)
    assert np.array_equal(wedge(a, b).coeffs, sign * wedge(b, a).coeffs)


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_vector_vector_graded_commutativity(dims, values, seed):
    v, w, sign = _operands(dims, values, seed, VECTOR, VECTOR)
    assert np.array_equal(wedge(v, w).coeffs,
                          sign * wedge(w, v).coeffs)


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_vector_matrix_graded_commutativity(dims, values, seed):
    # sum_a v_a ^ M_ab = (-1)^(ka kb) sum_a M_ab ^ v_a = -(-1)^(ka kb) (M v)_b
    v, m, sign = _operands(dims, values, seed, VECTOR, ANTISYM)
    assert np.array_equal(wedge(v, m).coeffs,
                          -sign * wedge(m, v).coeffs)


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_matrix_matrix_graded_commutativity(dims, values, seed):
    n, m, sign = _operands(dims, values, seed, ANTISYM, ANTISYM)
    assert np.array_equal(wedge(n, m).coeffs,
                          sign * wedge(m, n).coeffs)


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

@st.composite
def form_shapes(draw):
    dim = draw(st.integers(2, 4))
    return dim, draw(st.integers(0, dim)), draw(st.sampled_from(
        (SCALAR, VECTOR, ANTISYM)))


@PROPERTY_SETTINGS
@given(form_shapes(), VALUES, st.integers(0, 2**32 - 1))
def test_double_hodge_star_is_exact_sign(shape, values, seed):
    dim, degree, value_type = shape
    grid = GridSpec([(0.0, 1.0)] * dim, [4] * dim)
    pool = np.array(values + [0.0, -0.0])
    a = _field(grid, degree, value_type, pool, np.random.default_rng(seed))
    twice = hodge_star(hodge_star(a))
    assert (twice.degree, twice.value_type) == (degree, value_type)
    sign = (-1) ** (degree * (dim - degree))
    assert twice.coeffs.tobytes() == (sign * a.coeffs).tobytes()


# ---------------------------------------------------------------------------
# whole-field arithmetic
# ---------------------------------------------------------------------------

def _signed_zero_rows(coeffs, grid, rng):
    """Set about a third of the rows to +0.0 and a third to -0.0."""
    rows = coeffs.reshape((-1,) + grid.resolution)
    u = rng.random(len(rows))
    rows[u < 0.33] = 0.0
    rows[u > 0.67] = -0.0
    return coeffs


def _agrees_with_numpy(op, want):
    """op() gives the bytes of the numpy result `want`, or raises the
    non-finite error exactly when `want` has a non-finite entry."""
    if np.all(np.isfinite(want)):
        got = op()
        assert got.coeffs.tobytes() == want.tobytes()
        assert_rows_are_invariant_slices(got)
    else:
        try:
            op()
        except ValueError as err:
            assert str(err) == "non-finite coefficients"
        else:
            raise AssertionError("non-finite result accepted")


@PROPERTY_SETTINGS
@given(form_shapes(), VALUES, st.integers(0, 2**32 - 1), st.floats())
def test_whole_field_arithmetic_is_plain_numpy(shape, values, seed, scalar):
    """+, -, scalar * and the Hodge star work on the stored rows; their
    bytes must be those of the numpy expressions on the full arrays."""
    dim, degree, value_type = shape
    grid = GridSpec([(0.0, 1.0)] * dim, [4] * dim)
    rng = np.random.default_rng(seed)
    pool = np.array(values + [0.0, -0.0])
    a, b = (FormField(grid, degree, value_type, _signed_zero_rows(
        rng.choice(pool, size=_coeff_shape(grid, degree, value_type)), grid,
        rng)) for _ in range(2))
    with np.errstate(all="ignore"):
        _agrees_with_numpy(lambda: a + b, a.coeffs + b.coeffs)
        _agrees_with_numpy(lambda: a - b, a.coeffs - b.coeffs)
        _agrees_with_numpy(lambda: a * scalar, a.coeffs * scalar)
        _agrees_with_numpy(lambda: scalar * b, b.coeffs * scalar)
    table = _hodge_table(dim, degree)
    flat = a.coeffs.reshape((-1, len(table)) + grid.resolution)
    star = np.empty_like(flat)
    for ii, (io, sign) in enumerate(table):
        star[:, io] = sign * flat[:, ii]
    _agrees_with_numpy(lambda: hodge_star(a), star)


# ---------------------------------------------------------------------------
# row storage
# ---------------------------------------------------------------------------

ROW_KINDS = ("+0", "-0", "mixed", "constant", "invariant", "values")


def _planted_rows(grid, degree, value_type, rng):
    """Field whose (frame slot, component) rows are in turn all +0.0, all
    -0.0, mixed +-0, one constant, invariant along a random set of axes, or
    varying along every axis; values are small integers (which cancel
    exactly) or normals, with planted +-0 entries. A field of more than one
    row has at least one row all +0.0 or all -0.0, so it holds a row flagged
    as an exact zero; a field of one row keeps its random row."""
    coeffs = np.empty(_coeff_shape(grid, degree, value_type))
    rows = coeffs.reshape((-1,) + grid.resolution)
    for row in rows:
        kind = ROW_KINDS[rng.integers(len(ROW_KINDS))]
        if kind in ("+0", "-0"):
            row[...] = 0.0 if kind == "+0" else -0.0
        elif kind == "mixed":
            row[...] = np.where(rng.random(grid.resolution) < 0.5, 0.0, -0.0)
        else:
            shape = [1] * grid.dim if kind == "constant" else \
                [n if kind == "values" or rng.random() < 0.5 else 1
                 for n in grid.resolution]
            part = rng.integers(-2, 3, shape).astype(float) \
                if rng.random() < 0.5 else rng.normal(size=shape)
            part[rng.random(shape) < 0.2] = -0.0
            row[...] = part
    if len(rows) > 1:
        rows[rng.integers(len(rows))] = (0.0, -0.0)[rng.integers(2)]
    field = FormField(grid, degree, value_type, coeffs)
    assert len(rows) == 1 or any(field._zero)
    return field


def _same_as_reference(got, want):
    """Bytes of the full-array reference, and rows stored as slices."""
    assert (got.degree, got.value_type) == (want.degree, want.value_type)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert_rows_are_invariant_slices(got)


def _embedding_reference(e, omega):
    grid = e.grid
    g4 = GridSpec(tuple(grid.extents) + ((0.0, 4 * min(grid.spacing)),),
                  grid.resolution + (4,))
    e4 = np.zeros(_coeff_shape(g4, 1, VECTOR))
    e4[:3, :3] = e.coeffs[..., None]
    e4[3, 3] = 1.0
    om4 = np.zeros(_coeff_shape(g4, 1, ANTISYM))
    for p, pair in enumerate(antisym_pairs(3)):
        om4[antisym_pairs(4).index(pair), :3] = omega.coeffs[p][..., None]
    return FormField(g4, 1, VECTOR, e4), FormField(g4, 1, ANTISYM, om4)


@PROPERTY_SETTINGS
@given(st.integers(3, 4), st.data())
def test_stored_rows_are_invariant_slices_after_every_operation(dim, data):
    """Each operation on fields with planted invariant axes, constant and
    +-0 rows gives the bytes of the full-array reference, and stores each
    result row as the invariant slice of its full row. Every example draws
    one scalar and one wedge pairing, and contracts a field of positive
    degree with a constant and a grid vector field. The wedge kernels read
    no exact-zero row, and when a wedge operand holds one they skip a
    product or drop a framed term that the full-array references compute."""
    with zero_products_counted() as counts:
        x, y = _every_operation_against_reference(dim, data)
    assert counts["zero_reads"] == 0
    if any(x._zero) or any(y._zero):
        assert counts["skipped"] + counts["dropped"] > 0


def _every_operation_against_reference(dim, data):
    grid = GridSpec([(0.0, 1.0)] * dim, [4] * dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    types = (SCALAR, VECTOR, ANTISYM)

    def field(degree, value_type):
        return _planted_rows(grid, degree, value_type, rng)

    def full(f, coeffs):
        return FormField(f.grid, f.degree, f.value_type, coeffs)

    value_type = data.draw(st.sampled_from(types))
    a = field(data.draw(st.integers(0, dim - 1)), value_type)
    b = field(a.degree, value_type)
    assert_rows_are_invariant_slices(a)
    _same_as_reference(a + b, full(a, a.coeffs + b.coeffs))
    _same_as_reference(a - b, full(a, a.coeffs - b.coeffs))
    _same_as_reference(-a, full(a, -a.coeffs))
    s = data.draw(st.sampled_from((2.5, -1.0, 0.0, -0.0, 1e-310, np.inf,
                                   -np.inf)))
    with np.errstate(invalid="ignore"):     # inf * 0 is NaN
        _agrees_with_numpy(lambda: a * s, a.coeffs * s)
        _agrees_with_numpy(lambda: s * b, b.coeffs * s)
    _same_as_reference(hodge_star(a), ref_hodge_star(a))
    _same_as_reference(exterior_derivative(a), ref_exterior_derivative(a))
    if value_type != SCALAR:
        omega = field(1, ANTISYM)
        _same_as_reference(covariant_exterior_derivative(a, omega),
                           ref_covariant(a, omega))

    ka = data.draw(st.integers(0, dim))
    kb = data.draw(st.integers(0, dim - ka))
    x = field(ka, data.draw(st.sampled_from(types)))
    y = field(kb, data.draw(st.sampled_from(types)))
    _same_as_reference(wedge(x, y), ref_wedge(x, y))
    if x.value_type == y.value_type == ANTISYM:
        _same_as_reference(antisym_matmul(x, y), ref_antisym_matmul(x, y))

    if dim == 3:
        e, omega = field(1, VECTOR), field(1, ANTISYM)
        # embed_static_4d reads only e and omega of the 3D bundle
        got = embed_static_4d(SimpleNamespace(e=e, omega=omega))
        for g, want in zip((got.e, got.omega), _embedding_reference(e, omega)):
            _same_as_reference(g, want)

    if a.degree > 0:
        for v in (rng.choice([0.0, -0.0, 1.0, -2.0, rng.normal()], dim),
                  field(0, VECTOR).coeffs.reshape((dim,) + grid.resolution)):
            _same_as_reference(interior_product(v, a),
                               ref_interior_product(v, a))
    return x, y


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

@st.composite
def d_grids(draw):
    """Grid of 4-7 cells per axis of width 0.5-2, near the origin."""
    dim = draw(st.integers(2, 4))
    return GridSpec([(lo, lo + draw(st.floats(0.5, 2.0)))
                     for lo in draw(st.lists(st.floats(-1.0, 1.0),
                                             min_size=dim, max_size=dim))],
                    [draw(st.integers(4, 7)) for _ in range(dim)])


def _zero_rows(coeffs, grid, rng):
    """Set about a third of the (frame slot, component) rows to exact zero,
    so the rows d skips are exercised too."""
    rows = coeffs.reshape((-1,) + grid.resolution)
    rows[rng.random(len(rows)) < 0.3] = 0.0
    return coeffs


@PROPERTY_SETTINGS
@given(d_grids(), st.sampled_from((SCALAR, VECTOR, ANTISYM)), st.data())
def test_dd_at_rounding_level(grid, value_type, data):
    """Values in [-1, 1] and the bound of the hand-picked d(d f) test."""
    degree = data.draw(st.integers(0, grid.dim - 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.uniform(-1.0, 1.0, _coeff_shape(grid, degree, value_type))
    f = FormField(grid, degree, value_type, _zero_rows(coeffs, grid, rng))
    dd = exterior_derivative(exterior_derivative(f))
    h2 = min(grid.spacing) ** 2
    assert dd.max_abs() < 1e3 * np.finfo(float).eps / h2


def _multilinear(grid, degree, value_type, rng):
    """Coefficients of degree <= 1 in each axis: their products have degree
    <= 2 per axis, which centered differences differentiate exactly."""
    axes = grid.meshgrid()
    coeffs = np.zeros(_coeff_shape(grid, degree, value_type))
    rows = coeffs.reshape((-1,) + grid.resolution)
    for row in rows:
        for powers in itertools.product((0, 1), repeat=grid.dim):
            term = rng.uniform(-1.0, 1.0)
            for x, p in zip(axes, powers):
                term = term * x if p else term
            row += term
    return _zero_rows(coeffs, grid, rng)


@PROPERTY_SETTINGS
@given(d_grids(), st.sampled_from((SCALAR, VECTOR, ANTISYM)), st.data())
def test_d_leibniz_rule_on_polynomials(grid, value_type, data):
    """d(f ^ g) = df ^ g + (-1)^k f ^ dg in the interior, up to rounding;
    one-sided boundary differences are exact only for linear data."""
    ka = data.draw(st.integers(0, grid.dim - 1))
    kb = data.draw(st.integers(0, grid.dim - 1 - ka))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = FormField(grid, ka, SCALAR, _multilinear(grid, ka, SCALAR, rng))
    g = FormField(grid, kb, value_type, _multilinear(grid, kb, value_type, rng))
    lhs = exterior_derivative(wedge(f, g)).coeffs
    rhs = (wedge(exterior_derivative(f), g)
           + (-1) ** ka * wedge(f, exterior_derivative(g))).coeffs
    inner = (Ellipsis,) + (slice(1, -1),) * grid.dim
    scale = max(f.max_abs() * g.max_abs(), 1.0) / min(grid.spacing)
    assert np.max(np.abs(lhs[inner] - rhs[inner])) \
        < 1e2 * np.finfo(float).eps * scale


# ---------------------------------------------------------------------------
# reconnection ledger
# ---------------------------------------------------------------------------

# small integers times 2^-10: every sum in a short cascade is representable
DYADIC = st.integers(-2**12, 2**12).map(lambda m: m * 2.0 ** -10)
GENERAL = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _cascade(data, value):
    """Random merge cascade through `reconnect`; `charge_ledger` reads only
    each line's Burgers vector.

    Returns (ledger before, ledger after, events, abs_mass, roundings):
    abs_mass is the per-axis sum of |b| over the initial lines and |db| over
    the events, and roundings counts the float additions made by the merges
    and by both ledgers.
    """
    vec = st.tuples(value, value, value).map(np.array)
    lines = [SimpleNamespace(burgers=b)
             for b in data.draw(st.lists(vec, min_size=2, max_size=8))]
    abs_mass = np.sum([np.abs(l.burgers) for l in lines], axis=0)
    n_lines = len(lines)
    before = charge_ledger(lines, [])
    events = []
    while len(lines) > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines) - 2))
        j += j >= i
        delta_b = data.draw(vec)
        abs_mass = abs_mass + np.abs(delta_b)
        b_f, event = reconnect(lines[i].burgers, lines[j].burgers, delta_b)
        events.append(event)
        lines = [l for k, l in enumerate(lines) if k not in (i, j)]
        lines.append(SimpleNamespace(burgers=b_f))
    after = charge_ledger(lines, events)
    roundings = 2 * len(events) + n_lines + len(lines) + len(events)
    return before, after, events, abs_mass, roundings


@PROPERTY_SETTINGS
@given(st.data())
def test_ledger_exact_on_dyadic_cascades(data):
    before, after, events, _, _ = _cascade(data, DYADIC)
    assert after.tobytes() == before.tobytes()
    for event in events:
        assert not np.any(event.balance_defect())


@PROPERTY_SETTINGS
@given(st.data())
def test_ledger_drift_within_rounding_bound(data):
    """Each addition rounds by at most 2^-53 of its result, and every
    partial sum is bounded by the absolute mass up to a factor (1 + 2^-53)^k
    with k < 40, so the drift stays below roundings * 2^-53 * 2 * abs_mass."""
    before, after, _, abs_mass, roundings = _cascade(data, GENERAL)
    assert np.all(np.abs(after - before) <= roundings * 2.0 ** -52 * abs_mass)


# ---------------------------------------------------------------------------
# interior mask
# ---------------------------------------------------------------------------

@st.composite
def margin_grids(draw):
    """Grid of 4-7 cells per axis with widths of one scale, so a margin
    taken from another axis would drop some but not all of its cells. A
    margin of at most 0.3 of its axis keeps a centre cell."""
    dim = draw(st.integers(2, 4))
    lo = [draw(st.floats(-1e3, 1e3)) for _ in range(dim)]
    width = [draw(st.floats(0.5, 2.0)) for _ in range(dim)]
    grid = GridSpec([(l, l + w) for l, w in zip(lo, width)],
                    [draw(st.integers(4, 7)) for _ in range(dim)])
    margins = [draw(st.sampled_from((0.0, 0.1, 0.2, 0.3))) * w for w in width]
    return grid, margins


@PROPERTY_SETTINGS
@given(margin_grids())
def test_zero_margin_keeps_every_cell_along_its_axis(case):
    grid, margins = case
    mask = interior_mask(grid, margins)
    assert mask.any()
    for i, m in enumerate(margins):
        if m == 0.0:
            assert np.array_equal(mask.all(axis=i), mask.any(axis=i))
    if not any(margins):
        assert mask.all()
