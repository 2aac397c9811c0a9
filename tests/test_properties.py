"""Property tests over random dimensions, degrees and values (Hypothesis).

Graded commutativity of `wedge` must hold bit for bit, for the plain product
and for every framed pairing: the wedge plan fuses mirrored component pairs,
and each framed sum adds its frame terms in the same order for both operand
orders.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectgeom.forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    _coeff_shape,
    wedge,
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
    assert np.array_equal(wedge(v, w, "vector").coeffs,
                          sign * wedge(w, v, "vector").coeffs)


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_vector_matrix_graded_commutativity(dims, values, seed):
    # sum_a v_a ^ M_ab = (-1)^(ka kb) sum_a M_ab ^ v_a = -(-1)^(ka kb) (M v)_b
    v, m, sign = _operands(dims, values, seed, VECTOR, ANTISYM)
    assert np.array_equal(wedge(v, m, "vector").coeffs,
                          -sign * wedge(m, v, "vector").coeffs)


@PROPERTY_SETTINGS
@given(degree_pairs(), VALUES, st.integers(0, 2**32 - 1))
def test_matrix_matrix_graded_commutativity(dims, values, seed):
    n, m, sign = _operands(dims, values, seed, ANTISYM, ANTISYM)
    assert np.array_equal(wedge(n, m, "matrix").coeffs,
                          sign * wedge(m, n, "matrix").coeffs)
