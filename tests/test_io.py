"""Field serialization: binary roundtrip, header content, CSV export."""

import json
import struct
from fractions import Fraction

import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import ANTISYM, FormField, GridSpec, identity_coframe
from defectgeom.io import _g17_rows, _g17_tables

from conftest import ROW_SHAPES, assert_same_lines, field_with_row_shapes


@pytest.fixture
def sample_field():
    grid = GridSpec([(0, 1.0), (-1.0, 1.0), (0, 0.5)], [4, 6, 5])
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=(3, 3) + grid.resolution)
    return FormField(grid, 1, ANTISYM, coeffs)


def test_roundtrip_bit_exact(tmp_path, sample_field):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    back = dg.read_field(path)
    assert back.grid == sample_field.grid
    assert back.degree == sample_field.degree
    assert back.value_type == sample_field.value_type
    assert np.array_equal(back.coeffs, sample_field.coeffs)


def test_header_contents(tmp_path, sample_field):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    raw = path.read_bytes()
    assert raw[:8] == b"DGFF0002"
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    assert header["dim"] == 3
    assert header["degree"] == 1
    assert header["valueType"] == "antisym"
    assert header["resolution"] == [4, 6, 5]
    assert header["componentOrder"] == [[0], [1], [2]]
    assert header["frameOrder"] == [[1, 0], [2, 0], [2, 1]]
    assert header["rowShapes"] == [[4, 6, 5]] * 9
    payload = raw[16 + hlen:]
    assert len(payload) == sample_field.coeffs.size * 8
    # little-endian float64, C-order rows, frame outermost
    first = struct.unpack("<d", payload[:8])[0]
    assert first == sample_field.coeffs.flat[0]
    assert payload == sample_field.coeffs.astype("<f8").tobytes()


def test_header_lists_stored_row_shapes(tmp_path):
    """Each row is written at its stored shape, in row order."""
    grid = GridSpec([(0, 1.0), (-1.0, 1.0), (0, 0.5)], [4, 6, 5])
    field = field_with_row_shapes(grid, 1, "vector", "mixed",
                                  np.random.default_rng(3))
    path = tmp_path / "field.bin"
    dg.write_field(path, field)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    assert header["rowShapes"] == [list(row.shape) for row in field._rows]
    assert raw[16 + hlen:] == b"".join(row.astype("<f8").tobytes()
                                       for row in field._rows)


def test_write_determinism(tmp_path, sample_field):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    dg.write_field(p1, sample_field)
    dg.write_field(p2, sample_field)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        dg.read_field(path)


def test_truncated_payload_rejected(tmp_path, sample_field):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="payload"):
        dg.read_field(path)


def test_old_magic_rejected(tmp_path, sample_field):
    """A file of the earlier full-array layout is not read."""
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    path.write_bytes(b"DGFF0001" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="field.bin: not a field file "
                                         r"\(bad magic\)"):
        dg.read_field(path)


@pytest.mark.parametrize("change, message", [
    (-8, "field.bin: payload ends inside row 8"),
    (8, "field.bin: payload is longer than its 9 rows")])
def test_payload_one_float_off_rejected(tmp_path, change, message):
    """A payload one float short of or past its row shapes."""
    grid = GridSpec([(0, 1.0), (-1.0, 1.0), (0, 0.5)], [4, 6, 5])
    field = field_with_row_shapes(grid, 1, "vector", "xy",
                                  np.random.default_rng(5))
    path = tmp_path / "field.bin"
    dg.write_field(path, field)
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0
                     else raw + struct.pack("<d", 1.0))
    with pytest.raises(ValueError, match=message):
        dg.read_field(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(rowShapes=h["rowShapes"][:-1]),
     "header rowShapes must list 9 row shapes"),
    (lambda h: h.update(rowShapes=h["rowShapes"] + [[1, 1, 1]]),
     "header rowShapes must list 9 row shapes"),
    (lambda h: h.update(rowShapes=None),
     "header rowShapes must list 9 row shapes"),
    (lambda h: h["rowShapes"].__setitem__(2, [4, 3, 5]),
     r"row 2 shape \[4, 3, 5\] is not of full length or 1"),
    (lambda h: h["rowShapes"].__setitem__(0, [4, 6]),
     r"row 0 shape \[4, 6\] is not"),
    (lambda h: h["rowShapes"].__setitem__(4, [4, 6, 5.0]),
     r"row 4 shape \[4, 6, 5.0\] is not")],
    ids=["one_short", "one_long", "null", "partial_axis", "missing_axis",
         "float_length"])
def test_bad_row_shapes_rejected(tmp_path, sample_field, edit, message):
    """rowShapes with the wrong number of rows, or a row length that is
    neither 1 nor the axis's full length, is a ValueError naming the
    path."""
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match="field.bin: " + message):
        dg.read_field(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(degree=4), "degree 4 out of range for dim 3"),
    (lambda h: h.update(valueType="tensor"), "unknown value type 'tensor'")])
def test_header_bad_kind_rejected(tmp_path, sample_field, edit, message):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match="field.bin: " + message):
        dg.read_field(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(degree="1"), "header degree '1' is not an integer"),
    (lambda h: h.update(degree=True), "header degree True is not an integer"),
    (lambda h: h.update(extents=5), "header extents 5 is not a list"),
    (lambda h: h["extents"].__setitem__(0, ["a", 1]),
     r"header extents \[\['a', 1\], .* is not a list of \[lo, hi\] number"),
    (lambda h: h["extents"].__setitem__(1, [-1.0]),
     r"header extents .* is not a list of \[lo, hi\] number pairs"),
    (lambda h: h["extents"].__setitem__(0, [0, 10 ** 400]),
     "int too large to convert to float"),
    (lambda h: h["extents"].__setitem__(0, [1.0, 0.0]),
     r"extent \[1.0, 0.0\] must have a finite positive length"),
    (lambda h: h.update(resolution=[2, 6, 5]), "resolution 2 < 4"),
    (lambda h: h.update(resolution=[4.5, 6, 5]),
     r"header resolution \[4.5, 6, 5\] is not a list of integers"),
    (lambda h: h.update(resolution="456"),
     "header resolution '456' is not a list of integers")],
    ids=["degree_string", "degree_bool", "extents_number", "extent_string",
         "extent_short", "extent_overflow", "extent_reversed",
         "resolution_small", "resolution_float", "resolution_string"])
def test_header_malformed_value_rejected(tmp_path, sample_field, edit,
                                         message):
    """A header value of the wrong JSON type or one GridSpec rejects is a
    ValueError naming the path, not a TypeError, and a float resolution is
    not read as its integer part."""
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match="field.bin: " + message):
        dg.read_field(path)


def test_non_finite_payload_rejected(tmp_path, sample_field):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(ValueError,
                       match="field.bin: non-finite coefficients"):
        dg.read_field(path)


@pytest.mark.parametrize("value_type, degree",
                         [("scalar", 0), ("vector", 1), ("antisym", 2)])
@pytest.mark.parametrize("kind", ROW_SHAPES)
def test_roundtrip_keeps_row_shapes_and_bits(tmp_path, value_type, degree,
                                             kind):
    """Write then read gives the same stored row shapes and float64 bits,
    and writing the read-back field again gives the same bytes."""
    grid = GridSpec([(0, 1.0), (-1.0, 1.0), (0, 0.5)], [6, 5, 4])
    field = field_with_row_shapes(grid, degree, value_type, kind,
                                  np.random.default_rng(
                                      ROW_SHAPES.index(kind) + 10 * degree))
    first, second = tmp_path / "a.field", tmp_path / "b.field"
    dg.write_field(first, field)
    back = dg.read_field(first)
    assert [row.shape for row in back._rows] == \
        [row.shape for row in field._rows]
    assert [[v.hex() for v in row.ravel().tolist()] for row in back._rows] \
        == [[v.hex() for v in row.ravel().tolist()] for row in field._rows]
    dg.write_field(second, back)
    assert second.read_bytes() == first.read_bytes()


def test_longer_stored_row_is_resliced(tmp_path):
    """A file may store a row longer than its invariant slice; the field
    read back stores the slice, with the same values."""
    grid = GridSpec([(0, 1.0), (-1.0, 1.0), (0, 0.5)], [4, 6, 5])
    field = field_with_row_shapes(grid, 0, "scalar", "x",
                                  np.random.default_rng(8))
    path = tmp_path / "field.bin"
    dg.write_field(path, field)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    header["rowShapes"] = [[4, 6, 5]]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                     + field.coeffs.astype("<f8").tobytes())
    back = dg.read_field(path)
    assert back._rows[0].shape == (4, 1, 1)
    assert back._rows[0].tobytes() == field._rows[0].tobytes()


@pytest.mark.parametrize("cut", [0, 2, 7, 9, 40])
def test_truncated_header_rejected(tmp_path, sample_field, cut):
    """A file that ends inside the 8-byte header length or inside the JSON
    header is a ValueError naming the path, not a struct or JSON error."""
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    path.write_bytes(path.read_bytes()[:8 + cut])
    with pytest.raises(ValueError, match="field.bin: file ends inside the header"):
        dg.read_field(path)


def test_csv_export(tmp_path):
    grid = GridSpec([(0, 1.0), (0, 2.0)], [4, 4])
    X, Y = grid.meshgrid()
    f = FormField(grid, 1, "scalar", np.stack([X, Y * 2]))
    path = tmp_path / "f.csv"
    dg.write_csv(path, f)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,dx,dy"
    assert len(lines) == 1 + 16
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == grid.axis_centers(0)[0]
    assert row[1] == grid.axis_centers(1)[0]
    assert row[2] == row[0] and row[3] == 2 * row[1]


def test_csv_of_read_field_matches_in_memory_csv(tmp_path):
    """The CSV of each `.field` file, read back, is byte for byte the CSV of
    the field it was written from, for the five fields `fields` writes of a
    screw+wedge pair."""
    grid = GridSpec([(-1.6, 1.6), (-1.6, 1.6), (-0.4, 0.4)], [32, 32, 4])
    config = dg.DefectConfiguration(grid, [
        dg.DefectSpec("screw", (-0.5, 0.0), 1.0, 0.2),
        dg.DefectSpec("wedge", (0.5, 0.0), 0.1, 0.2)])
    f = dg.CartanFields(dg.build_coframe(config), dg.build_connection(config))
    for name, field in (("coframe", f.e),
                        ("coframe_perturbation", f.e - identity_coframe(grid)),
                        ("connection", f.omega), ("torsion", f.t),
                        ("curvature", f.r)):
        dg.write_field(tmp_path / f"{name}.field", field)
        dg.write_csv(tmp_path / f"{name}.csv", field)
        dg.write_csv(tmp_path / "back.csv",
                     dg.read_field(tmp_path / f"{name}.field"))
        assert (tmp_path / "back.csv").read_bytes() == \
            (tmp_path / f"{name}.csv").read_bytes(), name


def test_csv_determinism(tmp_path, sample_field):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dg.write_csv(p1, sample_field)
    dg.write_csv(p2, sample_field)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_matches_per_value_formatter(tmp_path):
    """Block formatting writes the bytes of the per-value %.17g formatter,
    across block boundaries and for -0.0, subnormals and huge exponents."""
    grid = GridSpec([(0, 1.0), (-2.0, 3.0), (0, 0.1)], [20, 21, 13])
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(3, 3) + grid.resolution) \
        * 10.0 ** rng.integers(-300, 300, size=(3, 3) + grid.resolution)
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(float).max,
                -np.finfo(float).max, np.finfo(float).tiny, 1e-5, 0.1]
    coeffs.flat[:len(specials)] = specials
    coeffs.flat[-len(specials):] = specials
    field = FormField(grid, 1, "vector", coeffs)
    assert np.prod(grid.resolution) > 4096
    path = tmp_path / "f.csv"
    dg.write_csv(path, field)
    assert_same_lines(path.read_text(), _per_value_csv(field))


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                     + raw[16 + hlen:])


@pytest.mark.parametrize("key", ["dim", "degree", "valueType", "extents",
                                 "resolution", "rowShapes"])
def test_header_missing_key_rejected(tmp_path, sample_field, key):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        dg.read_field(path)


def test_header_dim_mismatch_rejected(tmp_path, sample_field):
    path = tmp_path / "field.bin"
    dg.write_field(path, sample_field)
    _rewrite_header(path, lambda h: h.update(dim=2))
    with pytest.raises(ValueError, match="dim 2"):
        dg.read_field(path)
    _rewrite_header(path, lambda h: h.update(dim=3,
                                             resolution=[4, 6, 5, 4]))
    with pytest.raises(ValueError, match="4 resolutions"):
        dg.read_field(path)


def _per_value_csv(field):
    """The CSV text of the per-value f"{v:.17g}" formatter."""
    grid = field.grid
    mesh = [m.ravel() for m in grid.meshgrid()]
    block = np.column_stack(mesh + list(field.coeffs.reshape(9, -1)))
    header = "x,y,z," + ",".join(f"a{a}_d{ax}" for a in (1, 2, 3)
                                 for ax in "xyz")
    return header + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in block)


@pytest.mark.parametrize("resolution", [(4, 5, 6), (16, 16, 16), (20, 21, 13)])
def test_csv_repeated_values_match_per_value_formatter(tmp_path, resolution):
    """Constant columns become template text and invariant columns are
    formatted once per slice, with the bytes of the per-value formatter:
    constant +0.0, -0.0, 1.0 and 5e-324 columns, a mixed +0.0/-0.0 column
    (not constant: the bits differ), a column constant but for its last
    cell, columns invariant along z and along x and y, in fields of one
    block, exactly one full block and several blocks."""
    grid = GridSpec([(0, 1.0), (-2.0, 3.0), (0, 0.1)], resolution)
    rng = np.random.default_rng(11)
    nx, ny, nz = resolution
    c = np.empty((3, 3) + resolution)
    c[0, 0], c[0, 1], c[0, 2], c[1, 0] = 0.0, -0.0, 1.0, 5e-324
    c[1, 1] = rng.choice([0.0, -0.0], size=resolution)
    c[1, 1].flat[:2] = 0.0, -0.0
    c[1, 2] = 1.0
    c[1, 2].flat[-1] = np.nextafter(1.0, 2.0)
    c[2, 0] = rng.normal(size=(nx, ny, 1))
    c[2, 1] = rng.normal(size=(1, 1, nz)) * 1e-300
    c[2, 2] = rng.normal(size=resolution)
    field = FormField(grid, 1, "vector", c)
    path = tmp_path / "f.csv"
    dg.write_csv(path, field)
    assert_same_lines(path.read_text(), _per_value_csv(field))


# ---------------------------------------------------------------------------
# the %.17g kernel
# ---------------------------------------------------------------------------

TABLES = _g17_tables()


def _assert_g17(values):
    """`_g17_rows` of a one-column array gives `'%.17g' % v` for every v;
    checked in blocks, and a failure names the first differing value."""
    values = np.asarray(values, np.float64).ravel()
    for lo in range(0, len(values), 65536):
        block = values[lo:lo + 65536]
        got = _g17_rows(block[:, None], TABLES)
        want = ["%.17g" % v for v in block.tolist()]
        assert len(got) == len(want)
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                   None)
        assert bad is None, \
            f"{block[bad]!r}: got {got[bad]!r}, want {want[bad]!r}"


def test_g17_random_bit_patterns():
    """A million seeded random float64 bit patterns: every exponent, both
    signs, subnormals, infinities and NaNs."""
    bits = np.random.default_rng(20).integers(0, 2 ** 64, 1_000_000,
                                               dtype=np.uint64)
    _assert_g17(bits.view(np.float64))


def test_g17_log_uniform_magnitudes():
    rng = np.random.default_rng(21)
    _assert_g17(rng.uniform(-1.0, 1.0, 200_000)
                * 10.0 ** rng.integers(-30, 30, 200_000))


def test_g17_powers_of_ten_and_neighbours():
    """Every power of ten from 1e-323 to 1e308, one ulp below and above,
    and negated: where floor(log10|x|) and the 17-digit carry are tested."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_g17(np.concatenate([powers, np.nextafter(powers, np.inf),
                                np.nextafter(powers, 0.0), -powers]))


def test_g17_special_values():
    tiny = np.nextafter(0.0, 1.0)
    huge = np.finfo(np.float64).max
    subnormals = np.random.default_rng(22).integers(1, 2 ** 52, 1000,
                                                     dtype=np.uint64)
    _assert_g17([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308,
                 2.2250738585072014e-308, huge, -huge, np.inf, -np.inf,
                 np.nan, -np.nan, 1e16, 1e17, 9.9999999999999984e16,
                 0.0001, 9.9999999999999991e-05, 1e-05])
    _assert_g17(subnormals.view(np.float64))
    assert _g17_rows(np.array([[0.0, -0.0, np.inf, -np.inf, np.nan]]),
                     TABLES) \
        == ["0,-0,inf,-inf,nan"]


@pytest.mark.parametrize("value, text", [
    (1125899906842624.25, "1125899906842624.2"),
    (1125899906842624.75, "1125899906842624.8")])
def test_g17_exact_ties_round_half_even(value, text):
    assert "%.17g" % value == text
    assert _g17_rows(np.array([[value], [-value]]), TABLES) \
        == [text, "-" + text]


def test_g17_exact_ties():
    """Values whose 18th significant digit is an exact 5: k + 1/4 and
    k + 3/4 for 1e15 <= k < 2**51, and k + j/8 for odd j and 1e14 <= k <
    1e15."""
    rng = np.random.default_rng(23)
    k15 = rng.integers(10 ** 15, 2 ** 51, 5000).astype(np.float64)
    k14 = rng.integers(10 ** 14, 10 ** 15, 5000).astype(np.float64)
    _assert_g17(np.concatenate([k15 + 0.25, k15 + 0.75,
                                k14 + rng.choice([0.125, 0.375, 0.625,
                                                  0.875], 5000)]))


def test_g17_near_ties():
    """Values whose scaled y = |x| * 10**(16 - E) lies within 2**-30 of a
    half-integer without being one, down to about 2**-56, below the
    double-double error: they go through Python, and if they did not some
    would round the wrong way. For 10**-13 <= x < 10**-1 and k = 16 - E,
    x = m * 2**q gives y = m * 5**k / 2**P with P = -(q + k) fraction bits,
    so m = (2**(P - 1) + delta) / 5**k modulo 2**P is near a tie."""
    values, gaps = [], []
    for k in range(17, 30):
        low, high = Fraction(10) ** (16 - k), Fraction(10) ** (17 - k)
        for q in range(-150, -k - 1):
            scale = Fraction(2) ** q
            if 2 ** 53 * scale <= low or 2 ** 52 * scale >= high:
                continue
            mod = 2 ** -(q + k)
            inverse = pow(5 ** k, -1, mod)
            for delta in range(-2000, 2001):
                m = (mod // 2 + delta) * inverse % mod
                if delta and 2 ** 52 <= m < 2 ** 53 \
                        and low <= m * scale < high:
                    values.append(float(m * scale))
                    gaps.append(abs(delta) / mod)
    assert len(values) > 1000 and min(gaps) < 2.0 ** -50
    _assert_g17(values)


def test_g17_rows_join_columns():
    values = np.random.default_rng(24).normal(size=(300, 7))
    values[::5, 2] = 0.0
    values[::7, 4] = 1e-20
    assert _g17_rows(values, TABLES) == [",".join("%.17g" % v for v in row)
                                         for row in values.tolist()]
    assert _g17_rows(np.empty((0, 13)), TABLES) == []
