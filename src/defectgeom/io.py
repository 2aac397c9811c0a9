"""Structured-grid field serialization.

Binary format, one file per field:
  magic "DGFF0002", little-endian uint64 header length, UTF-8 JSON header
  (dim, degree, valueType, extents, resolution, component and frame order,
  rowShapes), then the field's stored rows in row order: frame slot
  outermost, basis components in lexicographic multi-index order. Each row
  is C-order little-endian float64 of its `rowShapes` entry, which is full
  length or 1 along each axis, so a row is written at the shape the field
  stores it (`FormField` docstring) and no full-grid array is built either
  way. Files of the earlier "DGFF0001" full-array layout are rejected as
  bad magic.

`write_csv` is a plain-text export for external plotting (one row per grid
point: coordinates then components). No command writes it; the CSV of a
written field is `write_csv(path, read_field("<name>.field"))`, and since
`read_field` round-trips bit-exactly it has the bytes of the in-memory
field's CSV.

`_g17_text` formats a float64 array as `'%.17g' % v` text, byte for byte,
with numpy arithmetic in place of one CPython `dtoa` call per value
(`simulate` writes `trajectory.csv` with it, one call per block of rows).
For each |x| it computes y = |x| * 10**(16 - E) as a double-double:
Dekker's exact product of |x| and the high part of a (high, low) table
entry of 10**k, both split by Veltkamp's method (numpy has no fused
multiply-add), plus |x| times the low part. E starts as floor(log10|x|) and
is corrected by comparing y itself with 1e16 and 1e17. The 17-digit integer
D is y rounded. y is within 2**-46 of the exact product, so D is correctly
rounded unless y lies within 2**-30 of a tie. Such a value, one whose D
carries to 10**17, one outside the table's range (|x| below 1e-283 or from
1e289 on) and a non-finite one are formatted by Python's `'%.17g'`. Zero is
'0' or '-0'. D becomes text through 4-digit lookup tables in a fixed
48-byte cell per value, with NUL where `%g` writes nothing (leading and
trailing zeros, the decimal point of a whole number, the exponent of fixed
notation). A cell word that is NUL in every cell of a call is dropped, text
that the caller formats itself as NUL-padded words is copied in between the
cells, and the NULs are deleted at the end. The tables are built from
Python integers by `_g17_tables`, once per file written.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    AXIS_NAMES,
    FormField,
    GridSpec,
    _check_kind,
    _coeff_shape,
    _varying_axes,
    antisym_pairs,
    basis_indices,
)

MAGIC = b"DGFF0002"
HEADER_KEYS = ("dim", "degree", "valueType", "extents", "resolution",
               "rowShapes")
CSV_BLOCK_ROWS = 4096


def component_label(multi_index) -> str:
    if len(multi_index) == 0:
        return "val"
    return "".join("d" + AXIS_NAMES[i] for i in multi_index)


def frame_labels(field: FormField) -> list:
    if field.value_type == SCALAR:
        return [""]
    if field.value_type == VECTOR:
        return [f"a{a + 1}" for a in range(field.n_frame)]
    return [f"a{a + 1}{b + 1}" for a, b in antisym_pairs(field.n_frame)]


def write_field(path, field: FormField) -> None:
    header = {
        "dim": field.grid.dim,
        "degree": field.degree,
        "valueType": field.value_type,
        "extents": [list(e) for e in field.grid.extents],
        "resolution": list(field.grid.resolution),
        "componentOrder": [list(c) for c in basis_indices(field.grid.dim,
                                                          field.degree)],
        "frameOrder": ([list(p) for p in antisym_pairs(field.grid.dim)]
                       if field.value_type == ANTISYM
                       else list(range(field.grid.dim))
                       if field.value_type == VECTOR else None),
        "layout": "rows in row order, frame index outermost, each C-order "
                  "float64 little-endian at its rowShapes shape",
        "rowShapes": [list(row.shape) for row in field._rows],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for row in field._rows:
            fh.write(np.ascontiguousarray(row, dtype="<f8"))


def read_field(path) -> FormField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a field file (bad magic)")
        size = fh.read(8)
        if len(size) != 8:
            raise ValueError(f"{path}: file ends inside the header length")
        (hlen,) = struct.unpack("<Q", size)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise ValueError(f"{path}: file ends inside the header")
        header = json.loads(blob.decode())
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        for key in HEADER_KEYS:
            if key not in header:
                raise ValueError(f"{path}: header is missing key {key!r}")
        extents, resolution = header["extents"], header["resolution"]
        if not (isinstance(extents, list)
                and all(isinstance(e, list) and len(e) == 2
                        and all(type(v) in (int, float) for v in e)
                        for e in extents)):
            raise ValueError(f"{path}: header extents {extents!r} is not a "
                             f"list of [lo, hi] number pairs")
        if not (isinstance(resolution, list)
                and all(type(n) is int for n in resolution)):
            raise ValueError(f"{path}: header resolution {resolution!r} is "
                             f"not a list of integers")
        if type(header["degree"]) is not int:
            raise ValueError(f"{path}: header degree {header['degree']!r} "
                             f"is not an integer")
        if not header["dim"] == len(extents) == len(resolution):
            raise ValueError(f"{path}: header dim {header['dim']} does not "
                             f"match {len(extents)} extents and "
                             f"{len(resolution)} resolutions")
        degree, value_type = header["degree"], header["valueType"]
        try:
            grid = GridSpec(tuple(tuple(e) for e in extents),
                            tuple(resolution))
            _check_kind(grid, degree, value_type)
        except (ValueError, OverflowError) as err:  # float(10**400) overflows
            raise ValueError(f"{path}: {err}") from None
        shapes = header["rowShapes"]
        nrows = int(np.prod(_coeff_shape(grid, degree,
                                         value_type)[:-grid.dim]))
        if not isinstance(shapes, list) or len(shapes) != nrows:
            raise ValueError(f"{path}: header rowShapes must list {nrows} "
                             f"row shapes")
        rows = []
        for i, shape in enumerate(shapes):
            if not (isinstance(shape, list) and len(shape) == grid.dim
                    and all(type(m) is int and m in (1, n)
                            for m, n in zip(shape, grid.resolution))):
                raise ValueError(f"{path}: row {i} shape {shape} is not of "
                                 f"full length or 1 along each axis of "
                                 f"resolution {list(grid.resolution)}")
            row = np.empty(shape, dtype="<f8")
            if fh.readinto(row) != row.nbytes:
                raise ValueError(f"{path}: payload ends inside row {i}")
            rows.append(row)
        if fh.read(1):
            raise ValueError(f"{path}: payload is longer than its {nrows} "
                             f"rows")
    try:
        return FormField._from_rows(grid, degree, value_type, rows)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_csv(path, field: FormField) -> None:
    """One row per grid point: coordinates, then one column per component.

    Values are written with %.17g, which round-trips float64 exactly, and
    each value is formatted once where its column repeats it. A column whose
    float64 bits are all equal is literal text in the row template (%.17g of
    a finite float holds no '%'). A column that is bit-invariant along some
    axes, such as a coordinate or a field row stored at length 1 along
    them, is formatted on one slice over the other axes and indexed per
    row. The remaining columns are formatted per value.
    Rows are written CSV_BLOCK_ROWS at a time with one %-template per block.
    """
    grid = field.grid
    columns = [AXIS_NAMES[i] for i in range(grid.dim)]
    parts = [([i], grid.axis_centers(i)) for i in range(grid.dim)]
    for fl in frame_labels(field):
        for comp in basis_indices(grid.dim, field.degree):
            name = component_label(comp)
            columns.append(f"{fl}_{name}" if fl else name)
    parts += [_varying_axes(values) for values in field._rows]
    cells, sources = [], []
    for axes, values in parts:
        if not axes:
            cells.append("%.17g" % float(values))
        elif len(axes) < grid.dim:
            cells.append("%s")
            text = ["%.17g" % v for v in values.ravel().tolist()]
            sources.append((axes, np.array(text, object).reshape(values.shape)))
        else:  # formatted per block, so its strings are never all held
            cells.append("%.17g")
            sources.append((None, values.ravel()))
    row = ",".join(cells) + "\n"
    size = int(np.prod(grid.resolution))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, size, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, size)
            index = np.unravel_index(np.arange(lo, hi), grid.resolution)
            block = np.empty((hi - lo, len(sources)), object)
            for j, (axes, values) in enumerate(sources):
                block[:, j] = values[lo:hi] if axes is None \
                    else values[tuple(index[ax] for ax in axes)]
            fh.write((row * (hi - lo)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# %.17g kernel
# ---------------------------------------------------------------------------

_G17_KMIN, _G17_KMAX = -274, 300        # the table holds 10**k for these k
_G17_ELO = 16 - _G17_KMAX               # so E = 16 - k runs from here
_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's constant


def _split(a):
    """(high, low) halves of `a` with 26 significant bits each, exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _words(texts):
    """Each text in UTF-8, NUL-padded to the longest, as a row of uint32
    words: a (len(texts), k) array with k >= 1."""
    raw = [t.encode() for t in texts]
    k = max([1] + [-(-len(r) // 4) for r in raw])
    return np.frombuffer(b"".join(r.ljust(4 * k, b"\0") for r in raw),
                         "<u4").reshape(len(raw), k)


def _g17_tables():
    """Lookup tables of `_g17_text`, built from Python integers: (scale,
    text). A writer builds them once per file, so they live only while it
    writes.

    scale holds 10**k as float(10**k) or 1 / 10**-k, both correctly rounded,
    its Veltkamp halves and the correctly rounded remainder. In text, the
    digit groups map 0..9999 to four characters as is, with leading zeros as
    NUL (a second variant keeps the last digit of 0) and with trailing zeros
    as NUL. The tables indexed by E - _G17_ELO give 10**s and 10**(17 - s)
    for the shift s of `_g17_cells`, the zeros after "0." and the exponent.
    """
    high, low = [], []
    for k in range(_G17_KMIN, _G17_KMAX + 1):
        if k >= 0:
            p = 10 ** k
            h = float(p)
            low.append(float(p - int(h)))
        else:
            q = 10 ** -k
            h = 1 / q
            num, den = h.as_integer_ratio()
            low.append((den - num * q) / (den * q))
        high.append(h)
    high = np.array(high)
    g = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    groups = np.empty((4, 10000, 4), np.uint8)
    groups[:] = g // place % 10 + 48
    groups[1][g < place] = 0                    # leading zeros
    groups[2][g < place] = 0
    groups[2][0, 3] = ord("0")                  # but 0 keeps one digit
    groups[3][g % (10 * place) == 0] = 0        # trailing zeros
    signed_top = ([""] + ["\0\0\0%d" % v for v in range(1, 10)]
                  + ["\0\0-"] + ["\0\0-%d" % v for v in range(1, 10)])
    last = [""] + [str(v) for v in range(1, 10)]
    shift, zeros, exp_head, exp_tail = [], [], [], []
    for e in range(_G17_ELO, 16 - _G17_KMIN + 1):
        fixed = -4 <= e < 17
        shift.append((16 - e if e >= 0 else 17) if fixed else 16)
        zeros.append("\0" + "0" * (-1 - e) if fixed and e < 0 else "")
        text = "" if fixed else "%+03d" % e
        exp_head.append("\0e" + text[:-2] if text else "")
        exp_tail.append(text[-2:])
    shift = np.array(shift)
    pow10 = np.array([10 ** i for i in range(18)], np.int64)
    signed_top, last, zeros, exp_head, exp_tail = (
        _words(t)[:, 0] for t in (signed_top, last, zeros, exp_head, exp_tail))
    return ((high, *_split(high), np.array(low)),
            (groups.view("<u4").ravel(), signed_top, last, pow10[shift],
             pow10[17 - shift], zeros, exp_head, exp_tail))


def _scaled(ax, k, scale):
    """|x| * 10**k as a double-double (high, low), for k in the table."""
    high, b_hi, b_lo, low = (t[k - _G17_KMIN] for t in scale)
    p = ax * high
    a_hi, a_lo = _split(ax)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + ax * low
    y = p + t
    return y, t - (y - p)


def _g17_decimal(x, scale):
    """(D, E, exact) per value of x: the 17 significant digits D and the
    decimal exponent E of |x|, and whether they are certain. Where they are
    not, D is 10**16 and E is 0; a zero has D = 0 and E = -1, which `%g`
    prints as "0"."""
    ax = np.abs(x)
    exact = (ax >= 1e-283) & (ax < 1e289)    # 16 - E stays in the table
    ax[~exact] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    y, y_lo = _scaled(ax, 16 - e, scale)
    shift = ((y > 1e17) | ((y == 1e17) & (y_lo >= 0))).view(np.int8) \
        - ((y < 1e16) | ((y == 1e16) & (y_lo < 0))).view(np.int8)
    moved = np.flatnonzero(shift)
    if len(moved):
        e[moved] += shift[moved]
        y[moved], y_lo[moved] = _scaled(ax[moved], 16 - e[moved], scale)
    # y is a whole number (it is above 2**53), so D rounds y_lo alone
    n = np.rint(y_lo)
    exact &= np.abs(np.abs(y_lo - n) - 0.5) > 2.0 ** -30
    d = y.astype(np.int64) + n.astype(np.int64)
    exact &= (d >= 10 ** 16) & (d < 10 ** 17)    # 10**17 is a carry
    d[~exact] = 10 ** 16
    e[~exact] = 0
    zero = x == 0
    d[zero] = 0
    e[zero] = -1
    return d, e, exact | zero


def _g17_cells(x, tables):
    """The (12, len(x)) uint32 words of the cells of x, without separators,
    and where x was formatted exactly.

    With D split at a shift s into the integer part I = D // 10**s and the
    17-digit fraction F = (D % 10**s) * 10**(17 - s) (s = 16 - E in fixed
    notation from E = 0 on, 17 below it and 16 in exponent notation), word
    0 holds the sign and the top digit of I, words 1-4 the other 16 digits
    of I, word 5 the point and the zeros of "0.000", words 6-10 the digits
    of F, and words 10-11 the exponent. Groups of four digits index
    `groups`: from 0 as they are, from 10000 with leading zeros NUL, from
    20000 the same but 0 as "0", from 30000 with trailing zeros NUL.
    """
    scale, (groups, signed_top, last, pow_i, pow_f, zeros, exp_head,
            exp_tail) = tables
    d, e, exact = _g17_decimal(x, scale)
    e -= _G17_ELO
    out = np.empty((12, len(x)), "<u4")
    p = pow_i[e]
    i = d // p
    f = (d - i * p) * pow_f[e]
    above = i // 10 ** 16                   # the digits left of the group
    out[0] = signed_top[above + 10 * np.signbit(x)]
    for word, place in ((1, 10 ** 12), (2, 10 ** 8), (3, 10 ** 4), (4, 1)):
        digits = i // place
        lead = 20000 if place == 1 else 10000
        out[word] = groups[digits - above * 10000 + lead * (above == 0)]
        above = digits
    out[5] = zeros[e]
    out[5] |= (f != 0).view(np.uint8) * np.uint32(ord("."))
    above = 0
    for word, place in ((6, 10 ** 13), (7, 10 ** 9), (8, 10 ** 5), (9, 10)):
        digits = f // place
        out[word] = groups[digits - above * 10000
                           + 30000 * (f == digits * place)]
        above = digits
    out[10] = last[f - above * 10]
    out[10] |= exp_head[e]
    out[11] = exp_tail[e]
    return out, exact


def _g17_text(values, tables, words=None) -> str:
    """The rows of a 2-D float64 array as `'%.17g' % v` text, byte for
    byte, with the tables of `_g17_tables()`: each row's values joined by
    commas and ended by a newline. The method is in the module docstring.

    `words` maps a column to text written just before its value in every
    row: NUL-padded uint32 words (`_words`), one row of them for each row or
    one for all. The text holds no NUL, since NUL is deleted with the
    padding.
    """
    values = np.asarray(values, np.float64)
    rows, cols = values.shape
    x = values.ravel()
    out, exact = _g17_cells(x, tables)
    sep = out[11].reshape(rows, cols)
    sep[:, :-1] |= ord(",") << 16
    sep[:, -1] |= ord("\n") << 16
    slow = np.flatnonzero(~exact)
    if len(slow):
        text = b"".join(("%.17g" % v).encode("ascii").ljust(44, b"\0")
                        for v in x[slow].tolist())
        out[:11, slow] = np.frombuffer(text, "<u4").reshape(-1, 11).T
        out[11, slow] &= 0xFF << 16
    # a word that is NUL in every cell adds nothing; dropping it first
    # shortens the copies and the bytes the deletion scans
    out = out[out.any(axis=1)]
    cells = out.reshape(len(out), rows, cols).transpose(1, 2, 0)
    words, pieces = words or {}, []
    for column in range(cols):
        if column in words:
            pieces.append(words[column])
        pieces.append(cells[:, column])
    block = np.empty((rows, sum(p.shape[-1] for p in pieces)), "<u4")
    pos = 0
    for piece in pieces:
        block[:, pos:pos + piece.shape[-1]] = piece
        pos += piece.shape[-1]
    return block.tobytes().translate(None, b"\0").decode()
