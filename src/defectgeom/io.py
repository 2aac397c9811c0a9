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
        if not (header["dim"] == len(header["extents"])
                == len(header["resolution"])):
            raise ValueError(f"{path}: header dim {header['dim']} does not "
                             f"match {len(header['extents'])} extents and "
                             f"{len(header['resolution'])} resolutions")
        grid = GridSpec(tuple(tuple(e) for e in header["extents"]),
                        tuple(header["resolution"]))
        degree, value_type = header["degree"], header["valueType"]
        try:
            _check_kind(grid, degree, value_type)
        except ValueError as err:
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
