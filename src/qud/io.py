"""State and basis files: JSON with complex entries encoded as [re, im].

A state file is {"dim": d, "rho": d x d rows of [re, im]}. A basis file is
{"dim": d, "columns": d kets, each a list of d [re, im] pairs}. Validation
failures raise SchemaError naming the file and the offending field.
"""

import json

import numpy as np

from .errors import SchemaError, ValidationError
from .qstate import DensityMatrix, OrthonormalBasis, make_basis, make_density


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _read_dim(path, data):
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "dim" not in data:
        raise SchemaError(f"{path}: missing field 'dim'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise SchemaError(f"{path}: 'dim' must be an integer >= 2, got {dim!r}")
    return dim


def _complex_rows(path, rows, field, dim):
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(f"{path}: '{field}' must be a list of {dim} rows")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{path}: '{field}[{i}]' must be a list of {dim} entries")
        for j, cell in enumerate(row):
            ok = (
                isinstance(cell, list)
                and len(cell) == 2
                and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell
                )
            )
            if not ok:
                raise SchemaError(f"{path}: '{field}[{i}][{j}]' must be [re, im]")
            try:
                out[i, j] = complex(cell[0], cell[1])
            except OverflowError:
                raise SchemaError(
                    f"{path}: '{field}[{i}][{j}]' holds an integer too large for a float"
                ) from None
    return out


def _load(path, field, make):
    """Read `path`'s dim and d x d `field`, then build the object with `make`."""
    data = _load_json(path)
    dim = _read_dim(path, data)
    if field not in data:
        raise SchemaError(f"{path}: missing field '{field}'")
    matrix = _complex_rows(path, data[field], field, dim)
    try:
        return make(matrix)
    except ValidationError as exc:
        raise SchemaError(f"{path}: '{field}' rejected: {exc}") from None


def load_state(path) -> DensityMatrix:
    return _load(path, "rho", make_density)


def load_basis(path) -> OrthonormalBasis:
    # columns[k] is ket k; internal layout keeps kets as matrix columns
    return _load(path, "columns", lambda rows: make_basis(rows.T))


def _pairs(matrix):
    return [
        [[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.asarray(matrix)
    ]


def _state_record(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "rho": _pairs(rho.matrix)}


def _basis_record(basis: OrthonormalBasis) -> dict:
    return {"dim": basis.dim, "columns": _pairs(basis.kets.T)}


def save_state(path, rho: DensityMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_state_record(rho), fh)
        fh.write("\n")


def save_basis(path, basis: OrthonormalBasis) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_basis_record(basis), fh)
        fh.write("\n")
