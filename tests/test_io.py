import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.errors import SchemaError
from qud.io import load_basis, load_state, save_basis, save_state
from qud.qstate import fourier_basis, make_density

from conftest import sample


def test_state_round_trip(tmp_path):
    rho = sample("haar_state_mixed", 3, 5)
    path = tmp_path / "state.json"
    save_state(path, rho)
    loaded = load_state(path)
    assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)
    data = json.loads(path.read_text())
    assert data["dim"] == 3
    assert len(data["rho"]) == 3 and len(data["rho"][0][0]) == 2


def test_basis_round_trip(tmp_path):
    basis = fourier_basis(3)
    path = tmp_path / "basis.json"
    save_basis(path, basis)
    loaded = load_basis(path)
    assert_allclose(loaded.kets, basis.kets, atol=1e-15)
    data = json.loads(path.read_text())
    # columns[k] holds ket k
    assert_allclose(
        [complex(re, im) for re, im in data["columns"][1]], basis.kets[:, 1], atol=1e-15
    )


def test_load_state_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n "rho": [[[1, 0], ]]}')
    with pytest.raises(SchemaError, match="line"):
        load_state(path)


def test_load_state_missing_field(tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text('{"dim": 2}')
    with pytest.raises(SchemaError, match="rho"):
        load_state(path)


def test_load_state_dim_mismatch(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": 3, "rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}))
    with pytest.raises(SchemaError):
        load_state(path)


def test_load_state_bad_pair(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"dim": 2, "rho": [[[0.5, 0], [0]], [[0, 0], [0.5, 0]]]}))
    with pytest.raises(SchemaError, match=r"rho\[0\]\[1\]"):
        load_state(path)


def test_load_state_rejects_invalid_state(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"dim": 2, "rho": [[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]}))
    with pytest.raises(SchemaError):
        load_state(path)


def test_load_basis_rejects_non_orthonormal(tmp_path):
    path = tmp_path / "skew.json"
    cols = [[[1, 0], [0, 0]], [[1, 0], [1, 0]]]
    path.write_text(json.dumps({"dim": 2, "columns": cols}))
    with pytest.raises(SchemaError):
        load_basis(path)


def test_load_state_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_state(tmp_path / "absent.json")


def test_save_load_preserves_complex_phases(tmp_path):
    rho = make_density(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    path = tmp_path / "phase.json"
    save_state(path, rho)
    assert_allclose(load_state(path).matrix, rho.matrix, atol=1e-15)


HALF = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]


@pytest.mark.parametrize("data, match", [
    ([2, HALF], "top level must be an object"),
    ({"rho": HALF}, "missing field 'dim'"),
    ({"dim": True, "rho": HALF}, "'dim' must be an integer >= 2, got True"),
    ({"dim": 1, "rho": HALF}, "'dim' must be an integer >= 2, got 1"),
    ({"dim": "2", "rho": HALF}, "'dim' must be an integer >= 2, got '2'"),
    ({"dim": 2, "rho": [HALF[0], [[0, 0]]]}, r"'rho\[1\]' must be a list of 2 entries"),
], ids=["not_an_object", "no_dim", "dim_true", "dim_1", "dim_text", "short_row"])
def test_load_state_names_the_bad_field(tmp_path, data, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=match):
        load_state(path)


def test_load_basis_missing_columns(tmp_path):
    path = tmp_path / "nocolumns.json"
    path.write_text('{"dim": 2}')
    with pytest.raises(SchemaError, match="missing field 'columns'"):
        load_basis(path)
