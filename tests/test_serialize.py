import json

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import serialize as sz
from conftest import SIGMA_Z, THETA_IRR, make_rng


DESCRIPTORS = [
    bk.MatrixAlgebra(2, (SIGMA_Z,)),
    bk.NCTorus(2, THETA_IRR),
    bk.nc_torus_rational(1, 1, 3),
    bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0)),
]


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=["matrix", "torus", "torus13", "z4"])
def test_descriptor_round_trip(desc):
    blob = desc.to_json()
    through_json = json.loads(json.dumps(blob))
    back = sz.descriptor_from_json(through_json)
    assert bk.same_backend(desc, back)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=["matrix", "torus", "torus13", "z4"])
def test_element_round_trip_is_exact(desc):
    rng = make_rng(110)
    a = bk.random_element(desc, rng)
    blob = sz.element_to_json(a)
    through_json = json.loads(json.dumps(blob))
    back = sz.element_from_json(through_json)
    assert np.array_equal(a.data, back.data)          # bit-exact, not just close
    assert bk.same_backend(a.backend, back.backend)


def test_awkward_floats_survive():
    desc = bk.CyclicGroup(2, (0.0, 1.0))
    data = np.array([np.pi * 1e-17 + 1j * (-0.0), 3.0000000000000004 - 1e300j])
    a = bk.element(desc, data)
    back = sz.element_from_json(json.loads(json.dumps(sz.element_to_json(a))))
    assert np.array_equal(a.data, back.data)


def test_element_json_shape_is_flat_row_major():
    t = bk.NCTorus(1, THETA_IRR)
    a = bk.monomial(t, 1, -1, 2.0 + 3.0j)   # row n=+1, column m=-1 -> index 6
    blob = sz.element_to_json(a)
    assert len(blob["data"]) == 9
    assert blob["data"][6] == [2.0, 3.0]


def test_unknown_backend_kind_rejected():
    with pytest.raises(ValueError):
        sz.descriptor_from_json({"kind": "free-group", "rank": 2})
