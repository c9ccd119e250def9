"""The array-holding value classes compare and hash by identity.

Field-wise ``==`` would compare numpy arrays, whose truth value is
ambiguous, so these dataclasses are declared with ``eq=False``: ``a == b``
holds only for the same object, and every instance can go in a set.
"""

import numpy as np
import pytest

from xchan.channels import KrausChannel
from xchan.dilation import DilationModel
from xchan.extremal import ExtremalParams
from xchan.linalg import ID2
from xchan.qubit import BlochAffine
from xchan.states import DensityMatrix

MAKERS = {
    "KrausChannel": lambda: KrausChannel([ID2]),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "DilationModel": lambda: DilationModel(dim_sys=2, dim_env=1, u=ID2),
    "ExtremalParams": lambda: ExtremalParams(np.full((2, 2), np.sqrt(0.5))),
    "BlochAffine": lambda: BlochAffine(np.eye(3), np.zeros(3)),
}


@pytest.mark.parametrize("name", MAKERS)
def test_equality_and_hash_are_identity(name):
    make = MAKERS[name]
    a, b = make(), make()
    assert a == a
    assert a != b
    assert not a == b
    assert {a} == {a}
    assert len({a, b, a}) == 2
    assert {a: 1}[a] == 1
