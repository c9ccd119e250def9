"""Every input gate rejects bad input the same way.

Each public entry point that takes matrices goes through one of the linalg
gates (a finite 2-D matrix, a set of same-shape finite matrices, a finite
Hermitian matrix), and every operation that needs a trace-preserving channel
goes through ``require_trace_preserving``.  These tests feed each entry
point the same bad inputs and expect the same exception types.
"""

import json

import numpy as np
import pytest

import xchan
from xchan.channels import (
    KrausChannel,
    apply,
    apply_to_matrix,
    check_extremal,
    check_trace_preserving,
    choi,
    kraus_from_choi,
)
from xchan.dilation import DilationModel, evolve_via_dilation, kraus_from_dilation, stinespring
from xchan.errors import NotHermitianError, NotTracePreservingError
from xchan.extremal import (
    ExtremalParams,
    build_extremal,
    pair_reduction_step,
    parameter_jacobian_rank,
    sample_extremal,
    sample_interior,
)
from xchan.linalg import ID2, SX, herm_eig, herm_eigvals, matrix_rank
from xchan.serialize import dump_channel, parse_channel
from xchan.states import DensityMatrix, random_density

HALF = np.eye(2) / 2

# name -> (call, a valid input); every call takes a set of matrices.
STACK_GATES = {
    "KrausChannel": (KrausChannel, [ID2]),
    "matrix_rank": (matrix_rank, [ID2, SX]),
    "build_extremal": (
        lambda us: build_extremal(ExtremalParams(np.full((2, 2), np.sqrt(0.5))), us),
        [ID2, SX],
    ),
    "pair_reduction_step": (lambda mats: pair_reduction_step(mats, 0), [HALF, HALF]),
}

# name -> (call, a valid input); every call takes one matrix.
MATRIX_GATES = {
    "DensityMatrix": (DensityMatrix, HALF),
    "herm_eig": (herm_eig, HALF),
    "herm_eigvals": (herm_eigvals, HALF),
    "DilationModel": (lambda u: DilationModel(dim_sys=2, dim_env=1, u=u), ID2),
    "apply_to_matrix": (lambda x: apply_to_matrix(KrausChannel([ID2]), x), HALF),
}


def _poisoned(good, value):
    bad = np.array(good, dtype=complex)
    bad.reshape(-1)[1] = value
    return bad


def _stack_cases():
    for name, (call, good) in STACK_GATES.items():
        yield name, call, good, "valid"
        yield name, call, _poisoned(good, np.nan), "nan"
        yield name, call, _poisoned(good, np.inf), "inf"
        yield name, call, [good[0], np.eye(3)], "ragged"
        # The rank of a set of r x c matrices is defined for r != c.
        if name != "matrix_rank":
            yield name, call, [np.ones((2, 3))] * len(good), "non-square"


def _matrix_cases():
    for name, (call, good) in MATRIX_GATES.items():
        yield name, call, good, "valid"
        yield name, call, _poisoned(good, np.nan), "nan"
        yield name, call, _poisoned(good, complex(0.0, np.inf)), "inf"
        yield name, call, [[0.5, 0.0], [0.0]], "ragged"
        yield name, call, np.ones((2, 3)) / 2, "non-square"


@pytest.mark.parametrize(
    "call,mats,kind",
    [pytest.param(c, m, k, id=f"{n}-{k}") for n, c, m, k in [*_stack_cases(), *_matrix_cases()]],
)
def test_bad_input_is_a_value_error(call, mats, kind):
    if kind == "valid":
        call(mats)
    else:
        with pytest.raises(ValueError):
            call(mats)


@pytest.mark.parametrize(
    "fields",
    [
        {"dim_sys": 2.0},
        {"dim_env": 1.0},
        {"env_state": 0.0},
        {"dim_sys": True, "dim_env": 2},
        {"env_state": False},
        {"env_state": True, "dim_env": 2},
        {"dim_sys": np.bool_(True), "dim_env": 2},
        {"dim_env": np.float64(1.0)},
        {"dim_sys": "2"},
        {"env_state": None},
    ],
)
def test_model_sizes_must_be_integers(fields):
    args = {"dim_sys": 2, "dim_env": 1, "u": np.eye(2), **fields}
    name = next(iter(fields))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        DilationModel(**args)


def test_numpy_integer_sizes_are_accepted():
    model = DilationModel(dim_sys=np.int64(2), dim_env=np.int32(2), u=np.eye(4), env_state=np.int64(1))
    rho = random_density(2, 0)
    assert np.allclose(evolve_via_dilation(model, rho).mat, rho.mat, atol=1e-15)
    assert len(kraus_from_dilation(model)) == 2


@pytest.mark.parametrize("call", [DensityMatrix, herm_eig, herm_eigvals])
def test_hermitian_gates_report_the_same_residual(call):
    skewed = HALF + np.array([[0.0, 1e-3], [0.0, 0.0]])
    with pytest.raises(NotHermitianError) as info:
        call(skewed)
    assert info.value.residual == 1e-3


@pytest.mark.parametrize(
    "call",
    [
        check_extremal,
        lambda ch: apply(ch, random_density(2, 0)),
        stinespring,
        lambda ch: parse_channel(dump_channel(ch)),
        lambda ch: xchan.channel_from_doc(json.loads(dump_channel(ch))),
    ],
    ids=["check_extremal", "apply", "stinespring", "parse_channel", "channel_from_doc"],
)
def test_non_trace_preserving_channels_raise_with_the_check_residual(call):
    ch = KrausChannel([0.5 * ID2, 0.5 * SX])
    with pytest.raises(NotTracePreservingError) as info:
        call(ch)
    assert info.value.residual == check_trace_preserving(ch).residual == 0.5


RANK_CUTOFFS = {
    "check_extremal": lambda t: check_extremal(sample_extremal(3, 1)[1], tol_rank=t),
    "matrix_rank": lambda t: matrix_rank([ID2, SX], tol_rank=t),
    "kraus_from_choi": lambda t: kraus_from_choi(choi(sample_extremal(3, 1)[1]), tol_rank=t),
    "parameter_jacobian_rank": lambda t: parameter_jacobian_rank(sample_interior(3, 1), rank_tol=t),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", RANK_CUTOFFS)
@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -1e-3, -1e-300])
def test_a_rank_cutoff_that_is_not_finite_and_non_negative_is_refused(name, tol):
    word = "rank_tol" if name == "parameter_jacobian_rank" else "tol_rank"
    with pytest.raises(ValueError) as info:
        RANK_CUTOFFS[name](tol)
    assert str(info.value) == f"{word} must be a finite number >= 0, got {tol!r}"


@pytest.mark.parametrize("name", RANK_CUTOFFS)
def test_finite_non_negative_rank_cutoffs_are_accepted(name):
    for tol in (0.0, 1e-9, 0.5):
        RANK_CUTOFFS[name](tol)
    assert check_extremal(sample_extremal(3, 1)[1], tol_rank=0.0).gram_rank == 9
    assert matrix_rank([ID2, SX], tol_rank=0.0) == 2


def test_public_api_is_pinned():
    assert sorted(xchan.__all__) == [
        "BlochAffine",
        "CheckResult",
        "ColumnOverflowError",
        "DensityMatrix",
        "DilationModel",
        "ExtremalParams",
        "ExtremalityResult",
        "KrausChannel",
        "NotHermitianError",
        "NotPSDError",
        "NotTracePreservingError",
        "NotUnitTraceError",
        "NuParams",
        "SchemaError",
        "SingularComplementError",
        "ValidationError",
        "apply",
        "apply_to_matrix",
        "bloch_affine",
        "bloch_to_rho",
        "build_extremal",
        "canonical_unitaries",
        "channel_from_doc",
        "channel_from_nu",
        "channel_to_doc",
        "check_extremal",
        "check_trace_orthogonal",
        "check_trace_preserving",
        "check_unital",
        "choi",
        "choi_min_eigenvalue",
        "choi_output_trace",
        "complete_last_diagonal",
        "convex_combine",
        "dump_channel",
        "dump_state",
        "ellipsoid_samples",
        "evolve_via_dilation",
        "image_bloch",
        "kraus_from_choi",
        "kraus_from_dilation",
        "nu_to_diagonals",
        "pair_reduction_step",
        "parameter_jacobian_rank",
        "parse_channel",
        "parse_state",
        "predicted_translation",
        "random_density",
        "rho_to_bloch",
        "sample_extremal",
        "sample_interior",
        "state_from_doc",
        "state_to_doc",
        "stinespring",
        "validate_density",
    ]
