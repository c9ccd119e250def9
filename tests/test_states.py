import numpy as np
import pytest

from xchan.errors import (
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    ValidationError,
)
from xchan.states import (
    DensityMatrix,
    bloch_to_rho,
    random_density,
    rho_to_bloch,
    validate_density,
)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_random_density_is_a_valid_state(dim, seed):
    rho = random_density(dim, seed)
    assert rho.dim == dim
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.mat).min() >= -1e-12


def test_random_density_is_deterministic_in_the_seed():
    a = random_density(3, 42)
    b = random_density(3, 42)
    c = random_density(3, 43)
    assert np.array_equal(a.mat, b.mat)
    assert not np.array_equal(a.mat, c.mat)


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_rejects_wrong_trace():
    with pytest.raises(NotUnitTraceError):
        DensityMatrix(np.eye(2))


def test_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_validate_density_wraps_and_checks():
    rho = validate_density([[0.5, 0.0], [0.0, 0.5]])
    assert isinstance(rho, DensityMatrix)
    with pytest.raises(NotUnitTraceError):
        validate_density(np.zeros((2, 2)))


def test_state_matrix_is_immutable():
    rho = random_density(2, 1)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 99.0


def test_bloch_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = rng.standard_normal(3)
        w = w / np.linalg.norm(w) * rng.uniform(0.0, 1.0)
        assert np.allclose(rho_to_bloch(bloch_to_rho(w)), w, atol=1e-14)


def test_bloch_poles_are_basis_projectors():
    north = bloch_to_rho([0.0, 0.0, 1.0])
    assert np.allclose(north.mat, np.diag([1.0, 0.0]))
    center = bloch_to_rho([0.0, 0.0, 0.0])
    assert np.allclose(center.mat, np.eye(2) / 2)


def test_bloch_vector_outside_ball_is_rejected():
    with pytest.raises(ValidationError):
        bloch_to_rho([1.01, 0.0, 0.0])
    with pytest.raises(ValueError):
        bloch_to_rho([1.0, 0.0])


def test_bloch_readout_needs_a_qubit():
    with pytest.raises(ValueError):
        rho_to_bloch(random_density(3, 0))


def test_tolerance_table_keeps_the_former_literals():
    from xchan import states, tolerances

    assert states.TOL_TRACE is tolerances.TOL_TRACE
    assert states.TOL_BLOCH_NORM is tolerances.TOL_BLOCH_NORM
    assert (
        tolerances.TOL_TRACE,
        tolerances.TOL_BLOCH_NORM,
        tolerances.TOL_WEIGHT_SUM,
        tolerances.TOL_COLUMN_SUM,
        tolerances.TOL_SINGULAR,
    ) == (1e-10, 1e-10, 1e-12, 1e-10, 1e-8)
