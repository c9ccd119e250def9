import numpy as np
import pytest
from helpers import damping_channel

from xchan.channels import KrausChannel, apply
from xchan.dilation import (
    DilationModel,
    evolve_via_dilation,
    kraus_from_dilation,
    stinespring,
)
from xchan.errors import NotTracePreservingError, ValidationError
from xchan.extremal import sample_extremal
from xchan.linalg import ENTRY_MAX, ID2, dagger
from xchan.states import DensityMatrix, random_density


def test_identity_channel_dilates_to_the_identity():
    model = stinespring(KrausChannel((ID2,)))
    assert model.dim_sys == 2
    assert model.dim_env == 1
    assert np.allclose(model.u, ID2)


def test_full_damping_dilation_columns():
    ch = damping_channel(1.0)
    model = stinespring(ch)
    assert model.u.shape == (4, 4)
    basis_env = np.eye(2, dtype=complex)
    isometry = sum(
        np.kron(c, basis_env[:, [i]]) for i, c in enumerate(ch.kraus)
    )
    # Input states ride on env slot 0: composite columns 0 and 2.
    assert np.allclose(model.u[:, [0, 2]], isometry)
    assert np.allclose(dagger(model.u) @ model.u, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_dilation_unitarity(n, seed):
    _, ch = sample_extremal(n, seed)
    model = stinespring(ch)
    total = model.dim_sys * model.dim_env
    assert model.dim_env == len(ch) <= n
    residual = np.max(np.abs(dagger(model.u) @ model.u - np.eye(total)))
    assert residual < 1e-10


def test_dilation_is_deterministic():
    _, ch = sample_extremal(3, 14)
    a = stinespring(ch)
    b = stinespring(ch)
    assert np.array_equal(a.u, b.u)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_qr_completion_keeps_the_isometry_and_is_deterministic(n):
    _, ch = sample_extremal(n, seed=40 + n)
    model = stinespring(ch)
    k = len(ch)
    total = n * k
    basis_env = np.eye(k, dtype=complex)
    isometry = sum(np.kron(c, basis_env[:, [i]]) for i, c in enumerate(ch.kraus))
    assert np.array_equal(model.u[:, ::k], isometry)
    residual = np.max(np.abs(dagger(model.u) @ model.u - np.eye(total)))
    assert residual <= 1e-10
    assert model.u.tobytes() == stinespring(ch).u.tobytes()


def test_evolution_through_identity_dilation():
    model = stinespring(KrausChannel((ID2,)))
    rho = random_density(2, 0)
    assert np.allclose(evolve_via_dilation(model, rho).mat, rho.mat)


def test_full_damping_sends_mixed_state_to_ground():
    model = stinespring(damping_channel(1.0))
    rho = DensityMatrix(np.eye(2) / 2)
    out = evolve_via_dilation(model, rho)
    assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_dilation_evolution_matches_operator_sum(n, seed):
    _, ch = sample_extremal(n, seed)
    model = stinespring(ch)
    rho = random_density(n, seed + 500)
    via_u = evolve_via_dilation(model, rho)
    direct = apply(ch, rho)
    assert np.max(np.abs(via_u.mat - direct.mat)) < 1e-10


@pytest.mark.parametrize("n", [8, 16])
def test_environment_projector_evolution_matches_apply(n):
    _, ch = sample_extremal(n, seed=90 + n)
    model = stinespring(ch)
    rho = random_density(n, seed=n)
    via_u = evolve_via_dilation(model, rho)
    assert np.max(np.abs(via_u.mat - apply(ch, rho).mat)) <= 1e-12


def test_kraus_operators_recoverable_from_the_unitary():
    _, ch = sample_extremal(3, 77)
    model = stinespring(ch)
    back = kraus_from_dilation(model)
    assert len(back) == len(ch)
    for original, recovered in zip(ch.kraus, back.kraus):
        assert np.allclose(original, recovered, atol=1e-14)


def test_stinespring_rejects_non_trace_preserving_channels():
    with pytest.raises(NotTracePreservingError):
        stinespring(KrausChannel((0.5 * ID2,)))


def test_model_validation():
    with pytest.raises(ValidationError):
        DilationModel(dim_sys=2, dim_env=1, u=2.0 * np.eye(2))
    with pytest.raises(ValueError):
        DilationModel(dim_sys=2, dim_env=2, u=np.eye(3))
    with pytest.raises(ValueError):
        DilationModel(dim_sys=2, dim_env=1, u=np.eye(2), env_state=1)


def test_evolution_rejects_dimension_mismatch():
    model = stinespring(damping_channel(0.5))
    with pytest.raises(ValueError):
        evolve_via_dilation(model, random_density(3, 0))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_model_keeps_its_unitarity_residual(n):
    _, ch = sample_extremal(n, 21)
    model = stinespring(ch)
    total = model.dim_sys * model.dim_env
    expected = float(np.max(np.abs(dagger(model.u) @ model.u - np.eye(total))))
    assert model.unitarity_residual == expected
    assert "unitarity_residual" not in repr(model)
    with pytest.raises(TypeError):
        DilationModel(dim_sys=1, dim_env=1, u=np.eye(1), unitarity_residual=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_given_unitary_beyond_the_entry_bound_is_refused_after_its_shape():
    with pytest.raises(ValueError, match=r"^matrix has a real or imaginary part beyond 1e\+150$"):
        DilationModel(1, 1, np.array([[1e308]]))
    with pytest.raises(ValueError, match="^unitary must be 1x1"):
        DilationModel(1, 1, np.full((2, 2), 1e308))
    # At the bound the unitarity check decides.
    with pytest.raises(ValidationError, match="u is not unitary"):
        DilationModel(1, 1, np.array([[ENTRY_MAX]]))
