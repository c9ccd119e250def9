import numpy as np
import pytest

from xchan.errors import (
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    ValidationError,
)
from xchan.linalg import _BLOCK_MIN_DIM, ENTRY_MAX, _hermitian_blocks, _splits
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


# ---------------------------------------------------------------------------
# The state gate's refusals: order, types, messages and residuals.


def hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def dyadic_state(n: int, pattern: str, a: float) -> np.ndarray:
    """A real matrix with eigenvalues 1/n + a, 1/n - a and 1/n otherwise,
    trace 1, every entry a dyadic rational formed exactly.

    ``dense``: H diag(lambda) H^T / n with the Sylvester Hadamard matrix H,
    one block.  ``split``: the eigenvalues in pairs, each pair's 2 x 2 block
    on the diagonal, so the pattern splits into two 2 x 2 blocks and n - 4
    singletons (one 2 x 2 block at N = 2).
    """
    lam = np.full(n, 1.0 / n)
    lam[0] += a
    lam[-1] -= a
    if pattern == "dense":
        h = hadamard(n)
        return (h * lam) @ h.T / n
    h = hadamard(2)
    m = np.zeros((n, n))
    for i in range(0, n, 2):
        m[i:i + 2, i:i + 2] = (h * lam[i:i + 2]) @ h.T / 2
    return m


def state_case(kind: str, n: int, pattern: str) -> np.ndarray:
    valid = dyadic_state(n, pattern, 0.5 / n)
    indefinite = dyadic_state(n, pattern, 1.0 / n + 1 / 32)  # least eigenvalue -1/32
    if kind == "valid":
        return valid
    if kind == "psd":
        return indefinite
    if kind == "trace":
        return valid * (1 + 2**-10)
    if kind == "trace and psd":
        return indefinite * (1 + 2**-10)
    if kind == "not hermitian":
        m = valid.copy()
        m[0, -1] += 1 / 16
        return m
    if kind == "nan":
        m = valid.copy()
        m[0, -1] = np.nan
        return m
    if kind == "not square":
        return valid[:, :-1]
    assert kind == "3-d"
    return valid[None]


# Type, message and residual (None where the error carries none).  The PSD
# residual is the least eigenvalue, pinned below to one eigvalsh of the whole
# matrix.
REFUSALS = {
    "valid": None,
    "psd": (NotPSDError, "state has a negative eigenvalue (residual -3.125e-02)", None),
    "trace": (NotUnitTraceError, "state trace is not 1 (residual 9.766e-04)", 2**-10),
    "trace and psd": (NotUnitTraceError, "state trace is not 1 (residual 9.766e-04)", 2**-10),
    "not hermitian": (NotHermitianError, "matrix is not Hermitian (residual 6.250e-02)", 1 / 16),
    "nan": (ValueError, "matrix has non-finite entries", None),
    "not square": (ValueError, "expected a square matrix, got shape ({n}, {m})", None),
    "3-d": (ValueError, "expected a 2-D matrix, got ndim=3", None),
}


@pytest.mark.parametrize("kind", list(REFUSALS))
@pytest.mark.parametrize("pattern", ["dense", "split"])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_the_state_gate_refuses_in_order_with_the_same_residuals(n, pattern, kind):
    m = state_case(kind, n, pattern)
    if n == 64:
        # At N = 64 a split state takes the block path of the Hermitian gate.
        assert n >= _BLOCK_MIN_DIM
        whole = dyadic_state(n, pattern, 1.0 / n + 1 / 32)
        assert _splits(_hermitian_blocks(whole)) == (pattern == "split")
    expected = REFUSALS[kind]
    if expected is None:
        assert np.array_equal(DensityMatrix(m).mat, m)
        return
    error, message, residual = expected
    with pytest.raises(ValueError) as err:
        DensityMatrix(m)
    assert type(err.value) is error
    assert str(err.value) == message.format(n=n, m=n - 1)
    if kind == "psd":
        residual = float(np.linalg.eigvalsh(m).min())
        assert residual == pytest.approx(-1 / 32, abs=1e-15)
    assert getattr(err.value, "residual", None) == residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "m",
    [np.diag([1e308, 1e308]), np.full((64, 64), 1e307), np.diag([1.0, 0.0, 1j * 2e150])],
    ids=["diagonal", "dense", "imaginary"],
)
def test_the_state_gate_refuses_parts_beyond_the_entry_bound_first(m):
    # The Kraus sets' bound, checked before any sum that could overflow.
    with pytest.raises(ValueError) as err:
        DensityMatrix(m)
    assert type(err.value) is ValueError
    assert str(err.value) == "matrix has a real or imaginary part beyond 1e+150"


def test_a_state_at_the_entry_bound_reaches_the_trace_check_and_keeps_its_layout():
    with pytest.raises(NotUnitTraceError):
        DensityMatrix(np.diag([ENTRY_MAX, 0.0]))
    m = np.asfortranarray(dyadic_state(4, "dense", 1 / 8))
    state = DensityMatrix(m)
    assert state.mat.flags.f_contiguous and np.array_equal(state.mat, m)
