import numpy as np
import pytest

from xchan.errors import NotHermitianError
from xchan.linalg import (
    ID2,
    PAULIS,
    SX,
    SY,
    SZ,
    as_complex,
    dagger,
    herm_eig,
    herm_eigvals,
    herm_residual,
    matrix_rank,
    partial_trace,
    real_if_exact,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_dagger_conjugate_transposes():
    m = np.array([[1.0, 2.0 + 1j], [3j, 4.0]])
    expected = np.array([[1.0, -3j], [2.0 - 1j, 4.0]])
    assert np.array_equal(dagger(m), expected)


def test_paulis_square_to_identity_and_are_traceless():
    for s in PAULIS:
        assert np.allclose(s @ s, ID2)
        assert abs(np.trace(s)) == 0.0
    assert np.allclose(SX @ SY, 1j * SZ)


def test_as_complex_rejects_non_matrix_and_non_finite():
    with pytest.raises(ValueError):
        as_complex(np.ones(3))
    with pytest.raises(ValueError):
        as_complex(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_complex(np.array([[np.inf * 1j, 0.0], [0.0, 1.0]]))


def test_herm_residual_zero_for_hermitian():
    h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    assert herm_residual(h) == 0.0
    assert herm_residual(h + 1e-3 * 1j * np.eye(2)) == pytest.approx(2e-3)


@pytest.mark.parametrize("dim_sys,dim_env", [(2, 2), (3, 2), (2, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_trace_matches_index_loop(dim_sys, dim_env, seed):
    rng = np.random.default_rng(seed)
    dim = dim_sys * dim_env
    m = random_complex(rng, dim, dim)

    env = np.zeros((dim_sys, dim_sys), dtype=complex)
    sys_ = np.zeros((dim_env, dim_env), dtype=complex)
    for i in range(dim_sys):
        for j in range(dim_sys):
            for a in range(dim_env):
                env[i, j] += m[i * dim_env + a, j * dim_env + a]
    for a in range(dim_env):
        for b in range(dim_env):
            for i in range(dim_sys):
                sys_[a, b] += m[i * dim_env + a, i * dim_env + b]

    assert np.allclose(partial_trace(m, dim_sys, dim_env, over="env"), env)
    assert np.allclose(partial_trace(m, dim_sys, dim_env, over="sys"), sys_)


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 2, 2)
    assert np.allclose(
        partial_trace(np.kron(a, b), 3, 2, over="env"), a * np.trace(b)
    )
    assert np.allclose(
        partial_trace(np.kron(a, b), 3, 2, over="sys"), b * np.trace(a)
    )


def test_partial_trace_rejects_bad_shapes_and_axis():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), 2, 2)
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 2, 2, over="both")


def test_herm_eig_descending_and_reconstructs():
    rng = np.random.default_rng(3)
    g = random_complex(rng, 4, 4)
    h = g + dagger(g)
    w, v = herm_eig(h)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose((v * w) @ dagger(v), h)
    assert np.allclose(dagger(v) @ v, np.eye(4))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eigvals_match_herm_eig_and_reject_non_hermitian():
    rng = np.random.default_rng(4)
    g = random_complex(rng, 5, 5)
    h = g + dagger(g)
    w = herm_eigvals(h)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(w, herm_eig(h)[0], atol=1e-12)
    with pytest.raises(NotHermitianError):
        herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_rank_counts_independent_directions():
    assert matrix_rank([ID2, SX, SY, SZ]) == 4
    assert matrix_rank([ID2, 2.0 * ID2]) == 1
    assert matrix_rank([np.zeros((2, 2))]) == 0


def test_matrix_rank_input_validation():
    with pytest.raises(ValueError):
        matrix_rank([])
    with pytest.raises(ValueError):
        matrix_rank([ID2, np.eye(3)])


def test_real_if_exact_views_exactly_real_input():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = real_if_exact(m)
    assert out.dtype == np.float64
    assert np.shares_memory(out, m)
    assert np.array_equal(out, m.real)

    signed = np.array([[1.0, complex(2.0, -0.0)], [3.0, 4.0]], dtype=complex)
    assert np.signbit(signed.imag).any()
    out = real_if_exact(signed)
    assert out.dtype == np.float64
    assert np.shares_memory(out, signed)


def test_real_if_exact_keeps_any_nonzero_imaginary_part():
    m = np.eye(3, dtype=complex)
    m[2, 1] = 1e-300j
    assert real_if_exact(m) is m


def test_real_if_exact_passes_float_input_through():
    m = np.eye(3)
    assert real_if_exact(m) is m


@pytest.mark.parametrize("imag", [0.0, 1.0])
def test_herm_eig_returns_complex_vectors_on_either_path(imag):
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 5)) + imag * 1j * rng.standard_normal((5, 5))
    h = a + dagger(a)
    w, v = herm_eig(h)
    assert w.dtype == np.float64
    assert v.dtype == np.complex128
    assert np.allclose(v @ np.diag(w) @ dagger(v), h)
