import math

import numpy as np
import pytest

from xchan.channels import (
    KrausChannel,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    choi,
    choi_min_eigenvalue,
)
from xchan.errors import (
    ColumnOverflowError,
    SingularComplementError,
    ValidationError,
)
from xchan.extremal import (
    JACOBIAN_RANK_TOL,
    ExtremalParams,
    _difference_jacobian,
    _exact_jacobian,
    build_extremal,
    canonical_unitaries,
    complete_last_diagonal,
    pair_reduction_step,
    parameter_jacobian_rank,
    sample_extremal,
    sample_interior,
)
from xchan.linalg import ID2, SX, dagger


def test_canonical_unitaries_n2():
    us = canonical_unitaries(2)
    assert np.array_equal(us[0], ID2)
    assert np.array_equal(us[1], SX)


def test_canonical_unitaries_n3_are_the_fixed_permutations():
    us = canonical_unitaries(3)
    expected = [
        np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ]
    for u, e in zip(us, expected):
        assert np.array_equal(u, e.astype(complex))


def test_canonical_unitaries_n4_are_the_two_qubit_flips():
    us = canonical_unitaries(4)
    assert np.array_equal(us[0], np.eye(4, dtype=complex))
    assert np.array_equal(us[1], np.kron(ID2, SX))
    assert np.array_equal(us[2], np.kron(SX, ID2))
    assert np.array_equal(us[3], np.kron(SX, SX))


def test_canonical_unitaries_n5_are_cyclic_shift_powers():
    us = canonical_unitaries(5)
    shift = us[1]
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.array_equal(shift @ e0, np.eye(5)[:, 1])
    for i, u in enumerate(us):
        assert np.allclose(u, np.linalg.matrix_power(shift, i))


@pytest.mark.parametrize("n", range(5, 21))
def test_canonical_unitaries_equal_the_shift_powers_bitwise(n):
    shift = np.zeros((n, n), dtype=complex)
    for m in range(n):
        shift[(m + 1) % n, m] = 1.0
    us = canonical_unitaries(n)
    assert isinstance(us, list) and len(us) == n
    for i, u in enumerate(us):
        expected = np.linalg.matrix_power(shift, i)
        assert u.dtype == np.complex128 and u.shape == (n, n)
        assert u.tobytes() == expected.tobytes()


def test_canonical_unitaries_equal_the_kron_construction_bitwise():
    expected = {
        2: [ID2, SX],
        3: [
            np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
            np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
            np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
        ],
        4: [
            np.eye(4, dtype=complex),
            np.kron(ID2, SX),
            np.kron(SX, ID2),
            np.kron(SX, SX),
        ],
    }
    for n, mats in expected.items():
        us = canonical_unitaries(n)
        assert isinstance(us, list) and len(us) == n
        for u, e in zip(us, mats):
            assert u.dtype == e.dtype and u.shape == e.shape
            assert u.tobytes() == e.tobytes()


def test_canonical_unitaries_are_fresh_arrays():
    first, second = canonical_unitaries(4), canonical_unitaries(4)
    first[0][0, 0] = 5.0
    assert second[0][0, 0] == 1.0
    assert canonical_unitaries(4)[0][0, 0] == 1.0


@pytest.mark.parametrize("n", range(2, 17))
def test_canonical_unitaries_partition_the_positions(n):
    # The Jacobian's full-rank proof rests on this: every position (r, c) holds an
    # exact 1 in one U_i and an exact 0 in every other.
    us = np.asarray(canonical_unitaries(n))
    assert np.all((us == 0) | (us == 1))
    assert np.array_equal((us == 1).sum(axis=0), np.ones((n, n), dtype=int))


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_unitaries_invariants(n):
    us = canonical_unitaries(n)
    assert len(us) == n
    for u in us:
        assert np.max(np.abs(dagger(u) @ u - np.eye(n))) < 1e-14
    for i, ui in enumerate(us):
        for j, uj in enumerate(us):
            if i != j:
                assert np.max(np.abs(np.diag(dagger(ui) @ uj))) < 1e-12


def test_canonical_unitaries_rejects_small_n():
    with pytest.raises(ValueError):
        canonical_unitaries(1)


def test_params_validation():
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert ExtremalParams(good).n == 2
    with pytest.raises(ValidationError):
        ExtremalParams(np.array([[0.9, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        ExtremalParams(np.array([[1.2, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ExtremalParams(np.ones((2, 3)))


def test_complete_last_diagonal_trivial_column():
    p = complete_last_diagonal(np.array([[1.0, 0.0]]))
    assert np.allclose(p.diagonals, [[1.0, 0.0], [0.0, 1.0]])


def test_complete_last_diagonal_scalar_sqrt_values():
    p = complete_last_diagonal(np.array([[0.9797, 0.6635]]))
    assert p.diagonals[1][0] == pytest.approx(
        math.sqrt(1.0 - 0.9797**2), abs=1e-15
    )
    assert p.diagonals[1][1] == pytest.approx(
        math.sqrt(1.0 - 0.6635**2), abs=1e-15
    )
    assert p.diagonals[1][0] == pytest.approx(0.2005, abs=5e-5)
    assert p.diagonals[1][1] == pytest.approx(0.7482, abs=5e-5)


def test_complete_last_diagonal_reports_overflowing_column():
    with pytest.raises(ColumnOverflowError) as info:
        complete_last_diagonal(np.array([[1.2, 0.0]]))
    assert info.value.column == 0
    assert info.value.excess == pytest.approx(0.44)


def test_complete_last_diagonal_rejects_bad_input():
    with pytest.raises(ValidationError):
        complete_last_diagonal(np.array([[-0.1, 0.0]]))
    with pytest.raises(ValueError):
        complete_last_diagonal(np.ones((2, 2)))


@pytest.mark.parametrize(
    "partials,error",
    [
        ([[np.nan, 0.0]], ValueError),
        ([[np.nan, 1.2]], ValueError),
        ([[np.inf, 0.0]], ValueError),
        ([[-np.inf, 0.0]], ValueError),
        ([[-0.1, 0.0]], ValidationError),
        ([[-2.0, 0.0]], ValidationError),
        ([[1.5, -0.1]], ValidationError),
        ([[0.0, 1.2, 1.5], [0.0, 0.1, 0.1]], ColumnOverflowError),
        ([[0.5, 1e200]], ColumnOverflowError),
    ],
)
def test_complete_last_diagonal_reports_bad_entries_before_overflow(partials, error):
    # ExtremalParams checks the completed array; a non-finite or negative
    # entry is still reported ahead of a column overflow, and none of them
    # raises a RuntimeWarning on the way.
    with pytest.raises(error) as info:
        complete_last_diagonal(np.array(partials))
    assert type(info.value) is error
    if error is ColumnOverflowError:
        assert info.value.column == 1


def test_build_extremal_drops_zero_operators():
    ch = build_extremal(ExtremalParams(np.array([[1.0, 1.0], [0.0, 0.0]])))
    assert len(ch) == 1
    assert np.allclose(ch.kraus[0], ID2)


def test_build_extremal_full_damping():
    ch = build_extremal(ExtremalParams(np.array([[1.0, 0.0], [0.0, 1.0]])))
    assert np.allclose(ch.kraus[0], np.diag([1.0, 0.0]))
    assert np.allclose(ch.kraus[1], np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_build_extremal_n3_example_passes_checks():
    p = complete_last_diagonal(
        np.array([[0.6, 0.5, 0.4], [0.5, 0.6, 0.3]])
    )
    ch = build_extremal(p)
    assert check_trace_preserving(ch).residual < 1e-12
    assert check_trace_orthogonal(ch).residual < 1e-12


def test_build_extremal_validates_unitary_count_and_shape():
    p = ExtremalParams(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        build_extremal(p, unitaries=[ID2])
    with pytest.raises(ValueError):
        build_extremal(p, unitaries=[np.eye(3), np.eye(3)])


def test_sample_extremal_is_deterministic():
    _, a = sample_extremal(3, 21)
    _, b = sample_extremal(3, 21)
    _, c = sample_extremal(3, 22)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    assert not all(np.array_equal(x, y) for x, y in zip(a.kraus, c.kraus))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_sampled_channels_satisfy_defining_conditions(n, seed):
    params, ch = sample_extremal(n, seed)
    assert params.n == n
    assert check_trace_preserving(ch).residual < 1e-10
    assert check_trace_orthogonal(ch).residual < 1e-12
    assert choi_min_eigenvalue(choi(ch)) >= -1e-12
    assert check_extremal(ch).extremal


@pytest.mark.parametrize("n", [2, 3, 4])
def test_choi_rank_is_the_operator_count(n):
    _, ch = sample_extremal(n, seed=33)
    w = np.linalg.eigvalsh(choi(ch))
    rank = int(np.sum(w > 1e-10 * w.max()))
    assert rank == len(ch) <= n


@pytest.mark.parametrize("n", [2, 3, 4, *range(11, 17)])
def test_jacobian_rank_equals_free_parameter_count(n):
    params = sample_interior(n, seed=60 + n)
    assert parameter_jacobian_rank(params) == n * n - n


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_jacobian_rank_matches_finite_differences(n):
    for seed in range(5):
        params = sample_interior(n, seed=300 + seed)
        exact = parameter_jacobian_rank(params)
        assert exact == parameter_jacobian_rank(params, step=1e-5)
        assert exact == n * n - n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_exact_jacobian_matches_differences_entrywise(n):
    params = sample_interior(n, seed=70 + n)
    d = params.diagonals
    unitaries = canonical_unitaries(n)
    exact = _exact_jacobian(d, unitaries)
    diff = _difference_jacobian(d, unitaries, 1e-5)
    # The canonical unitaries are real, so the exact rows are the real parts
    # of the support entries (p, q) with p <= q.  Scatter each row to both
    # (p, q) and (q, p) of the full real embedding; its imaginary half
    # stays zero.
    mag = np.abs(np.asarray(unitaries)).transpose(0, 2, 1).reshape(n, n * n)
    p, q = np.nonzero(np.triu(mag.T @ mag))
    assert exact.shape == (p.size, n * n - n)
    full = np.zeros_like(diff)
    full[p * n * n + q] = exact
    full[q * n * n + p] = exact
    assert np.max(np.abs(full - diff)) < 1e-6 * np.max(np.abs(diff))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_exact_jacobian_of_complex_unitaries_matches_differences(n, haar_unitary):
    # W U_i keeps every U_i^dag U_j, so the family and its rank are the same,
    # but the rows are complex and the support is dense: the exact Jacobian
    # stacks the real and the imaginary parts of the entries with p <= q.
    params = sample_interior(n, seed=80 + n)
    d = params.diagonals
    w = haar_unitary(n, n)
    unitaries = [w @ u for u in canonical_unitaries(n)]
    exact = _exact_jacobian(d, unitaries)
    diff = _difference_jacobian(d, unitaries, 1e-5)
    p, q = np.triu_indices(n * n)
    assert exact.shape == (2 * p.size, n * n - n)
    re, im = exact[: p.size], exact[p.size :]
    full = np.zeros_like(diff)
    full[p * n * n + q] = re
    full[q * n * n + p] = re
    full[n**4 + p * n * n + q] = im
    full[n**4 + q * n * n + p] = -im
    assert np.max(np.abs(full - diff)) < 1e-6 * np.max(np.abs(diff))
    s = np.linalg.svd(exact, compute_uv=False)
    assert np.sum(s > JACOBIAN_RANK_TOL * s[0]) == n * n - n


def _rotation(theta: np.ndarray) -> np.ndarray:
    """exp(iH) for the Hermitian H with n^2 real coordinates ``theta``:
    diagonal, then real and imaginary parts above the diagonal."""
    n = math.isqrt(theta.size)
    iu = np.triu_indices(n, 1)
    h = np.diag(theta[:n]).astype(complex)
    h[iu] = theta[n : n + iu[0].size] + 1j * theta[n + iu[0].size :]
    h[iu[::-1]] = h[iu].conj()
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _tangent_rank(n: int, rotations: int, left: np.ndarray, right: np.ndarray) -> int:
    """Rank of (s, H_L, H_R) -> Choi(e^{iH_L} L U_i D_i(s) R e^{iH_R}) at
    H_L = H_R = 0, by central differences (step 1e-6, relative cutoff 1e-6);
    ``rotations`` of the two generators are free (left first)."""
    us = np.array(canonical_unitaries(n))
    free = sample_interior(n, seed=n).diagonals[:-1] ** 2
    x0 = np.concatenate([free.ravel(), np.zeros(rotations * n * n)])

    def embed(x):
        s = x[: n * n - n].reshape(n - 1, n)
        d = np.sqrt(np.vstack([s, 1.0 - s.sum(axis=0)]))
        gl = _rotation(x[n * n - n : 2 * n * n - n]) if rotations > 0 else np.eye(n)
        gr = _rotation(x[2 * n * n - n :]) if rotations > 1 else np.eye(n)
        j = choi(KrausChannel(gl @ left @ (us * d[:, None, :]) @ right @ gr))
        return np.concatenate([j.real.ravel(), j.imag.ravel()])

    step = 1e-6
    jac = np.column_stack([
        (embed(x0 + step * e) - embed(x0 - step * e)) / (2 * step) for e in np.eye(x0.size)
    ])
    sv = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(sv > 1e-6 * sv[0]))


@pytest.mark.parametrize("n, ranks", [(2, (2, 5, 8)), (3, (6, 14, 22)), (4, (12, 27, 42))])
def test_tangent_ranks_of_the_family_and_its_rotations(n, ranks, haar_unitary):
    """N^2 - N with no rotation, 2N^2 - N - 1 with a left one and
    3N^2 - N - 2 with both: right rotations are not absorbed, and only at
    N = 2 does the family reach the 2N^3 - 2N^2 dimensions of Kraus-rank-N
    channels."""
    left, right = haar_unitary(n, 90 + n), haar_unitary(n, 95 + n)
    assert ranks == (n * n - n, 2 * n * n - n - 1, 3 * n * n - n - 2)
    assert tuple(_tangent_rank(n, r, left, right) for r in range(3)) == ranks
    assert (ranks[2] == 2 * n**3 - 2 * n**2) == (n == 2)


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf, -math.inf])
def test_jacobian_rejects_a_step_that_is_not_finite_and_positive(step):
    params = sample_interior(3, seed=1)
    with pytest.raises(ValueError, match="step") as err:
        parameter_jacobian_rank(params, step=step)
    assert not isinstance(err.value, ValidationError)


def test_jacobian_rejects_boundary_points():
    boundary = complete_last_diagonal(np.array([[1.0, 0.0]]))
    with pytest.raises(ValidationError):
        parameter_jacobian_rank(boundary)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 4])
def test_sample_interior_stays_away_from_the_boundary(n, seed):
    params = sample_interior(n, seed)
    assert np.all(params.diagonals > 1e-3)
    assert np.all(params.diagonals < 1.0 - 1e-3)


def test_pair_reduction_trivial_half_identity():
    m, reduced = pair_reduction_step([ID2 / 2, ID2 / 2], drop_index=1)
    assert np.allclose(m, np.sqrt(2.0) * ID2)
    assert len(reduced) == 1
    assert np.allclose(reduced[0], ID2)


def test_pair_reduction_diagonal_triple_scalar_arithmetic():
    d1 = np.diag([0.36, 0.25, 0.16]).astype(complex)
    d2 = np.diag([0.25, 0.36, 0.09]).astype(complex)
    d3 = np.eye(3) - d1 - d2
    m, reduced = pair_reduction_step([d1, d2, d3], drop_index=2)
    comp = np.diag(np.eye(3) - d3).real
    assert np.allclose(np.diag(m).real, 1.0 / np.sqrt(comp))
    assert np.allclose(reduced[0], np.diag(np.diag(d1).real / comp))
    assert np.allclose(reduced[1], np.diag(np.diag(d2).real / comp))
    assert np.allclose(reduced[0] + reduced[1], np.eye(3), atol=1e-12)


def test_pair_reduction_sum_invariant_on_sampled_channels():
    for n, seed in [(2, 1), (3, 2), (4, 3)]:
        _, ch = sample_extremal(n, seed)
        mats = [dagger(c) @ c for c in ch.kraus]
        for drop in range(len(mats)):
            low = np.linalg.eigvalsh(np.eye(n) - mats[drop]).min()
            if low <= 1e-8:
                continue
            _, reduced = pair_reduction_step(mats, drop)
            assert np.max(np.abs(sum(reduced) - np.eye(n))) < 1e-9


def test_pair_reduction_rejects_singular_complement():
    with pytest.raises(SingularComplementError):
        pair_reduction_step([np.eye(2).astype(complex)], drop_index=0)


def test_pair_reduction_validates_input():
    with pytest.raises(ValidationError):
        pair_reduction_step([ID2 / 2, ID2 / 3], drop_index=0)
    with pytest.raises(ValueError):
        pair_reduction_step([ID2 / 2, ID2 / 2], drop_index=5)
    with pytest.raises(ValueError):
        pair_reduction_step([], drop_index=0)
