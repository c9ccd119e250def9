"""What the package built is not derived or gated twice, and gives the same
values as if it were.

- The exact Jacobian's full rank is proved, not computed: every singular
  value is at least 1 and the largest is at most its closed-form Frobenius
  norm, so the default cutoff runs no decomposition; the count equals the
  SVD's at every cutoff.
- Values the package builds itself (sampled diagonals and channels, the
  qubit (nu1, nu2) channel, random states, ``kraus_from_choi``'s
  operators, ``stinespring``'s model) skip their class's gate, and are
  bitwise what the gate would have stored, read-only, and accepted by it.
- The canonical permutations are made once per N, read-only.
- On the block path of ``linalg`` the Hermitian gate reads the blocks'
  entries only, and refuses a matrix exactly as the whole-matrix gate
  (the block gate moved to infinity) does.
- ``kraus_from_choi`` forms only the eigenvectors it keeps.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import same_bits, with_gates

from xchan import linalg
from xchan.channels import (
    KrausChannel,
    choi,
    choi_min_eigenvalue,
    choi_output_trace,
    convex_combine,
    kraus_from_choi,
)
from xchan.dilation import DilationModel, stinespring
from xchan.errors import ValidationError
from xchan.extremal import (
    JACOBIAN_RANK_TOL,
    ExtremalParams,
    _canonical_stack,
    _choi_embedding,
    _dirichlet_diagonals,
    _difference_jacobian,
    _exact_jacobian,
    _jacobian_norm,
    build_extremal,
    canonical_unitaries,
    parameter_jacobian_rank,
    sample_extremal,
    sample_interior,
)
from xchan.linalg import (
    ID2,
    SX,
    SY,
    _components,
    _hermitian_blocks,
    _splits,
    herm_eig,
    herm_eigvals,
    real_if_exact,
)
from xchan.qubit import NuParams, channel_from_nu, nu_to_diagonals
from xchan.states import DensityMatrix, random_density
from xchan.tolerances import TOL_RANK

all_dims = pytest.mark.parametrize("n", range(2, 17))


def exact_singular_values(params: ExtremalParams) -> np.ndarray:
    jac = _exact_jacobian(params.diagonals, canonical_unitaries(params.n))
    return np.linalg.svd(jac, compute_uv=False)


def svd_count(n: int, seed: int, cutoffs) -> list[int]:
    """The SVD's rank of the exact Jacobian at each relative cutoff."""
    s = exact_singular_values(sample_interior(n, seed))
    return [int(np.sum(s > t * s[0])) for t in cutoffs]


# Just inside INTERIOR_MARGIN = 1e-3, the smallest entry the Jacobian takes.
MARGIN_ENTRY = 1.0011e-3


def spiky_diagonals(n: int, seed: int) -> ExtremalParams:
    """Sparse Dirichlet columns (concentration 0.05), lifted just enough
    that no entry reaches 1 - INTERIOR_MARGIN."""
    floor = 0.0021 / (n - 1)
    draws = np.random.default_rng(seed).dirichlet(np.full(n, 0.05), size=n).T
    return ExtremalParams(np.sqrt(floor + (1.0 - n * floor) * draws))


def margin_corner(n: int, seed: int) -> ExtremalParams:
    """Each column holds one entry at 0.9989, one that completes it, and
    N - 2 at MARGIN_ENTRY, in rows drawn from the seed."""
    rng = np.random.default_rng(seed)
    squares = np.full((n, n), MARGIN_ENTRY**2)
    for m in range(n):
        big, mid = rng.choice(n, 2, replace=False)
        squares[big, m] = 0.9989**2
        squares[mid, m] = 1.0 - 0.9989**2 - (n - 2) * MARGIN_ENTRY**2
    return ExtremalParams(np.sqrt(squares))


def jacobian_points(n: int) -> list[ExtremalParams]:
    """Sampled, spiky and margin-corner interior points."""
    kinds = (sample_interior, spiky_diagonals, margin_corner)
    return [kind(n, seed) for seed in range(4) for kind in kinds]


# ---------------------------------------------------------------------------
# The full-rank proof.

CUTOFFS = (JACOBIAN_RANK_TOL, 1e-3, 0.9)


@all_dims
def test_rank_equals_the_svd_count_at_every_cutoff(n):
    for seed in range(20):
        params = sample_interior(n, seed)
        expected = svd_count(n, seed, CUTOFFS)
        got = [parameter_jacobian_rank(params, rank_tol=t) for t in CUTOFFS]
        assert got == expected
    assert expected[0] == n * n - n


@all_dims
def test_the_certificate_never_claims_more_than_the_svd(n):
    # Cutoffs just below and just above s_min / s_0: the rank is N^2 - N
    # and then one less, whichever path counts it.
    for seed in range(3):
        params = sample_interior(n, 40 + seed)
        s = exact_singular_values(params)
        ratio = s[-1] / s[0]
        assert parameter_jacobian_rank(params, rank_tol=ratio * (1 - 1e-9)) == n * n - n
        assert parameter_jacobian_rank(params, rank_tol=ratio * (1 + 1e-9)) == n * n - n - 1


@all_dims
def test_every_singular_value_of_the_exact_jacobian_is_at_least_one(n):
    # The rows (m, m) of the first N-1 operators are the identity's.
    for params in jacobian_points(n):
        assert exact_singular_values(params)[-1] >= 1.0


@all_dims
def test_the_closed_form_norm_is_the_exact_jacobians(n):
    for params in jacobian_points(n):
        jac = _exact_jacobian(params.diagonals, canonical_unitaries(n))
        assert _jacobian_norm(params.diagonals) == pytest.approx(
            np.linalg.norm(jac), rel=1e-12
        )


def refuse(name: str):
    def refused(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} ran")

    return refused


@pytest.mark.parametrize("n", [*range(2, 17), 64])
def test_the_default_cutoff_needs_no_svd(n, monkeypatch):
    sampled = [sample_interior(n, seed) for seed in range(20)]
    points = jacobian_points(n)
    for name in ("svd", "qr", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    for params in sampled:
        assert parameter_jacobian_rank(params) == n * n - n
        assert parameter_jacobian_rank(params, rank_tol=1e-3) == n * n - n
    for params in points:
        assert parameter_jacobian_rank(params) == n * n - n


def test_a_cutoff_above_one_over_root_two_takes_the_svd(monkeypatch):
    # Each column has a unit row, so ||Jac||_F >= sqrt(N^2 - N) >= sqrt(2).
    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    with pytest.raises(AssertionError, match="np.linalg.svd ran"):
        parameter_jacobian_rank(sample_interior(2, 1), rank_tol=0.9)


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_jacobian_rejects_a_rank_tol_that_is_not_finite_and_non_negative(rank_tol):
    params = sample_interior(3, seed=1)
    for step in (None, 1e-5):
        with pytest.raises(ValueError, match="rank_tol") as err:
            parameter_jacobian_rank(params, step=step, rank_tol=rank_tol)
        assert not isinstance(err.value, ValidationError)


def test_a_zero_rank_tol_counts_every_nonzero_singular_value():
    assert parameter_jacobian_rank(sample_interior(4, 1), rank_tol=0.0) == 12


@pytest.mark.parametrize("n", [2, 3])
def test_difference_columns_are_the_central_differences_in_parameter_order(n):
    d = sample_interior(n, 5).diagonals
    unitaries = canonical_unitaries(n)
    jac = _difference_jacobian(d, unitaries, 1e-5)
    assert jac.shape == (2 * n**4, n * n - n) and jac.flags.f_contiguous
    free = (d**2)[:-1]
    for col, (i, m) in enumerate(np.ndindex(n - 1, n)):
        plus, minus = free.copy(), free.copy()
        plus[i, m] += 1e-5
        minus[i, m] -= 1e-5
        delta = _choi_embedding(plus, unitaries) - _choi_embedding(minus, unitaries)
        assert np.array_equal(jac[:, col], delta / 2e-5)


# ---------------------------------------------------------------------------
# Values built by the package skip the gate and equal the gate's.


def assert_frozen_channel(ch: KrausChannel) -> None:
    assert not ch.stack.flags.writeable and ch.stack.flags.c_contiguous
    assert all(not c.flags.writeable for c in ch.kraus)
    assert all(same_bits(c, s) for c, s in zip(ch.kraus, ch.stack))
    assert len(ch.kraus) == len(ch.stack)
    assert same_bits(KrausChannel(ch.stack).stack, ch.stack)


@all_dims
def test_sampled_values_equal_their_gated_construction(n):
    for seed in range(5):
        params, ch = sample_extremal(n, seed)
        gated = ExtremalParams(_dirichlet_diagonals(n, seed))
        assert same_bits(gated.diagonals, params.diagonals)
        assert not params.diagonals.flags.writeable
        assert_frozen_channel(ch)
        # Passing the unitaries takes the gated KrausChannel.
        assert same_bits(build_extremal(gated, canonical_unitaries(n)).stack, ch.stack)

        interior = sample_interior(n, seed)
        squares = 0.9 * _dirichlet_diagonals(n, seed) ** 2 + 0.1 / n
        assert same_bits(ExtremalParams(np.sqrt(squares)).diagonals, interior.diagonals)
        assert not interior.diagonals.flags.writeable

        rho = random_density(n, seed)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g.conj().T @ g
        assert same_bits(DensityMatrix(h / np.trace(h).real).mat, rho.mat)
        assert same_bits(DensityMatrix(rho.mat).mat, rho.mat)
        assert not rho.mat.flags.writeable

        back = kraus_from_choi(choi(ch))
        assert_frozen_channel(back)

        model = stinespring(ch)
        assert not model.u.flags.writeable
        gated_model = DilationModel(model.dim_sys, model.dim_env, model.u)
        assert same_bits(gated_model.u, model.u)
        assert gated_model.unitarity_residual == model.unitarity_residual
        assert model.env_state == 0


@all_dims
def test_canonical_stack_is_made_once_and_read_only(n):
    stack = _canonical_stack(n)
    assert _canonical_stack(n) is stack
    assert not stack.flags.writeable
    assert same_bits(np.asarray(canonical_unitaries(n)), stack)
    assert all(u.flags.writeable for u in canonical_unitaries(n))


def assert_qubit_channel_is_its_gated_construction(nu1: float, nu2: float) -> None:
    """``channel_from_nu`` skips ``ExtremalParams`` and ``build_extremal``'s
    gates; its stack is bitwise what they would have built."""
    p = NuParams(nu1, nu2)
    ch = channel_from_nu(p)
    assert_frozen_channel(ch)
    # Every column of ID2, SX and SY holds one entry of modulus 1, so the
    # column sums of |C_i| are exactly the kept diagonals.
    d = np.zeros((2, 2))
    d[: len(ch)] = np.abs(ch.stack).sum(axis=1)
    assert d[0].tolist() == list(nu_to_diagonals(p))
    params = ExtremalParams(d)
    u2 = SX if nu1 >= nu2 else SY
    assert same_bits(build_extremal(params, unitaries=[ID2, u2]).stack, ch.stack)


NU_GRID = [
    (1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.3, 0.3), (0.7, 0.7),
    (1e-12, 1e-12), (1e-12, 0.5), (0.5, 1e-12), (1e-12, 1.0),
    (1 - 1e-16, 1 - 1e-16), (1 - 1e-16, 0.5), (0.5, 1 - 1e-16), (1 - 1e-16, 1e-12),
]


@pytest.mark.parametrize("nu1, nu2", NU_GRID)
def test_qubit_channel_equals_its_gated_construction(nu1, nu2):
    assert_qubit_channel_is_its_gated_construction(nu1, nu2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nu1=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    nu2=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_drawn_qubit_channels_equal_their_gated_construction(nu1, nu2):
    assert_qubit_channel_is_its_gated_construction(nu1, nu2)


def test_stinespring_still_gates_unitarity(monkeypatch):
    # Complement columns of norm 2: u^dag u has 4 on their diagonal.
    _, ch = sample_extremal(3, 1)
    monkeypatch.setattr(np.linalg, "qr", lambda v, mode: (2 * np.eye(len(v)), None))
    with pytest.raises(ValidationError, match="u is not unitary") as err:
        stinespring(ch)
    assert err.value.residual == 3.0


def test_stinespring_still_gates_unitarity_on_the_split_path(monkeypatch):
    # At N=12 the isometry splits and u is built from its blocks.  QR
    # factors scaled by 2 give free columns of norm 2: u^dag u has about 4 on
    # their diagonal, and the block residual is the one that searching u
    # finds.
    _, ch = sample_extremal(12, 1)
    v = ch.stack.transpose(1, 0, 2).reshape(144, 12)
    assert linalg._grouped(v, len(v), linalg._BLOCK_MIN_DIM)[0] is not None
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: (2 * qr(a, mode=mode)[0], None))
    with pytest.raises(ValidationError, match="u is not unitary") as err:
        stinespring(ch)
    u, res = linalg._completed_unitary(v)
    monkeypatch.undo()
    assert err.value.residual == res == linalg._unitarity_residual(u)
    assert abs(res - 3.0) <= 1e-14


# ---------------------------------------------------------------------------
# Block-first Hermitian gates.


def outcome(call, *args):
    """A comparable record of what ``call(*args)`` did."""
    try:
        call(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "residual", None)
    return "ok"


def sampled_choi(n: int, seed: int) -> np.ndarray:
    j = choi(sample_extremal(n, seed)[1])
    assert len(j) >= linalg._BLOCK_MIN_DIM and _splits(_hermitian_blocks(j))
    return j


def largest_blocks(j: np.ndarray) -> np.ndarray:
    """The indices of the blocks of the largest size, one row per block."""
    ix, _ = max(_hermitian_blocks(j), key=lambda group: group[0].shape[1])
    return ix


def crafted(kind: str, n: int, seed: int) -> np.ndarray:
    j = sampled_choi(n, seed)
    a, b, c = largest_blocks(j)[:3]
    if kind == "nan in a block":
        j[a[0], a[1]] = np.nan
    elif kind == "inf in a block":
        j[a[1], a[1]] = complex(0.0, np.inf)
    elif kind == "one-sided entry joins two blocks":
        j[a[0], b[0]] = 1e-3
    elif kind == "skew imaginary part in one block":
        j[a[0], a[1]] += 1e-3j
    elif kind == "hermitian imaginary part in one block":
        j[a[0], a[1]] += 1e-3j
        j[a[1], a[0]] -= 1e-3j
    elif kind == "negative zero imaginary parts":
        j.imag[...] = -0.0
    elif kind == "real join, imaginary part in another block":
        # Two block sizes: the joined pair is exactly real, the rest not.
        j[a[0], b[0]] = j[b[0], a[0]] = 1e-3
        j[c[0], c[1]] += 1e-3j
        j[c[1], c[0]] -= 1e-3j
    return j


KINDS = [
    "nan in a block",
    "inf in a block",
    "one-sided entry joins two blocks",
    "skew imaginary part in one block",
    "hermitian imaginary part in one block",
    "negative zero imaginary parts",
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [7, 8, 11, 16])
def test_block_first_gates_refuse_as_the_dense_gate(kind, n):
    for seed in range(3):
        h = crafted(kind, n, seed)
        expected = outcome(lambda m: with_gates(herm_eigvals, m, block=np.inf), h)
        calls = [herm_eigvals, herm_eig, choi_min_eigenvalue]
        # A valid perturbation may leave J indefinite, which only
        # kraus_from_choi refuses.
        calls += [kraus_from_choi] if expected != "ok" else []
        for call in calls:
            assert outcome(call, h) == expected
        if kind == "one-sided entry joins two blocks":
            assert expected[2] == 1e-3


def test_the_joined_matrix_still_splits():
    h = crafted("one-sided entry joins two blocks", 8, 0)
    assert _splits(_hermitian_blocks(h))
    assert len(_hermitian_blocks(h)) == 2


@pytest.mark.parametrize("n", [7, 16])
def test_block_first_values_keep_their_arithmetic(n):
    # -0.0 imaginary parts are exactly real: the real routine, bit for bit.
    h = crafted("negative zero imaginary parts", n, 1)
    real = h.real.copy()
    assert same_bits(herm_eigvals(h), herm_eigvals(real))
    for x, y in zip(herm_eig(h), herm_eig(real)):
        assert same_bits(x, y)
    # An imaginary part in one block makes every block complex, as in the
    # dense gate's view of the whole matrix.
    for kind in ("hermitian imaginary part in one block", "real join, imaginary part in another block"):
        c = crafted(kind, n, 1)
        blocks = _hermitian_blocks(c)
        expected = np.concatenate([
            np.linalg.eigvalsh(c[ix[:, :, None], ix[:, None, :]]).ravel() for ix, _ in blocks
        ])
        assert same_bits(herm_eigvals(c), expected[np.argsort(-expected, kind="stable")])
    assert len(blocks) == 2


def dense_pattern_residual(u: np.ndarray) -> float:
    """The unitarity residual gathered from ``real_if_exact(u)``: realness
    decided on the whole matrix, then one product per block shape."""
    r = real_if_exact(u)
    groups = _components(r != 0)
    res = 1.0 if sum(cols.size for _, cols in groups) < len(r) else 0.0
    for rows, cols in groups:
        b = r[rows[:, :, None], cols[:, None, :]]
        res = max(res, float(np.abs(b.conj().transpose(0, 2, 1) @ b - np.eye(b.shape[2])).max()))
    return res


@pytest.mark.parametrize("kind", ["nan", "inf", "in a block", "outside blocks", "imaginary", "zero column"])
def test_dilation_model_refuses_as_before(kind):
    _, ch = sample_extremal(12, 3)
    u = np.array(stinespring(ch).u)
    assert len(u) >= linalg._BLOCK_MIN_DIM and _splits(_components(u != 0))
    inside, outside = np.argwhere(u != 0), np.argwhere(u == 0)
    if kind == "nan":
        u[tuple(inside[3])] = np.nan
    elif kind == "inf":
        u[tuple(outside[3])] = np.inf
    elif kind == "in a block":
        u[tuple(inside[7])] += 1e-6
    elif kind == "outside blocks":
        u[tuple(outside[7])] = 1e-6
    elif kind == "imaginary":
        u[tuple(inside[5])] += 1e-6j
    elif kind == "zero column":
        u[:, 5] = 0.0
    got = outcome(DilationModel, 12, 12, u)
    if kind in ("nan", "inf"):
        assert got == (ValueError, "matrix has non-finite entries", None)
    else:
        res = dense_pattern_residual(u)
        assert got == (ValidationError, str(ValidationError("u is not unitary", residual=res)), res)


# ---------------------------------------------------------------------------
# kraus_from_choi keeps only the eigenvectors it uses.


def full_eigenbasis_kraus(j: np.ndarray, tol_rank: float) -> np.ndarray:
    """The operators built from every eigenvector, then selected."""
    n = round(math.sqrt(len(j)))
    w, v = herm_eig(j)
    keep = w > tol_rank
    vecs = (v[:, keep] * np.sqrt(w[keep])).T
    return KrausChannel(vecs.reshape(-1, n, n).transpose(0, 2, 1)).stack


@all_dims
def test_kept_eigenvectors_give_the_full_basis_operators(n, haar_unitary):
    _, ch = sample_extremal(n, n)
    swap = np.eye(n)[[1, 0, *range(2, n)]]
    mixed = convex_combine([ch, KrausChannel(swap @ ch.stack @ swap.T)], [0.3, 0.7])
    rotated = KrausChannel(haar_unitary(n, n) @ ch.stack @ haar_unitary(n, n + 1))
    padded = KrausChannel(np.concatenate([ch.stack, np.zeros((1, n, n))]))
    for c in (ch, mixed, rotated, padded):
        j = choi(c)
        # The third cutoff is an eigenvalue itself, which is not kept.
        for tol_rank in (TOL_RANK, 1e-3, herm_eigvals(j)[2]):
            assert same_bits(kraus_from_choi(j, tol_rank).stack, full_eigenbasis_kraus(j, tol_rank))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_negative_tol_rank_that_keeps_a_negative_eigenvalue_is_refused():
    j = choi(sample_extremal(3, 1)[1])
    j[0, 0] -= 1e-11  # the smallest eigenvalue dips just below zero
    # Refused by the shared cutoff check before any square root is taken.
    with pytest.raises(ValueError, match=r"^tol_rank must be a finite number >= 0, got -1\.0$"):
        kraus_from_choi(j, tol_rank=-1.0)


# ---------------------------------------------------------------------------
# Empty input.


def test_an_empty_kraus_operator_is_refused():
    for shape in [(1, 0, 0), (3, 0, 0)]:
        with pytest.raises(ValueError, match=re_shape(shape)):
            KrausChannel(np.zeros(shape))


@pytest.mark.parametrize("call", [choi_min_eigenvalue, kraus_from_choi, choi_output_trace])
def test_an_empty_choi_matrix_is_refused(call):
    # So is a matrix that is not N^2 x N^2: one shape gate for all three.
    for shape in [(0, 0), (3, 3), (2, 3)]:
        with pytest.raises(ValueError, match=r"N >= 1, got shape " + re.escape(str(shape))):
            call(np.eye(*shape))


def re_shape(shape) -> str:
    return r"got stack shape \(" + r", ".join(map(str, shape)) + r"\)"
