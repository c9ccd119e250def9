"""Property tests: the real and the complex decomposition paths agree.

A sampled extremal channel is exactly real, so its Choi matrix, its Gram
products and its dilation isometry are decomposed in real arithmetic.
Rotating it to ``U C_i V`` with Haar-random unitaries gives a channel that is
just as CPTP and extremal but exactly complex, so the same checks take the
complex path.  Both must give the same verdicts within round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xchan.channels import (
    KrausChannel,
    check_extremal,
    choi,
    choi_min_eigenvalue,
    kraus_from_choi,
)
from xchan.dilation import stinespring
from xchan.extremal import sample_extremal

# Bounded and derandomized, so the suite stays fast and repeatable.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def pair(haar_unitary):
    """``make(n, seed)``: a sampled channel and its Haar rotation."""

    def make(n: int, seed: int) -> tuple[KrausChannel, KrausChannel]:
        _, ch = sample_extremal(n, seed)
        u, v = haar_unitary(n, seed), haar_unitary(n, seed + 1)
        rotated = KrausChannel(u @ ch.stack @ v)
        assert not ch.stack.imag.any()
        assert rotated.stack.imag.any()
        return ch, rotated

    return make


@PROPERTY
@given(n=dims, seed=seeds)
def test_both_paths_give_the_same_gram_rank(pair, n, seed):
    ch, rotated = pair(n, seed)
    assert check_extremal(ch).gram_rank == check_extremal(rotated).gram_rank


@PROPERTY
@given(n=dims, seed=seeds)
def test_both_paths_find_the_choi_matrix_psd(pair, n, seed):
    for c in pair(n, seed):
        assert choi_min_eigenvalue(choi(c)) >= -1e-12


@PROPERTY
@given(n=dims, seed=seeds)
def test_choi_kraus_choi_round_trip_on_both_paths(pair, n, seed):
    for c in pair(n, seed):
        j = choi(c)
        back = kraus_from_choi(j)
        assert back.stack.dtype == np.complex128
        assert np.max(np.abs(choi(back) - j)) <= 1e-12


@PROPERTY
@given(n=dims, seed=seeds)
def test_dilation_is_unitary_with_exact_fixed_columns_on_both_paths(pair, n, seed):
    for c in pair(n, seed):
        model = stinespring(c)
        k = len(c)
        assert model.u.dtype == np.complex128
        assert model.unitarity_residual <= 1e-10
        u = model.u
        assert np.max(np.abs(u.conj().T @ u - np.eye(n * k))) <= 1e-10
        isometry = c.stack.transpose(1, 0, 2).reshape(n * k, n)
        assert np.array_equal(u[:, ::k], isometry)


@PROPERTY
@given(n=dims, seed=seeds)
def test_gram_rank_verdict_survives_unitary_mixing(pair, haar_unitary, n, seed):
    # C'_a = sum_b W[a, b] C_b is the same channel for any unitary W, and
    # Choi's test is a property of the channel once the set is minimal.
    for c in pair(n, seed):
        minimal = kraus_from_choi(choi(c))
        w = haar_unitary(len(minimal), seed + 2)
        mixed = KrausChannel(np.einsum("ab,bij->aij", w, minimal.stack))
        assert check_extremal(mixed).extremal == check_extremal(minimal).extremal
